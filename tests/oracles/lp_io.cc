#include "oracles/lp_io.h"

#include <cmath>
#include <cstring>

#include "common/str_util.h"

namespace pso {

namespace {

constexpr char kMagic[6] = {'P', 'S', 'O', 'L', 'P', '1'};

// Bounds-checked little-endian cursor over the encoded payload.
class ByteCursor {
 public:
  ByteCursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadBytes(void* out, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadU8(uint8_t* out) { return ReadBytes(out, 1); }
  bool ReadU32(uint32_t* out) { return ReadBytes(out, 4); }
  bool ReadF64(double* out) { return ReadBytes(out, 8); }

  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

Status Truncated(const char* what, size_t at) {
  return Status::InvalidArgument(
      StrFormat("truncated input: %s at byte %zu", what, at));
}

}  // namespace

std::string EncodeLpInstance(const LpInstance& instance) {
  std::string out(kMagic, sizeof(kMagic));
  AppendU32(&out, static_cast<uint32_t>(instance.variables.size()));
  AppendU32(&out, static_cast<uint32_t>(instance.rows.size()));
  for (const LpInstance::Variable& v : instance.variables) {
    AppendF64(&out, v.lower);
    AppendF64(&out, v.upper);
    AppendF64(&out, v.cost);
  }
  for (const LpInstance::Row& r : instance.rows) {
    out.push_back(static_cast<char>(r.rel));
    AppendF64(&out, r.rhs);
    AppendU32(&out, static_cast<uint32_t>(r.coeffs.size()));
    for (const auto& [idx, coeff] : r.coeffs) {
      AppendU32(&out, static_cast<uint32_t>(idx));
      AppendF64(&out, coeff);
    }
  }
  return out;
}

Result<LpInstance> DecodeLpInstance(const uint8_t* data, size_t size) {
  ByteCursor cur(data, size);
  char magic[sizeof(kMagic)];
  if (!cur.ReadBytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic: not a PSOLP1 instance");
  }
  uint32_t num_vars = 0;
  uint32_t num_rows = 0;
  if (!cur.ReadU32(&num_vars) || !cur.ReadU32(&num_rows)) {
    return Truncated("header counts", cur.pos());
  }
  if (num_vars > kLpInstanceMaxVars) {
    return Status::InvalidArgument(StrFormat(
        "declared %u variables exceeds the cap of %u", num_vars,
        kLpInstanceMaxVars));
  }
  if (num_rows > kLpInstanceMaxRows) {
    return Status::InvalidArgument(StrFormat(
        "declared %u rows exceeds the cap of %u", num_rows,
        kLpInstanceMaxRows));
  }

  LpInstance out;
  out.variables.reserve(num_vars);
  for (uint32_t i = 0; i < num_vars; ++i) {
    LpInstance::Variable v;
    if (!cur.ReadF64(&v.lower) || !cur.ReadF64(&v.upper) ||
        !cur.ReadF64(&v.cost)) {
      return Truncated("variable record", cur.pos());
    }
    if (!std::isfinite(v.lower)) {
      return Status::InvalidArgument(
          StrFormat("variable %u: lower bound not finite", i));
    }
    if (std::isnan(v.upper) || v.lower > v.upper) {
      return Status::InvalidArgument(
          StrFormat("variable %u: empty bounds", i));
    }
    if (!LpProblem::InMagnitudeRange(v.lower) ||
        (std::isfinite(v.upper) && !LpProblem::InMagnitudeRange(v.upper))) {
      return Status::InvalidArgument(
          StrFormat("variable %u: finite bound outside the magnitude range",
                    i));
    }
    if (!LpProblem::InMagnitudeRange(v.cost)) {
      return Status::InvalidArgument(
          StrFormat("variable %u: cost outside the magnitude range", i));
    }
    out.variables.push_back(v);
  }

  out.rows.reserve(num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    LpInstance::Row row;
    uint8_t rel = 0;
    uint32_t nnz = 0;
    if (!cur.ReadU8(&rel) || !cur.ReadF64(&row.rhs) || !cur.ReadU32(&nnz)) {
      return Truncated("row header", cur.pos());
    }
    if (rel > 2) {
      return Status::InvalidArgument(
          StrFormat("row %u: unknown relation code %u", r, rel));
    }
    row.rel = static_cast<Relation>(rel);
    if (!std::isfinite(row.rhs)) {
      return Status::InvalidArgument(
          StrFormat("row %u: right-hand side not finite", r));
    }
    if (nnz > num_vars) {
      return Status::InvalidArgument(StrFormat(
          "row %u: %u coefficients over %u variables", r, nnz, num_vars));
    }
    row.coeffs.reserve(nnz);
    for (uint32_t k = 0; k < nnz; ++k) {
      uint32_t idx = 0;
      double coeff = 0.0;
      if (!cur.ReadU32(&idx) || !cur.ReadF64(&coeff)) {
        return Truncated("coefficient", cur.pos());
      }
      if (idx >= num_vars) {
        return Status::InvalidArgument(StrFormat(
            "row %u: coefficient references unknown variable %u", r, idx));
      }
      row.coeffs.emplace_back(idx, coeff);
    }
    if (!LpProblem::CoefficientsInMagnitudeRange(row.coeffs)) {
      return Status::InvalidArgument(StrFormat(
          "row %u: a coefficient, or a repeated variable's sum, outside the "
          "magnitude range", r));
    }
    out.rows.push_back(std::move(row));
  }
  if (!cur.AtEnd()) {
    return Status::InvalidArgument(
        StrFormat("%zu trailing bytes after the last row",
                  size - cur.pos()));
  }
  return out;
}

Result<LpInstance> DecodeLpInstance(const std::string& bytes) {
  return DecodeLpInstance(reinterpret_cast<const uint8_t*>(bytes.data()),
                          bytes.size());
}

LpProblem ToProblem(const LpInstance& instance) {
  LpProblem problem;
  for (const LpInstance::Variable& v : instance.variables) {
    problem.AddVariable(v.lower, v.upper, v.cost);
  }
  for (const LpInstance::Row& row : instance.rows) {
    problem.AddConstraint(row.coeffs, row.rel, row.rhs);
  }
  return problem;
}

}  // namespace pso
