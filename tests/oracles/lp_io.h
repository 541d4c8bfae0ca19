// Binary LP-instance encoding/decoding (PSOLP1), test support.
//
// A compact little-endian wire format for the bounded-variable linear
// programs the reconstruction attacks build. It is the input format of
// fuzz_lp_decode and of the solver property tests, which feed decoded
// instances to the production simplex; no production path reads it. The
// decoder treats its input as untrusted: every truncation, bad magic,
// non-finite value, out-of-range index, or cap violation is an
// InvalidArgument status, never an abort or an over-allocation.
//
// Layout (all integers little-endian):
//   byte[6]  magic "PSOLP1"
//   u32      num_vars      (<= kLpInstanceMaxVars)
//   u32      num_rows      (<= kLpInstanceMaxRows)
//   per variable: f64 lower, f64 upper, f64 cost
//     (lower finite, lower <= upper, upper may be +inf; cost and the
//     finite bounds LpProblem::InMagnitudeRange)
//   per row:      u8 relation (0 <=, 1 >=, 2 ==), f64 rhs (finite),
//                 u32 nnz (<= num_vars), then nnz x (u32 index, f64 coeff),
//                 the coefficients LpProblem::CoefficientsInMagnitudeRange

#ifndef PSO_TESTS_ORACLES_LP_IO_H_
#define PSO_TESTS_ORACLES_LP_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "solver/lp.h"

namespace pso {

/// Decoder caps: a header declaring more than this is rejected before any
/// allocation happens.
inline constexpr uint32_t kLpInstanceMaxVars = 4096;
inline constexpr uint32_t kLpInstanceMaxRows = 16384;

/// Serializes `instance` into the wire format above.
std::string EncodeLpInstance(const LpInstance& instance);

/// Parses and fully validates one encoded instance.
[[nodiscard]] Result<LpInstance> DecodeLpInstance(const uint8_t* data, size_t size);

/// String-payload convenience overload.
[[nodiscard]] Result<LpInstance> DecodeLpInstance(const std::string& bytes);

/// Builds the solver problem. An instance produced by a successful
/// DecodeLpInstance is always well-formed, so the problem's
/// build_status() is OK.
LpProblem ToProblem(const LpInstance& instance);

}  // namespace pso

#endif  // PSO_TESTS_ORACLES_LP_IO_H_
