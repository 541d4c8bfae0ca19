#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/metrics.h"

namespace pso::bench {

Json Json::Number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::Bool(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.boolean_ = v;
  return j;
}

Json Json::String(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json& Json::Set(const std::string& key, Json value) {
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) {
      items_[i] = std::move(value);
      return items_[i];
    }
  }
  keys_.push_back(key);
  items_.push_back(std::move(value));
  return items_.back();
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

std::optional<double> Json::NumberAt(
    std::initializer_list<std::string_view> path) const {
  const Json* node = this;
  for (std::string_view key : path) {
    node = node->Find(key);
    if (node == nullptr) return std::nullopt;
  }
  if (node->type_ != Type::kNumber) return std::nullopt;
  return node->number_;
}

std::string Json::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return boolean_ ? "true" : "false";
    case Type::kNumber: {
      if (!std::isfinite(number_)) return "null";
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", number_);
      return buf;
    }
    case Type::kString: {
      std::string out = "\"";
      out += metrics::JsonEscape(str_);
      out += '"';
      return out;
    }
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ", ";
        out += items_[i].Dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ", ";
        out += '"';
        out += metrics::JsonEscape(keys_[i]);
        out += "\": ";
        out += items_[i].Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Json> Document() {
    std::optional<Json> v = Value();
    SkipSpace();
    if (!v || pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (s_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  std::optional<Json> Value() {
    SkipSpace();
    if (pos_ >= s_.size()) return std::nullopt;
    const char c = s_[pos_];
    if (c == '{') return ObjectValue();
    if (c == '[') return ArrayValue();
    if (c == '"') {
      std::optional<std::string> str = StringValue();
      if (!str) return std::nullopt;
      return Json::String(std::move(*str));
    }
    if (Consume("true")) return Json::Bool(true);
    if (Consume("false")) return Json::Bool(false);
    if (Consume("null")) return Json();
    return NumberValue();
  }

  std::optional<Json> NumberValue() {
    const std::string token(s_.substr(pos_, 64));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str()) return std::nullopt;
    pos_ += static_cast<size_t>(end - token.c_str());
    return Json::Number(v);
  }

  std::optional<std::string> StringValue() {
    if (!Consume("\"")) return std::nullopt;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return std::nullopt;
      const char e = s_[pos_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Metric names are ASCII; a \u escape is kept only if it is one.
          if (pos_ + 4 > s_.size()) return std::nullopt;
          const long code =
              std::strtol(std::string(s_.substr(pos_, 4)).c_str(), nullptr, 16);
          pos_ += 4;
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: out.push_back(e); break;
      }
    }
    return std::nullopt;
  }

  std::optional<Json> ArrayValue() {
    Consume("[");
    Json out = Json::Array();
    SkipSpace();
    if (Consume("]")) return out;
    for (;;) {
      std::optional<Json> v = Value();
      if (!v) return std::nullopt;
      out.Push(std::move(*v));
      SkipSpace();
      if (Consume("]")) return out;
      if (!Consume(",")) return std::nullopt;
    }
  }

  std::optional<Json> ObjectValue() {
    Consume("{");
    Json out = Json::Object();
    SkipSpace();
    if (Consume("}")) return out;
    for (;;) {
      SkipSpace();
      std::optional<std::string> key = StringValue();
      if (!key) return std::nullopt;
      SkipSpace();
      if (!Consume(":")) return std::nullopt;
      std::optional<Json> v = Value();
      if (!v) return std::nullopt;
      out.Set(*key, std::move(*v));
      SkipSpace();
      if (Consume("}")) return out;
      if (!Consume(",")) return std::nullopt;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::Parse(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace pso::bench
