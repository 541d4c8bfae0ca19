// Small string helpers (no std::format on this toolchain).

#ifndef PSO_COMMON_STR_UTIL_H_
#define PSO_COMMON_STR_UTIL_H_

#include <string>
#include <vector>

namespace pso {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits `s` on the single character `sep` (keeps empty fields).
std::vector<std::string> Split(const std::string& s, char sep);

}  // namespace pso

#endif  // PSO_COMMON_STR_UTIL_H_
