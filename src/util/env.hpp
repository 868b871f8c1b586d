// Environment-variable overrides for bench/example budgets: each binary
// reads its own SAGA_* knobs through these two parsers.
#pragma once

#include <cstdint>
#include <string>

namespace saga::util {

/// Returns the integer value of `name`, or `fallback` when unset/malformed.
/// Malformed: empty, trailing characters ("12abc") or outside the int64
/// range.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Returns the double value of `name`, or `fallback` when unset/malformed
/// (empty, trailing characters, or overflow/underflow such as "1e999").
double env_double(const std::string& name, double fallback);

}  // namespace saga::util
