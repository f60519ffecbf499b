// The one rule the command-line tools (dsmt_serve, dsmt_loadgen, dsmt_cli)
// read a numeric option's value by, so a misread number fails the same way
// in each: exit 2 naming the option, never a silently different value.
#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>

namespace dsmt::core {

/// `text`, the value of --`name`, as one whole base-10 T in [min, max]. An
/// integer T takes digits only, and an unsigned T takes no sign; a
/// floating-point T takes a finite decimal or exponent form ("0.1",
/// "2e-3"). Anything else ("1e3" or "2x" for a count, "-1" for an unsigned
/// one, "70000" for a port, "0.1x", "inf", "nan", overflow) throws
/// std::invalid_argument reading "invalid value 'TEXT' for --NAME".
template <typename T>
T number_option(const std::string& name, const std::string& text,
                T min = std::numeric_limits<T>::lowest(),
                T max = std::numeric_limits<T>::max()) {
  const char* end = text.data() + text.size();
  T value{};
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, value);
  // Written as "not inside" so a NaN, which compares false, is refused.
  if (parsed.ec != std::errc{} || parsed.ptr != end ||
      !(min <= value && value <= max))
    throw std::invalid_argument("invalid value '" + text + "' for --" + name);
  return value;
}

}  // namespace dsmt::core
