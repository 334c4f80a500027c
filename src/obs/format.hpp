// Text helpers shared by the obs renderers (trace export, job and pipeline
// doctors, regression doctor), so every artifact escapes and rounds the same
// way.  Round-trip-exact doubles use trace_double() from obs/trace.hpp.
#pragma once

#include <string>
#include <string_view>

namespace mrmc::obs {

/// Append `text` to `out` as a quoted JSON string (control bytes escaped).
void append_json_string(std::string& out, std::string_view text);

/// `text` with &, <, > and " replaced by their HTML entities.
[[nodiscard]] std::string html_escape(std::string_view text);

/// `value` printed %.2f.
[[nodiscard]] std::string f2(double value);

/// `fraction` as a percentage printed %.1f%%.
[[nodiscard]] std::string pct(double fraction);

}  // namespace mrmc::obs
