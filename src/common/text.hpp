// Small string utilities (GCC 12 has no <format>, so we provide the handful
// of helpers the trace serializer, reports and benches need).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bbmg {

/// Split on a single character; empty fields preserved.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on runs of whitespace; no empty fields.
std::vector<std::string> split_ws(std::string_view s);

std::string_view trim(std::string_view s);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Fixed-point decimal rendering, e.g. format_double(1.23456, 3) == "1.235".
std::string format_double(double v, int decimals);

bool parse_u64(std::string_view s, std::uint64_t& out);

/// 1-based column of the first character of the Nth (0-based)
/// whitespace-separated token of `line`; 1 when the token does not exist.
/// Both trace loaders use this to point their `line:col` diagnostics at
/// the offending token rather than just the offending line.
std::size_t token_col(std::string_view line, std::size_t token_index);

}  // namespace bbmg
