#include "lattice/dependency_value.hpp"

#include "common/error.hpp"

namespace bbmg {

std::vector<DepValue> dep_lower_covers(DepValue v) {
  std::vector<DepValue> covers;
  for (const std::uint8_t flag : {detail::kB, detail::kC, detail::kF}) {
    const std::uint8_t below = detail::flags(v) & ~flag;
    if (below == detail::flags(v) || below == detail::kC) continue;
    covers.push_back(static_cast<DepValue>(below));
  }
  return covers;
}

std::string_view dep_to_string(DepValue v) {
  static constexpr std::array<std::string_view, kNumDepValues> kNames = {
      "||", "->", "<-", "<->", "->?", "<-?", "<->?"};
  return kNames[dep_code(v)];
}

DepValue dep_from_string(std::string_view s) {
  for (DepValue v : kAllDepValues) {
    if (dep_to_string(v) == s) return v;
  }
  raise("unknown dependency value token: '" + std::string(s) + "'");
}

}  // namespace bbmg
