#include "runtime/phase.hpp"

namespace hmm::runtime {
namespace {

constexpr std::array<std::string_view, kPhaseCount> kLabels = {
    "admission_wait", "queue_wait",  "plan_lookup", "plan_build",
    "row_pass_1",     "transpose_1", "row_pass_2",  "transpose_2",
    "row_pass_3",     "conventional_kernel", "serialize",  "program_compile",
};

/// Parse the unsigned decimal run starting at `pos`; false if none.
bool parse_u64_at(std::string_view s, std::size_t pos, std::uint64_t& out) {
  if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return false;
  std::uint64_t value = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(s[pos] - '0');
    ++pos;
  }
  out = value;
  return true;
}

/// Find `"key":` inside [from, to) and parse the number after it.
bool scan_field(std::string_view s, std::size_t from, std::size_t to, std::string_view key,
                std::uint64_t& out) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const std::size_t at = s.substr(0, to).find(needle, from);
  if (at == std::string_view::npos) return false;
  return parse_u64_at(s, at + needle.size(), out);
}

}  // namespace

std::string_view to_string(Phase p) noexcept {
  return kLabels[static_cast<std::size_t>(p)];
}

const std::array<Phase, kPhaseCount>& all_phases() noexcept {
  static const std::array<Phase, kPhaseCount> phases = [] {
    std::array<Phase, kPhaseCount> a{};
    for (std::size_t i = 0; i < kPhaseCount; ++i) a[i] = static_cast<Phase>(i);
    return a;
  }();
  return phases;
}

Phase phase_for_kernel(unsigned kernel) noexcept {
  switch (kernel) {
    case 0: return Phase::kKernelRowPass1;
    case 2: return Phase::kKernelRowPass2;
    case 4: return Phase::kKernelRowPass3;
    default: return Phase::kKernelConventional;
  }
}

std::vector<PhaseScrape> scrape_phases_json(std::string_view metrics_json) {
  std::vector<PhaseScrape> rows;
  const std::size_t phases_at = metrics_json.find("\"phases\":{");
  if (phases_at == std::string_view::npos) return rows;

  for (Phase p : all_phases()) {
    const std::string_view label = to_string(p);
    std::string needle;
    needle.reserve(label.size() + 4);
    needle += '"';
    needle += label;
    needle += "\":{";
    const std::size_t at = metrics_json.find(needle, phases_at);
    if (at == std::string_view::npos) continue;
    const std::size_t body = at + needle.size();
    const std::size_t end = metrics_json.find('}', body);
    if (end == std::string_view::npos) continue;

    PhaseScrape row;
    row.label = std::string(label);
    if (!scan_field(metrics_json, body, end, "count", row.count)) continue;
    (void)scan_field(metrics_json, body, end, "ns_sum", row.ns_sum);
    (void)scan_field(metrics_json, body, end, "p50", row.p50);
    (void)scan_field(metrics_json, body, end, "p95", row.p95);
    (void)scan_field(metrics_json, body, end, "max", row.max);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace hmm::runtime
