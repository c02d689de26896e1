#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  // The epsilon absorbs binary rounding of p (99.9 is not exact), so a
  // rank that is an integer on paper is not bumped one sample higher.
  const double rank =
      std::ceil(p * static_cast<double>(sorted.size()) / 100.0 - 1e-9);
  const size_t index =
      std::clamp<size_t>(static_cast<size_t>(rank), 1, sorted.size()) - 1;
  return sorted[index];
}

double SelectTailPercentile(size_t n, double cap, size_t beyond) {
  if (n <= beyond) return 0;
  // Nearest rank ceil(p*n/100) leaves n - rank samples above it, so the
  // bound is p <= 100 * (n - beyond) / n. Work in tenths to stay exact.
  const auto tenths = static_cast<uint64_t>(
      std::floor(1000.0 * static_cast<double>(n - beyond) /
                 static_cast<double>(n)));
  const double p = std::min(cap, static_cast<double>(tenths) / 10.0);
  return p >= 50.0 ? p : 0;
}

Summary Summarize(std::vector<double> values, double cap) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  s.groups = std::max<size_t>(1, values.size() / kTailGroup);
  std::vector<double> group_tails;
  if (s.groups >= 2) {
    s.tail_pct = SelectTailPercentile(kTailGroup, cap);
    for (size_t g = 0; g < s.groups; ++g) {
      // The last group takes the remainder.
      const auto first = values.begin() + g * kTailGroup;
      const auto last =
          g + 1 == s.groups ? values.end() : first + kTailGroup;
      std::vector<double> group(first, last);
      std::sort(group.begin(), group.end());
      group_tails.push_back(NearestRank(group, s.tail_pct));
    }
    std::sort(group_tails.begin(), group_tails.end());
  } else {
    s.tail_pct = SelectTailPercentile(values.size(), cap);
  }
  std::sort(values.begin(), values.end());
  s.median = NearestRank(values, 50.0);
  s.valid = s.tail_pct > 0;
  if (!s.valid) return s;
  s.whole_tail = NearestRank(values, s.tail_pct);
  s.tail = s.groups >= 2 ? NearestRank(group_tails, 50.0) : s.whole_tail;
  return s;
}

LatenessVerdict JudgeLateness(const std::vector<RequestTiming>& timings) {
  std::vector<double> late;
  std::vector<double> latency;
  late.reserve(timings.size());
  latency.reserve(timings.size());
  for (const RequestTiming& t : timings) {
    late.push_back(LatenessUs(t));
    latency.push_back(LatencyUs(t));
  }
  LatenessVerdict verdict;
  verdict.lateness_us = Summarize(std::move(late));
  verdict.latency_us = Summarize(std::move(latency));
  verdict.bound_us = std::max(kMaxLatenessUs,
                              kMaxLatenessShare * verdict.latency_us.tail);
  verdict.valid = verdict.lateness_us.valid &&
                  verdict.lateness_us.tail <= verdict.bound_us;
  return verdict;
}

}  // namespace perfbench
