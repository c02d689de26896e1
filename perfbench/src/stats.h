#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A timing summary: the median and the highest percentile (at most
// `cap`) that still has at least `beyond` samples above it, so a tail is
// never read off a handful of samples. `tail_pct` says which percentile
// `tail` is; it is 0 and `valid` false when there are too few samples.
//
// With at least two groups' worth of samples, the tail is taken per
// consecutive group of kTailGroup samples (in arrival order) and the
// median of the group tails is reported: a transient stall of the shared
// host then moves one group's tail, not the run's. `whole_tail` is the
// same percentile over all samples at once.
struct Summary {
  size_t samples = 0;
  size_t groups = 0;
  double median = 0;
  double tail = 0;
  double tail_pct = 0;
  double whole_tail = 0;
  bool valid = false;
};

inline constexpr size_t kTailBeyond = 10;
inline constexpr size_t kTailGroup = 1000;

// Nearest-rank percentile of ascending `sorted` (p in (0, 100]).
double NearestRank(const std::vector<double>& sorted, double p);
// The highest percentile <= cap, in steps of 0.1, with at least `beyond`
// of `n` samples strictly above its nearest rank; 0 when none exists.
double SelectTailPercentile(size_t n, double cap = 99.0,
                            size_t beyond = kTailBeyond);
// `values` in arrival order.
Summary Summarize(std::vector<double> values, double cap = 99.0);

// Open-loop timing of one request: when it was due, when the generator
// actually sent it, and when its reply arrived (steady-clock ns).
struct RequestTiming {
  uint64_t due_ns = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
};

// Latency counts from the due time, so a stalled generator or server
// charges every request that should have gone out meanwhile.
inline double LatencyUs(const RequestTiming& t) {
  return static_cast<double>(t.recv_ns - t.due_ns) / 1e3;
}
inline double LatenessUs(const RequestTiming& t) {
  return static_cast<double>(t.send_ns - t.due_ns) / 1e3;
}

// Open-loop timings are valid only while the generator's lateness tail
// stays below the latency tail it measures: at most this many us, or
// three quarters of the latency p99 when that is larger. Beyond it the
// generator, not the server, would set the tail. (A stall of the shared
// host delays both alike and is part of what the due-time latency
// rightly counts.)
inline constexpr double kMaxLatenessUs = 1000.0;
inline constexpr double kMaxLatenessShare = 0.75;

struct LatenessVerdict {
  Summary lateness_us;
  Summary latency_us;
  double bound_us = 0;
  bool valid = false;
};
// `timings` in due-time order.
LatenessVerdict JudgeLateness(const std::vector<RequestTiming>& timings);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
