#ifndef DUPLEX_UTIL_METRICS_H_
#define DUPLEX_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace duplex {

// Nanoseconds on the steady clock, relative to process start. The zero
// point is arbitrary but shared by every metric and span in the process,
// so durations and trace timestamps compose.
uint64_t MonotonicNanos();

// Monotonically increasing counter, sharded across cache lines so
// concurrent increments from different threads do not bounce one atomic.
// Inc() is wait-free (one relaxed fetch_add); Value() sums the cells.
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    cells_[CellIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const;

 private:
  static size_t CellIndex();

  static constexpr size_t kCells = 8;
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_;
};

// Last-writer-wins scalar (occupancy ratios, resident counts, ...).
class Gauge {
 public:
  void Set(double value) { v_.store(value, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed log-bucketed latency histogram, safe for hot paths: Record() is
// one branch plus a handful of relaxed atomic adds, keeps no samples,
// allocates nothing, and the memory footprint is constant. Values are
// non-negative integers (nanoseconds by convention).
//
// Bucket b holds values whose bit width is b: bucket 0 is exactly {0},
// bucket b >= 1 is [2^(b-1), 2^b - 1]. Boundaries are pure integer
// arithmetic, so they are identical on every platform. count/sum are
// exact under concurrency; percentiles interpolate within a bucket, so an
// estimate is always within one bucket of the true value.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 65;

  // 0 -> 0; otherwise bit_width(value) (1 -> 1, 2..3 -> 2, 4..7 -> 3, ...).
  static size_t BucketIndex(uint64_t value);
  // Largest value bucket b holds (UINT64_MAX for the final bucket).
  static uint64_t BucketUpperBound(size_t bucket);
  // Smallest value bucket b holds.
  static uint64_t BucketLowerBound(size_t bucket);

  void Record(uint64_t value);
  // Adds another histogram's buckets and totals into this one.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const;  // 0 when empty
  uint64_t bucket_count(size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  // p in [0, 100]. Linear interpolation within the bucket containing the
  // rank; exact min/max at the extremes. 0 for an empty histogram.
  double Percentile(double p) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

// Escapes a label VALUE per the Prometheus exposition format: backslash,
// double-quote, and newline become \\, \", and \n. Apply to any dynamic
// string interpolated into a label body.
std::string EscapeLabelValue(std::string_view value);

// `key="value"` with the value escaped — the safe way to build the
// `labels` argument of the Get*/Global* calls from runtime strings:
//   GetCounter("duplex_net_rejected_total", help, LabelPair("reason", r));
// Join multiple pairs with ",".
std::string LabelPair(std::string_view key, std::string_view value);

// Point-in-time copy of every metric in a registry, keyed by exposition
// name (name plus {labels} when the metric is labeled).
struct MetricsSnapshot {
  struct HistogramView {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
    double Percentile(double p) const;
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramView> histograms;
};

// Named metrics, registered on first use and stable for the registry's
// lifetime. Get* is mutex-guarded (registration is cold); the returned
// handles record lock-free and must not outlive the registry — components
// fetch handles at construction, so a registry must be installed before
// and destroyed after the components it observes.
//
// Naming scheme (see DESIGN.md § 7): duplex_<layer>_<what>_<unit>, with
// counters ending in _total and durations in _ns. `labels` is a raw
// Prometheus label body, e.g. `shard="3"`.
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Process-unique, never reused. Callers that cache handles keyed by
  // registry identity must key on (pointer, uid): a new registry can be
  // allocated at a dead one's address.
  uint64_t uid() const { return uid_; }

  Counter* GetCounter(std::string_view name, std::string_view help = "",
                      std::string_view labels = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "",
                  std::string_view labels = "");
  LatencyHistogram* GetHistogram(std::string_view name,
                                 std::string_view help = "",
                                 std::string_view labels = "");

  MetricsSnapshot Snapshot() const;

  // Prometheus text exposition format (promtool-parseable): # HELP/# TYPE
  // per metric family, histograms as cumulative _bucket{le=...}/_sum/
  // _count series.
  std::string ExportPrometheus() const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  // sum, min, max, p50, p95, p99}}}.
  std::string ExportJson() const;

  size_t metric_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    std::string name;    // base name, no labels
    std::string labels;  // raw label body, may be empty
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Entry* GetEntry(Kind kind, std::string_view name, std::string_view help,
                  std::string_view labels);

  const uint64_t uid_;
  mutable std::mutex mu_;
  // Keyed by exposition name; std::map so exports are deterministically
  // ordered (labeled series of one family sort together).
  std::map<std::string, Entry> entries_;
};

// Process-global registry. Null (the default) means observability is off
// and every instrumentation site reduces to one pointer test. The caller
// owns the registry and must keep it alive while installed — and while
// any component that fetched handles from it is still running.
MetricsRegistry* GlobalMetrics();
// Returns the previously installed registry (so scopes can nest).
MetricsRegistry* SetGlobalMetrics(MetricsRegistry* registry);

// Handle fetch against the installed global registry; null when none is
// installed. Instrumentation sites null-check their handles, so a build
// with no registry installed pays only the branch.
Counter* GlobalCounter(std::string_view name, std::string_view help = "",
                       std::string_view labels = "");
Gauge* GlobalGauge(std::string_view name, std::string_view help = "",
                   std::string_view labels = "");
LatencyHistogram* GlobalLatency(std::string_view name,
                                std::string_view help = "",
                                std::string_view labels = "");

// RAII timer: records elapsed nanoseconds into `h` on destruction; inert
// when `h` is null (no clock read at all).
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram* h)
      : h_(h), start_(h == nullptr ? 0 : MonotonicNanos()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    if (h_ != nullptr) h_->Record(MonotonicNanos() - start_);
  }

 private:
  LatencyHistogram* h_;
  uint64_t start_;
};

}  // namespace duplex

#endif  // DUPLEX_UTIL_METRICS_H_
