#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

using duplex::Status;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string duplexd;   // daemon binary
  std::string work_dir;  // scratch for data dirs and logs
  std::string report;    // full JSON report path
};

struct MetricValue {
  double value = 0;
  std::string unit;
  std::string better;  // "lower" or "higher"
  std::string kind;    // "measured" or "modelled"
  std::string detail;  // e.g. which percentile of how many samples
};

// Everything one run found. Refused or failed requests count in
// `failed`; wrong answers count in `failed` and in `wrong`.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> errors;  // first few failures, for the log
  bool invalid = false;  // the generator ran late or a tail had too few samples
  bool aborted = false;  // the run could not finish
  std::map<std::string, MetricValue> end_to_end;
  std::map<std::string, MetricValue> layers;
  std::map<std::string, std::string> info;  // flags, scale, tables (JSON)

  bool correct() const { return wrong == 0 && !invalid && !aborted; }
  void Fail(const std::string& what);
  void Wrong(const std::string& what);
  void Abort(const std::string& what);
  // One attempted operation: `status` is how the request went, and a
  // non-empty `wrong_answer` says what was wrong with its reply.
  void Count(const Status& status, const std::string& wrong_answer = "");
};

// Runs one workload end to end against a freshly started duplexd.
Report RunWorkload(const Options& options);

// The last stdout line: correct/attempted/failed and the metric set the
// trace flag selects.
std::string ResultLine(const Report& report, bool trace);
std::string ReportJson(const Report& report, const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
