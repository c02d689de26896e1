#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <string>
#include <vector>

#include "corpus.h"
#include "util/status.h"
#include "util/tracer.h"
#include "workloads.h"

namespace perfbench {

// The traced run's in-process half: the same daily batches indexed with
// duplexd's index options, and a sample of the workload's queries
// replayed through ir::QueryExecutor over a tracing core::IndexReader
// decorator. Spans are recorded by the benchmark around each public call
// into a layer, kept in memory, and written as Chrome trace_event JSON.
struct ReplayPlan {
  std::vector<Batch> batches;  // indexed in order, one flush per batch
  std::vector<Batch> live;     // submitted live on top (overlay tax)
  std::vector<Query> queries;  // replayed
  std::string scratch_dir;     // checkpoint files
  std::string trace_path;      // Chrome trace output
};

// Medians over the replayed queries, for the self-time table.
struct LayerTimes {
  double eval_us = 0;     // whole QueryExecutor call
  double ir_self_us = 0;  // executor minus its reader calls
};

// Adds the in-process per-layer metrics to `report->layers`.
duplex::Result<LayerTimes> RunReplay(const Corpus& corpus,
                                     const ReplayPlan& plan, Report* report);

// Self time of every span: its duration minus the part of it that its
// direct children cover (children are clipped to the parent and their
// overlaps merged).
struct SpanTimes {
  std::string name;
  uint64_t dur_ns = 0;
  uint64_t self_ns = 0;
};
std::vector<SpanTimes> SelfTimes(const std::vector<duplex::TraceEvent>& events);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
