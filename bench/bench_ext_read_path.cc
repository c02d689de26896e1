// Read-path regression gate: boolean query throughput through the
// ir::QueryExecutor (one evaluator over the virtual core::IndexReader
// seam) versus a local replica of the pre-executor per-index evaluator
// (direct calls on the concrete ShardedIndex, the devirtualized shape
// the old EvaluateBoolean overloads compiled to). The refactor's budget
// is <2% throughput loss, judged on the median of the per-pair
// executor/direct time ratios over interleaved slices; this bench exits 1
// when the gate fails, so ci.sh can run it as a smoke test.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/tracer.h"

namespace {

using namespace duplex;

// --- The old overload path, replicated ------------------------------------
// Identical control flow and instrumentation to the pre-executor
// evaluator: metric handles re-fetched on registry change, 1-in-64
// sampled span, costs accumulated inline — but every Locate/GetPostings
// is a direct call on the concrete index type.

struct DirectCost {
  uint64_t read_ops = 0;
  uint64_t cached_read_ops = 0;
  uint64_t postings_read = 0;
  uint64_t missing_terms = 0;
};

Status EvalNodeDirect(const core::ShardedIndex& index,
                      const ir::BooleanQuery& node, DirectCost* cost,
                      std::vector<DocId>* out) {
  switch (node.kind) {
    case ir::BooleanQuery::Kind::kTerm: {
      const core::ListLocation loc = index.Locate(node.term);
      if (!loc.exists) {
        ++cost->missing_terms;
        out->clear();
        return Status::OK();
      }
      cost->read_ops += loc.chunks;
      cost->cached_read_ops += loc.cached_chunks;
      cost->postings_read += loc.postings;
      Result<std::vector<DocId>> docs = index.GetPostings(node.term);
      if (!docs.ok()) return docs.status();
      *out = std::move(*docs);
      return Status::OK();
    }
    case ir::BooleanQuery::Kind::kAnd:
    case ir::BooleanQuery::Kind::kOr:
    case ir::BooleanQuery::Kind::kAndNot: {
      std::vector<DocId> left;
      std::vector<DocId> right;
      if (Status s = EvalNodeDirect(index, *node.left, cost, &left); !s.ok())
        return s;
      if (Status s = EvalNodeDirect(index, *node.right, cost, &right);
          !s.ok())
        return s;
      if (node.kind == ir::BooleanQuery::Kind::kAnd) {
        *out = ir::Intersect(left, right);
      } else if (node.kind == ir::BooleanQuery::Kind::kOr) {
        *out = ir::Union(left, right);
      } else {
        *out = ir::Difference(left, right);
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Result<ir::QueryResult> EvaluateDirect(const core::ShardedIndex& index,
                                       const ir::BooleanQuery& query) {
  static thread_local uint32_t span_tick = 0;
  MetricsRegistry* reg = GlobalMetrics();
  LatencyHistogram* query_ns =
      reg != nullptr ? reg->GetHistogram("duplex_ir_query_ns", "") : nullptr;
  ScopedLatency timer(query_ns);
  Span span;
  if (span_tick++ % 64 == 0) span = TraceSpan("ir.query");
  DirectCost cost;
  ir::QueryResult result;
  if (Status s = EvalNodeDirect(index, query, &cost, &result.docs); !s.ok())
    return s;
  result.read_ops = cost.read_ops;
  result.cached_read_ops = cost.cached_read_ops;
  result.postings_read = cost.postings_read;
  result.missing_terms = cost.missing_terms;
  return result;
}

// --- Fixture ---------------------------------------------------------------

std::unique_ptr<core::ShardedIndex> BuildIndex() {
  core::IndexOptions options;
  options.buckets.num_buckets = 256;
  options.buckets.bucket_capacity = 128;
  options.policy = core::Policy::RecommendedQueryOptimized();
  options.block_postings = 64;
  options.disks.num_disks = 2;
  options.disks.blocks_per_disk = 1 << 18;
  options.materialize = true;
  auto index = std::make_unique<core::ShardedIndex>(
      core::ShardedIndexOptions::Partition(options, 1));

  static constexpr const char* kPool[] = {
      "alpha", "beta",  "gamma",   "delta", "epsilon", "zeta",
      "eta",   "theta", "iota",    "kappa", "lambda",  "mu",
      "nu",    "xi",    "omicron", "pi",    "rho",     "sigma",
      "tau",   "upsilon"};
  Rng rng(17);
  for (int d = 0; d < 1200; ++d) {
    std::string text;
    for (int w = 0; w < 12; ++w) {
      text += kPool[rng.Uniform(1 + rng.Uniform(std::size(kPool)))];
      text += ' ';
    }
    index->AddDocument(text);
    if (index->buffered_documents() >= 200) {
      if (!index->FlushDocuments().ok()) std::abort();
    }
  }
  if (!index->FlushDocuments().ok()) std::abort();
  return index;
}

std::vector<std::unique_ptr<ir::BooleanQuery>> BuildQueries() {
  const std::vector<std::string> texts = {
      "alpha AND beta",
      "(gamma OR delta) AND NOT alpha",
      "epsilon OR zeta OR eta",
      "alpha AND NOT (beta OR gamma)",
      "(alpha OR beta) AND (gamma OR delta) AND NOT epsilon",
      "theta iota kappa",
      "rho OR missingterm",
      "pi AND sigma",
  };
  std::vector<std::unique_ptr<ir::BooleanQuery>> queries;
  for (const std::string& t : texts) {
    Result<std::unique_ptr<ir::BooleanQuery>> q = ir::ParseBooleanQuery(t);
    if (!q.ok()) std::abort();
    queries.push_back(std::move(*q));
  }
  return queries;
}

}  // namespace

int main() {
  const std::unique_ptr<core::ShardedIndex> index = BuildIndex();
  const std::vector<std::unique_ptr<ir::BooleanQuery>> queries =
      BuildQueries();
  const ir::QueryExecutor executor(*index);

  const uint64_t slice_iters =
      bench::EnvOr("DUPLEX_BENCH_READPATH_ITERS", 25);
  const uint64_t kSlices = std::max<uint64_t>(
      1, bench::EnvOr("DUPLEX_BENCH_READPATH_SLICES", 80));

  uint64_t checksum_direct = 0;
  uint64_t checksum_executor = 0;
  auto run_direct = [&] {
    for (uint64_t i = 0; i < slice_iters; ++i) {
      for (const auto& q : queries) {
        Result<ir::QueryResult> r = EvaluateDirect(*index, *q);
        if (!r.ok()) std::abort();
        checksum_direct += r->docs.size();
      }
    }
  };
  auto run_executor = [&] {
    for (uint64_t i = 0; i < slice_iters; ++i) {
      for (const auto& q : queries) {
        Result<ir::QueryResult> r = executor.EvaluateBoolean(*q);
        if (!r.ok()) std::abort();
        checksum_executor += r->docs.size();
      }
    }
  };

  // Paired short slices, alternating which path runs first: clock-speed
  // drift and noisy neighbours land on both halves of a pair almost
  // equally. The gate reads the median of the per-pair time ratios, so a
  // few slices hit by a stall cannot swing it the way they swing a sum.
  run_direct();
  run_executor();
  double total_direct = 0;
  double total_executor = 0;
  std::vector<double> ratios;  // executor / direct seconds, one per pair
  ratios.reserve(kSlices);
  for (uint64_t s = 0; s < kSlices; ++s) {
    double seconds[2] = {0, 0};
    for (const int path : {static_cast<int>(s % 2), 1 - static_cast<int>(s % 2)}) {
      Stopwatch w;
      if (path == 0) {
        run_direct();
      } else {
        run_executor();
      }
      seconds[path] = w.ElapsedSeconds();
    }
    total_direct += seconds[0];
    total_executor += seconds[1];
    ratios.push_back(seconds[1] / seconds[0]);
  }
  if (checksum_direct != checksum_executor) {
    std::cerr << "FAIL: result divergence between paths (" << checksum_direct
              << " vs " << checksum_executor << " docs)\n";
    return 1;
  }

  const double total_queries = static_cast<double>(slice_iters) *
                               static_cast<double>(kSlices) *
                               static_cast<double>(queries.size());
  const double direct_qps = total_queries / total_direct;
  const double executor_qps = total_queries / total_executor;
  std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                   ratios.end());
  const double regression = ratios[ratios.size() / 2] - 1.0;
  std::cout << "read-path throughput: direct " << direct_qps / 1e6
            << " Mq/s, executor " << executor_qps / 1e6
            << " Mq/s, median pair delta " << regression * 100.0 << "%\n";
  if (regression > 0.02) {
    std::cerr << "FAIL: QueryExecutor path is " << regression * 100.0
              << "% slower than the direct overload path in the median "
                 "pair (budget 2%)\n";
    return 1;
  }
  std::cout << "PASS: within the 2% regression budget\n";
  return 0;
}
