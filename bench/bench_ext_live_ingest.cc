// Extension: the immediate-visibility ingest tier under a sustained live
// stream. Measures (a) ingest-to-visible latency — the SubmitLive call
// itself, since the ack IS visibility (WordId assignment + WAL append +
// delta insert) — as p50/p99/max over a few thousand single-document
// submits with a background-style drain cadence, and (b) the query-side
// cost of the delta overlay: the same boolean workload evaluated through
// the bare disk reader, through the merged view with an EMPTY delta (the
// steady-state overlay tax), and through the merged view with a populated
// undrained delta. Machine-readable output goes to BENCH_live_ingest.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/batch_log.h"
#include "core/live_index.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "util/table_writer.h"

namespace {

using duplex::bench::EnvOr;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Zipf-flavored document text over a closed vocabulary, deterministic.
std::string MakeDoc(std::mt19937* rng, uint32_t vocab, uint32_t words) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::string doc;
  for (uint32_t w = 0; w < words; ++w) {
    const double r = uniform(*rng);
    const uint32_t word = static_cast<uint32_t>(r * r * vocab);
    if (!doc.empty()) doc.push_back(' ');
    doc += "w" + std::to_string(word);
  }
  return doc;
}

struct Quantiles {
  double p50_us = 0, p99_us = 0, max_us = 0;
};

Quantiles Summarize(std::vector<uint64_t> ns) {
  Quantiles q;
  if (ns.empty()) return q;
  std::sort(ns.begin(), ns.end());
  q.p50_us = static_cast<double>(ns[ns.size() / 2]) / 1e3;
  q.p99_us = static_cast<double>(ns[(ns.size() * 99) / 100]) / 1e3;
  q.max_us = static_cast<double>(ns.back()) / 1e3;
  return q;
}

}  // namespace

int main() {
  using namespace duplex;

  const uint32_t kVocab = 2000;
  const uint32_t kBaseDocs =
      static_cast<uint32_t>(EnvOr("DUPLEX_BENCH_DOCS", 2000));
  const uint32_t kLiveSubmits =
      static_cast<uint32_t>(EnvOr("DUPLEX_BENCH_LIVE_SUBMITS", 2000));
  const uint32_t kDrainEvery = 100;   // drain cadence, in submits
  const uint32_t kQueryReps = 2000;   // per overlay mode
  const uint32_t kOverlayDocs = 100;  // undrained depth for the hot mode

  core::ShardedIndexOptions options;
  options.num_shards = 4;
  options.shard.policy = core::Policy::NewZ();
  options.shard.materialize = true;

  const std::string wal_path = "/tmp/duplex_bench_live_ingest.wal";
  std::remove(wal_path.c_str());
  Result<std::unique_ptr<core::BatchLog>> wal =
      core::BatchLog::Open(wal_path);
  if (!wal.ok()) {
    std::cerr << "[bench] cannot open WAL: " << wal.status() << "\n";
    return 1;
  }
  (*wal)->set_fsync(false);  // measure the index, not the fs barrier

  core::ShardedIndex index(options);
  core::LiveIndex live(&index, wal->get());

  // Base corpus through the batch path, fully drained.
  std::mt19937 rng(4242);
  {
    Stopwatch watch;
    std::vector<std::string> base;
    base.reserve(kBaseDocs);
    for (uint32_t i = 0; i < kBaseDocs; ++i) {
      base.push_back(MakeDoc(&rng, kVocab, 12));
    }
    if (!live.SubmitBatch(base).ok() || !live.DrainAll().ok()) return 1;
    std::cerr << "[bench] base corpus of " << kBaseDocs << " docs in "
              << watch.ElapsedSeconds() << "s\n";
  }

  // Phase 1: ingest-to-visible. The ack is the visibility point, so the
  // SubmitLive wall-clock IS the metric; a periodic drain keeps the run
  // at the steady-state delta depth a background drainer would hold.
  std::vector<uint64_t> submit_ns;
  std::vector<uint64_t> drain_ns;
  submit_ns.reserve(kLiveSubmits);
  {
    Stopwatch watch;
    for (uint32_t i = 0; i < kLiveSubmits; ++i) {
      const std::string doc = MakeDoc(&rng, kVocab, 12);
      const uint64_t start = NowNs();
      Result<core::LiveIndex::SubmitReceipt> receipt =
          live.SubmitLive({doc});
      submit_ns.push_back(NowNs() - start);
      if (!receipt.ok()) {
        std::cerr << "[bench] submit failed: " << receipt.status() << "\n";
        return 1;
      }
      if ((i + 1) % kDrainEvery == 0) {
        const uint64_t dstart = NowNs();
        if (!live.DrainOnce().ok()) return 1;
        drain_ns.push_back(NowNs() - dstart);
      }
    }
    if (!live.DrainAll().ok()) return 1;
    std::cerr << "[bench] " << kLiveSubmits << " live submits in "
              << watch.ElapsedSeconds() << "s\n";
  }
  const Quantiles ingest = Summarize(submit_ns);
  const Quantiles drain = Summarize(drain_ns);

  // Phase 2: overlay query overhead. Same query sequence in all three
  // modes (fixed seed): bare disk reader, merged view with the delta
  // empty, merged view with kOverlayDocs undrained documents.
  const auto run_queries = [&](bool overlay) {
    std::mt19937 qrng(777);
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    uint64_t total = 0, answered = 0;
    for (uint32_t q = 0; q < kQueryReps; ++q) {
      const double r1 = uniform(qrng), r2 = uniform(qrng);
      const std::string query =
          "w" + std::to_string(static_cast<uint32_t>(r1 * r1 * kVocab)) +
          " AND w" +
          std::to_string(static_cast<uint32_t>(r2 * r2 * kVocab));
      const uint64_t start = NowNs();
      if (overlay) {
        core::LiveIndex::ReadView view = live.AcquireView();
        ir::QueryExecutor exec(view.reader());
        if (exec.EvaluateBoolean(query).ok()) ++answered;
      } else {
        ir::QueryExecutor exec(index);
        if (exec.EvaluateBoolean(query).ok()) ++answered;
      }
      total += NowNs() - start;
    }
    if (answered != kQueryReps) {
      std::cerr << "[bench] " << (kQueryReps - answered)
                << " queries failed\n";
    }
    return static_cast<double>(total) / kQueryReps / 1e3;  // us/query
  };

  const double direct_us = run_queries(/*overlay=*/false);
  const double overlay_empty_us = run_queries(/*overlay=*/true);
  for (uint32_t i = 0; i < kOverlayDocs; ++i) {
    if (!live.SubmitLive({MakeDoc(&rng, kVocab, 12)}).ok()) return 1;
  }
  const double overlay_live_us = run_queries(/*overlay=*/true);
  if (!live.DrainAll().ok()) return 1;

  const double empty_overhead_pct =
      (overlay_empty_us - direct_us) / direct_us * 100.0;
  const double live_overhead_pct =
      (overlay_live_us - direct_us) / direct_us * 100.0;

  TableWriter table({"metric", "p50 us", "p99 us", "max us"});
  table.Row()
      .Cell("ingest-to-visible")
      .Cell(ingest.p50_us, 1)
      .Cell(ingest.p99_us, 1)
      .Cell(ingest.max_us, 1);
  table.Row()
      .Cell("drain round")
      .Cell(drain.p50_us, 1)
      .Cell(drain.p99_us, 1)
      .Cell(drain.max_us, 1);
  table.PrintAscii(std::cout,
                   "Extension: live ingest tier (" +
                       std::to_string(kLiveSubmits) + " submits, drain every " +
                       std::to_string(kDrainEvery) + ")");
  std::cout << "\nOverlay query cost (mean us/query over "
            << kQueryReps << " AND-queries):\n"
            << "  bare disk reader      " << direct_us << "\n"
            << "  merged, delta empty   " << overlay_empty_us << "  ("
            << empty_overhead_pct << "% overhead)\n"
            << "  merged, " << kOverlayDocs << " undrained  "
            << overlay_live_us << "  (" << live_overhead_pct
            << "% overhead)\n";

  std::FILE* json = std::fopen("BENCH_live_ingest.json", "w");
  if (json == nullptr) {
    std::cerr << "[bench] cannot write BENCH_live_ingest.json\n";
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"ext_live_ingest\",\n");
  std::fprintf(json,
               "  \"workload\": {\"base_docs\": %u, \"live_submits\": %u, "
               "\"drain_every\": %u, \"vocab\": %u},\n",
               kBaseDocs, kLiveSubmits, kDrainEvery, kVocab);
  std::fprintf(json,
               "  \"ingest_to_visible_us\": {\"p50\": %.2f, \"p99\": %.2f, "
               "\"max\": %.2f},\n",
               ingest.p50_us, ingest.p99_us, ingest.max_us);
  std::fprintf(json,
               "  \"drain_round_us\": {\"p50\": %.2f, \"p99\": %.2f, "
               "\"max\": %.2f, \"rounds\": %zu},\n",
               drain.p50_us, drain.p99_us, drain.max_us, drain_ns.size());
  std::fprintf(json,
               "  \"overlay_query_us\": {\"direct\": %.3f, "
               "\"merged_empty\": %.3f, \"merged_live\": %.3f, "
               "\"empty_overhead_pct\": %.2f, \"live_overhead_pct\": "
               "%.2f, \"queries\": %u, \"undrained_docs\": %u}\n",
               direct_us, overlay_empty_us, overlay_live_us,
               empty_overhead_pct, live_overhead_pct, kQueryReps,
               kOverlayDocs);
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::cerr << "[bench] wrote BENCH_live_ingest.json\n";
  std::remove(wal_path.c_str());
  return 0;
}
