// Extension: overhead of the observability layer on the two hot paths it
// instruments — batch apply (core + storage handles cached in component
// constructors) and boolean query evaluation (per-query registry lookups
// + a span). Each phase runs three ways: no registry installed (every
// instrumentation site reduces to one null test), metrics only, and
// metrics + tracing. Acceptance: enabled recording costs < 3% wall-clock;
// the null path is indistinguishable from noise.
//
// The served-mode phase measures the telemetry plane end-to-end: mixed
// boolean/submit traffic over a loopback net::Server, once bare and once
// with the full plane on (registry + tracer + JSON logger + slow-query
// log + an AdminServer being scraped at 1 Hz). Same < 3% budget — the
// admin plane must be free on the request path. Machine-readable output
// goes to BENCH_observability.json.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/inverted_index.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "net/admin_server.h"
#include "net/client.h"
#include "net/server.h"
#include "net/service.h"
#include "sim/pipeline.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/table_writer.h"
#include "util/tracer.h"

namespace {

using namespace duplex;

enum class Mode { kOff, kMetrics, kMetricsAndTrace };

// Runs `body` with the mode's recorders installed; returns wall seconds.
template <typename Fn>
double TimedWithMode(Mode mode, Fn&& body) {
  MetricsRegistry registry;
  Tracer tracer(1 << 16);
  MetricsRegistry* prev_registry = nullptr;
  Tracer* prev_tracer = nullptr;
  if (mode != Mode::kOff) prev_registry = SetGlobalMetrics(&registry);
  if (mode == Mode::kMetricsAndTrace) prev_tracer = SetGlobalTracer(&tracer);
  Stopwatch watch;
  body();
  const double seconds = watch.ElapsedSeconds();
  if (mode != Mode::kOff) SetGlobalMetrics(prev_registry);
  if (mode == Mode::kMetricsAndTrace) SetGlobalTracer(prev_tracer);
  return seconds;
}

// Per-mode wall time with modes interleaved round-robin inside each rep
// so frequency/cache drift lands on every mode equally. The off time is
// the min across reps; the instrumented modes are estimated as
// off_min x median(mode_r / off_r) over the per-rep ratios. The three
// legs of a rep run back-to-back, so a background load burst inflates
// them together and cancels in the ratio, and the median rejects reps
// where a burst straddled only one leg — a plain cross-rep min would
// happily compare a quiet off window against a busy instrumented one.
// One untimed warm-up precedes the measured reps.
template <typename Fn>
std::array<double, 3> MinPerMode(int reps, Fn&& body) {
  std::array<double, 3> best;
  best.fill(1e100);
  std::array<std::vector<double>, 3> ratios;
  body();  // warm-up: faults, allocator growth, branch history
  for (int r = 0; r < reps; ++r) {
    std::array<double, 3> rep;
    for (const Mode mode :
         {Mode::kOff, Mode::kMetrics, Mode::kMetricsAndTrace}) {
      const int m = static_cast<int>(mode);
      rep[m] = TimedWithMode(mode, body);
      best[m] = std::min(best[m], rep[m]);
    }
    if (rep[0] > 0.0) {
      ratios[1].push_back(rep[1] / rep[0]);
      ratios[2].push_back(rep[2] / rep[0]);
    }
  }
  std::array<double, 3> out;
  out[0] = best[0];
  for (int m = 1; m < 3; ++m) {
    std::sort(ratios[m].begin(), ratios[m].end());
    out[m] = best[0] * ratios[m][ratios[m].size() / 2];
  }
  return out;
}

double OverheadPercent(double base, double with) {
  return base <= 0.0 ? 0.0 : 100.0 * (with - base) / base;
}

// --- served mode ------------------------------------------------------------

std::string ServedWord(Rng& rng) {
  return "word" + std::to_string(rng.Uniform(48));
}

std::string ServedDocument(Rng& rng) {
  std::string text;
  for (int w = 0; w < 12; ++w) {
    text += ServedWord(rng);
    text += ' ';
  }
  return text;
}

// One timed run of the served workload: 4 client threads push a 90/10
// boolean/submit mix through a fresh loopback server (index build and
// teardown untimed). With `telemetry`, the full plane is live: registry,
// tracer, async JSON logger, 1 ms slow-query threshold, and an
// AdminServer scraped at 1 Hz while the traffic runs.
double RunServedOnce(bool telemetry) {
  core::IndexOptions total;
  total.buckets.num_buckets = 256;
  total.buckets.bucket_capacity = 128;
  total.policy = core::Policy::RecommendedUpdateOptimized();
  total.block_postings = 32;
  total.disks.num_disks = 2;
  total.disks.blocks_per_disk = 1 << 18;
  total.disks.checksums = true;
  total.materialize = true;
  core::ShardedIndex index(core::ShardedIndexOptions::Partition(total, 2));
  {
    // Enough seed docs that each of the 48 words carries ~1000 postings —
    // queries then do real list work, as served traffic would. The
    // telemetry cost per request is constant (cached metric handles,
    // sampled spans), so a toy corpus would divide that constant by
    // unrealistically little work and overstate the overhead.
    Rng rng(11);
    for (int d = 0; d < 4000; ++d) index.AddDocument(ServedDocument(rng));
    if (!index.FlushDocumentsLogged(nullptr).ok()) std::abort();
  }
  net::ShardedIndexService service(&index, nullptr);

  MetricsRegistry registry;
  Tracer tracer(1 << 16);
  // Declared before the logger so the sink outlives it (the logger's
  // destructor drains into the stream).
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> log_sink(
      std::fopen("/dev/null", "w"), &std::fclose);
  LogOptions log_options;
  log_options.sink = log_sink.get();
  Logger logger(log_options);
  MetricsRegistry* prev_registry = nullptr;
  Tracer* prev_tracer = nullptr;
  Logger* prev_logger = nullptr;
  if (telemetry) {
    prev_registry = SetGlobalMetrics(&registry);
    prev_tracer = SetGlobalTracer(&tracer);
    prev_logger = SetGlobalLog(&logger);
  }

  net::ServerOptions server_options;
  server_options.num_workers = 4;
  // Slow-query logging is rare-event machinery: the threshold must sit
  // above ordinary scheduling jitter or every hiccup takes the full slow
  // path (unsampled spans + ring entry + warn log) and the bench measures
  // that instead of the serving plane. 20 ms keeps the path live but rare,
  // matching how the daemon is run (--slow-query-ms 50 in the README).
  server_options.slow_query_threshold =
      std::chrono::milliseconds(telemetry ? 20 : 0);
  net::Server server(&service, server_options);
  if (!server.Start().ok()) std::abort();

  std::unique_ptr<net::AdminServer> admin;
  std::atomic<bool> scrape_stop{false};
  std::thread scraper;
  if (telemetry) {
    net::AdminServerOptions admin_options;
    admin_options.slow_log = &server.slow_queries();
    admin_options.statusz = [&server] {
      return "{\"depth\": " + std::to_string(server.queue_depth()) + "}\n";
    };
    admin = std::make_unique<net::AdminServer>(admin_options);
    if (!admin->Start().ok()) std::abort();
    // A monitoring scrape is /metrics once a second; /statusz and /slowz
    // are human endpoints hit far less often, modeled here at 1-in-5.
    scraper = std::thread([&admin, &scrape_stop] {
      for (int tick = 0; !scrape_stop.load(); ++tick) {
        (void)net::HttpGet("127.0.0.1", admin->port(), "/metrics");
        if (tick % 5 == 4) {
          (void)net::HttpGet("127.0.0.1", admin->port(), "/statusz");
          (void)net::HttpGet("127.0.0.1", admin->port(), "/slowz");
        }
        for (int i = 0; i < 100 && !scrape_stop.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }

  // Enough requests that the timed window is a few hundred ms — comparable
  // to the scraper's 1 s period, so the one scrape burst that lands inside
  // the window represents roughly the claimed 1 Hz cadence instead of
  // being charged against a few tens of milliseconds of traffic.
  constexpr int kClientThreads = 4;
  constexpr int kRequestsPerThread = 2500;
  static constexpr const char* kQueries[] = {
      "word1 AND word2",  "word3 OR word4",        "word5 AND NOT word6",
      "word7 AND word11", "(word8 OR word9) AND word10"};
  Stopwatch watch;
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([t, port = server.port()] {
      Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
      if (!client.ok()) std::abort();
      Rng rng(100 + t);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        if (rng.Uniform(10) == 0) {
          if (!client->Submit({ServedDocument(rng)}).ok()) std::abort();
        } else {
          if (!client->Boolean(kQueries[rng.Uniform(std::size(kQueries))])
                   .ok()) {
            std::abort();
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds = watch.ElapsedSeconds();

  scrape_stop.store(true);
  if (scraper.joinable()) scraper.join();
  if (admin != nullptr) admin->Stop();
  server.Stop();
  if (telemetry) {
    SetGlobalMetrics(prev_registry);
    SetGlobalTracer(prev_tracer);
    SetGlobalLog(prev_logger);
  }
  return seconds;
}

}  // namespace

int main() {
  // Modes differ by tens of microseconds over ~20-80 ms phases, so the
  // noise floor of a shared machine swamps single runs; many interleaved
  // reps let the per-mode minimum converge.
  constexpr int kApplyReps = 25;
  constexpr int kQueryReps = 15;

  // Phase A: the full incremental batch-apply path (buckets, long lists,
  // allocation) on a count-only index with the accounting cache on, so
  // the core and storage instrumentation sites all fire.
  sim::SimConfig config = bench::BenchConfig();
  config.cache_blocks = 64;
  text::CorpusOptions corpus;
  corpus.num_updates = 16;
  corpus.docs_per_update = 1200;
  corpus.word_universe = 30000;
  corpus.seed = 17;
  const sim::BatchStream stream = sim::GenerateBatches(corpus);
  const core::Policy policy = core::Policy::RecommendedUpdateOptimized();
  auto apply_all = [&config, &stream, &policy] {
    core::InvertedIndex index(config.ToIndexOptions(policy));
    for (const text::BatchUpdate& batch : stream.batches) {
      if (!index.ApplyBatchUpdate(batch).ok()) std::abort();
    }
  };

  // Phase B: boolean query evaluation against a materialized index built
  // from text (string vocabulary), the hottest instrumented path — each
  // query pays two registry lookups, three counter increments, one
  // histogram record, and a span when tracing.
  core::IndexOptions query_options;
  query_options.buckets.num_buckets = 256;
  query_options.buckets.bucket_capacity = 128;
  query_options.policy = policy;
  query_options.block_postings = 32;
  query_options.disks.num_disks = 2;
  query_options.disks.blocks_per_disk = 1 << 18;
  query_options.materialize = true;
  core::InvertedIndex query_index(query_options);
  {
    static constexpr const char* kPool[] = {
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
        "theta", "iota", "kappa", "lambda", "mu", "nu", "xi"};
    Rng rng(3);
    for (int d = 0; d < 600; ++d) {
      std::string text;
      for (int w = 0; w < 20; ++w) {
        text += kPool[rng.Uniform(std::size(kPool))];
        text += ' ';
      }
      query_index.AddDocument(text);
      if (query_index.buffered_documents() >= 64 &&
          !query_index.FlushDocuments().ok()) {
        return 1;
      }
    }
    if (!query_index.FlushDocuments().ok()) return 1;
  }
  std::vector<std::unique_ptr<ir::BooleanQuery>> queries;
  for (const char* text :
       {"alpha AND beta", "gamma OR delta", "epsilon AND NOT zeta",
        "(eta OR theta) AND iota", "kappa lambda", "mu AND NOT nu"}) {
    Result<std::unique_ptr<ir::BooleanQuery>> parsed =
        ir::ParseBooleanQuery(text);
    if (!parsed.ok()) return 1;
    queries.push_back(std::move(*parsed));
  }
  constexpr int kQueryRounds = 3000;
  auto run_queries = [&query_index, &queries] {
    for (int round = 0; round < kQueryRounds; ++round) {
      for (const auto& q : queries) {
        Result<ir::QueryResult> r =
            ir::QueryExecutor(query_index).EvaluateBoolean(*q);
        if (!r.ok()) std::abort();
      }
    }
  };

  struct Phase {
    const char* name;
    std::array<double, 3> seconds{};
  };
  Phase phases[2] = {{"batch apply", {}}, {"boolean queries", {}}};
  phases[0].seconds = MinPerMode(kApplyReps, apply_all);
  std::cerr << "[bench] " << phases[0].name << " done\n";
  phases[1].seconds = MinPerMode(kQueryReps, run_queries);
  std::cerr << "[bench] " << phases[1].name << " done\n";

  // Phase C: served traffic through a real loopback server — the whole
  // telemetry plane at once (phase spans, slow-query log, JSON logger,
  // admin scrapes at 1 Hz) against the same traffic with nothing
  // installed. Interleaved min, same as the micro phases.
  // The served runs are long enough (~0.3 s each) that background load
  // bursts outlive a rep, so a min over independent off/on samples can
  // compare a quiet off window against a busy on window (or vice versa).
  // Instead each on rep runs back-to-back with its off partner — a burst
  // inflates both legs and cancels in the per-pair ratio — and the median
  // ratio rejects the pairs where a burst straddled only one leg.
  constexpr int kServedReps = 8;
  double served_off = 1e100;
  std::vector<double> served_ratios;
  served_ratios.reserve(kServedReps);
  (void)RunServedOnce(false);  // warm-up
  for (int r = 0; r < kServedReps; ++r) {
    const double off = RunServedOnce(false);
    const double on = RunServedOnce(true);
    served_off = std::min(served_off, off);
    if (off > 0.0) served_ratios.push_back(on / off);
  }
  std::cerr << "[bench] served traffic done\n";
  std::sort(served_ratios.begin(), served_ratios.end());
  const double served_ratio = served_ratios[served_ratios.size() / 2];
  const double served_on = served_off * served_ratio;
  const double served_ovh = (served_ratio - 1.0) * 100.0;

  TableWriter table({"phase", "off s", "metrics s", "metrics ovh%",
                     "+trace s", "+trace ovh%"});
  bool within_budget = true;
  for (const Phase& p : phases) {
    const double ovh_metrics = OverheadPercent(p.seconds[0], p.seconds[1]);
    const double ovh_trace = OverheadPercent(p.seconds[0], p.seconds[2]);
    within_budget = within_budget && ovh_trace < 3.0;
    table.Row()
        .Cell(p.name)
        .Cell(p.seconds[0], 4)
        .Cell(p.seconds[1], 4)
        .Cell(ovh_metrics, 2)
        .Cell(p.seconds[2], 4)
        .Cell(ovh_trace, 2);
  }
  // Served mode has no metrics-only middle column: it measures the whole
  // plane (metrics + tracing + logging + scrapes) against nothing.
  within_budget = within_budget && served_ovh < 3.0;
  table.Row()
      .Cell("served traffic")
      .Cell(served_off, 4)
      .Cell("-")
      .Cell("-")
      .Cell(served_on, 4)
      .Cell(served_ovh, 2);
  table.PrintAscii(std::cout,
                   "Extension: observability overhead (min over "
                   "mode-interleaved reps; off = no registry installed)");
  std::cout << "\nBudget: < 3% with metrics + tracing enabled -> "
            << (within_budget ? "within budget" : "EXCEEDED") << "\n";

  std::FILE* json = std::fopen("BENCH_observability.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"ext_observability\",\n");
    std::fprintf(json, "  \"budget_percent\": 3.0,\n");
    std::fprintf(json, "  \"within_budget\": %s,\n",
                 within_budget ? "true" : "false");
    std::fprintf(json, "  \"phases\": [\n");
    for (const Phase& p : phases) {
      std::fprintf(json,
                   "    {\"phase\": \"%s\", \"off_s\": %.6f, "
                   "\"metrics_s\": %.6f, \"metrics_overhead_pct\": %.3f, "
                   "\"trace_s\": %.6f, \"trace_overhead_pct\": %.3f},\n",
                   p.name, p.seconds[0], p.seconds[1],
                   OverheadPercent(p.seconds[0], p.seconds[1]), p.seconds[2],
                   OverheadPercent(p.seconds[0], p.seconds[2]));
    }
    std::fprintf(json,
                 "    {\"phase\": \"served traffic\", \"off_s\": %.6f, "
                 "\"telemetry_s\": %.6f, \"telemetry_overhead_pct\": %.3f}\n",
                 served_off, served_on, served_ovh);
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::cout << "Wrote BENCH_observability.json\n";
  }
  return 0;
}
