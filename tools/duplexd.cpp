// duplexd — the duplex index as a network service: a word-partitioned
// ShardedIndex behind the length-prefixed TCP protocol in net/frame.h,
// served by a fixed worker pool with explicit backpressure (full queues
// answer BUSY, garbage frames answer GoAway). Queries fan out under
// per-shard shared locks, so submit-documents batches applying on one
// shard never block reads on another — the paper's 24x7 incremental-
// update story, carried over a socket.
//
//   duplexd [--port N] [--shards N] [--workers N] [--queue N]
//           [--wal PATH] [--checkpoint PREFIX] [--checkpoint-interval MS]
//           [--compact-interval MS] [--admin-port N] [--slow-query-ms N]
//           [--live-ingest] [--drain-interval-ms MS] [--delta-cap-docs N]
//           [--log-level LEVEL] [file-or-dir]...
//
// Every request goes through one core::LiveIndex: batch submits apply
// through its WAL commit path, and queries read its delta + disk overlay
// (the disk index alone while the delta is empty). --live-ingest accepts
// kSubmitLive: those documents are durable + queryable at the ack, and a
// background drainer batches the delta into the shards every
// --drain-interval-ms. Without it, kSubmitLive answers Unimplemented.
// --delta-cap-docs bounds the undrained memtable; past it, live submits
// answer typed BUSY (kResourceExhausted) that clients retry with backoff.
//
// Input files are indexed before the listener opens. --port 0 (default)
// binds an ephemeral port; the chosen port is printed as
// "duplexd listening on port N" (stdout, flushed) for scripts to parse.
// SIGINT/SIGTERM shut down cleanly: stop accepting, drain admitted
// requests, stop background compaction, drain the delta through the WAL,
// exit 0.
//
// With --wal the index is recovered at startup; with --checkpoint too,
// recovery goes through core::Checkpointer (last durable checkpoint +
// WAL tail instead of full history), checkpoints repeat every
// --checkpoint-interval, and the drain path ends with a final checkpoint
// so a clean shutdown restarts with zero WAL replay. The format is the one
// `duplexctl build <prefix>` writes, so --checkpoint <prefix> serves an
// offline build, and duplexctl's query/stats/scrub/compact read what this
// daemon leaves at the default --shards.
//
// --admin-port opens the telemetry plane (net::AdminServer) BEFORE
// recovery starts, so /readyz narrates the startup ladder (503 + stage)
// and flips to 200 only once the request listener serves; it prints
// "duplexd admin listening on port N" on stdout. --slow-query-ms feeds
// the /slowz ring; --log-level selects the JSON-lines stderr log.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/live_index.h"
#include "core/sharded_index.h"
#include "net/admin_server.h"
#include "net/server.h"
#include "net/service.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/tracer.h"

namespace {

namespace fs = std::filesystem;
using namespace duplex;

std::atomic<bool> g_shutdown{false};

void HandleShutdownSignal(int) { g_shutdown.store(true); }

struct DaemonFlags {
  uint16_t port = 0;
  uint32_t shards = core::kServingShards;
  uint32_t workers = 4;
  uint32_t queue = 1024;
  std::string wal;
  std::string checkpoint;              // prefix; empty = no checkpoints
  uint32_t checkpoint_interval_ms = 0;  // 0 = only on shutdown
  uint32_t compact_interval_ms = 0;  // 0 = no background compaction
  int admin_port = -1;       // -1 = no admin plane; 0 = ephemeral
  uint32_t slow_query_ms = 0;  // 0 = slow-query log off
  bool live_ingest = false;
  uint32_t drain_interval_ms = 50;
  uint32_t delta_cap_docs = 100000;  // 0 = unbounded
  LogLevel log_level = LogLevel::kInfo;
  // Test hooks: artificially extend the recovery and drain windows so
  // integration tests can observe /readyz mid-transition.
  uint32_t test_recovery_delay_ms = 0;
  uint32_t test_drain_delay_ms = 0;
  std::vector<std::string> inputs;
};

// Startup inputs take the same path as a kSubmitDocuments batch: one
// logged batch per 64 files.
int IndexInputs(core::LiveIndex& live,
                const std::vector<std::string>& inputs) {
  std::vector<fs::path> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(input)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.emplace_back(input);
    } else {
      std::cerr << "skipping " << input << " (not a file or directory)\n";
    }
  }
  std::sort(files.begin(), files.end());
  size_t indexed = 0;
  std::vector<std::string> batch;
  const auto submit = [&] {
    if (batch.empty()) return true;
    Result<core::LiveIndex::SubmitReceipt> done = live.SubmitBatch(batch);
    if (!done.ok()) {
      std::cerr << "flush failed: " << done.status() << "\n";
      return false;
    }
    batch.clear();
    return true;
  };
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot read " << file << ", skipping\n";
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    batch.push_back(text.str());
    ++indexed;
    if (batch.size() >= 64 && !submit()) return 1;
  }
  if (!submit()) return 1;
  if (indexed > 0) {
    std::cerr << "indexed " << indexed << " documents at startup\n";
  }
  return 0;
}

// /statusz assembly: everything the daemon can observe without racing the
// data plane. `serving` gates the index/WAL reads — before the request
// listener is up, recovery is still mutating both from the main thread,
// so the admin plane reports only lifecycle data until then. Once
// serving, WAL state is read under the LiveIndex's locks (GetWalStatus)
// and checkpoint state from the daemon's atomics. `delta` is null without
// --live-ingest.
struct StatusState {
  uint64_t start_ns = 0;
  uint32_t shards = 0;
  std::atomic<bool> serving{false};
  std::atomic<uint64_t> last_ckpt_seq{0};
  std::atomic<uint64_t> last_ckpt_epoch{0};
  std::atomic<uint64_t> last_ckpt_ns{0};  // MonotonicNanos; 0 = never
};

std::string BuildStatusz(const StatusState& state, net::Readiness& readiness,
                         core::LiveIndex& live, net::Server& server,
                         bool live_ingest) {
  const uint64_t now_ns = MonotonicNanos();
  std::ostringstream os;
  os << "{\n";
  os << "  \"uptime_s\": " << (now_ns - state.start_ns) / 1000000000 << ",\n";
  os << "  \"ready\": " << (readiness.ready() ? "true" : "false") << ",\n";
  os << "  \"stage\": \"" << JsonEscapeString(readiness.stage()) << "\",\n";
  os << "  \"shards\": " << state.shards << ",\n";
  const bool serving = state.serving.load(std::memory_order_acquire);
  os << "  \"queue\": {\"depth\": " << (serving ? server.queue_depth() : 0)
     << ", \"capacity\": " << server.queue_capacity() << "},\n";
  os << "  \"connections\": " << (serving ? server.open_connections() : 0)
     << ",\n";
  os << "  \"requests\": {\"handled\": " << server.requests_handled()
     << ", \"rejected\": " << server.requests_rejected() << "},\n";
  os << "  \"slow_queries\": " << server.slow_queries().total_recorded()
     << ",\n";
  if (serving) {
    const core::LiveIndex::WalStatus wal = live.GetWalStatus();
    os << "  \"wal\": {\"attached\": " << (wal.attached ? "true" : "false")
       << ", \"tail_batches\": " << wal.tail_batches
       << ", \"base_epoch\": " << wal.base_epoch
       << ", \"next_id\": " << wal.next_id << "},\n";
    const core::CompactionStats compaction =
        live.index()->compaction_totals();
    os << "  \"compaction\": {\"rounds\": " << compaction.rounds
       << ", \"lists_compacted\": " << compaction.lists_compacted
       << ", \"postings_rewritten\": " << compaction.postings_rewritten
       << "},\n";
    if (live_ingest) {
      const core::LiveIndex::DeltaStatus delta = live.GetDeltaStatus();
      os << "  \"delta\": {\"epoch\": " << delta.epoch
         << ", \"active_docs\": " << delta.active_docs
         << ", \"draining_docs\": " << delta.draining_docs
         << ", \"postings\": " << delta.postings
         << ", \"drain_rounds\": " << delta.drain_rounds
         << ", \"last_drain_ns\": " << delta.last_drain_ns
         << ", \"busy_rejections\": " << delta.busy_rejections
         << ", \"oldest_age_ms\": " << delta.oldest_age_ms
         << ", \"drainer_running\": "
         << (delta.drainer_running ? "true" : "false")
         << ", \"drain_status\": \""
         << JsonEscapeString(delta.drain_status.ok()
                                 ? "ok"
                                 : delta.drain_status.message())
         << "\"},\n";
    } else {
      os << "  \"delta\": null,\n";
    }
  } else {
    os << "  \"wal\": null,\n  \"compaction\": null,\n  \"delta\": null,\n";
  }
  const uint64_t ckpt_ns = state.last_ckpt_ns.load(std::memory_order_relaxed);
  if (ckpt_ns != 0) {
    os << "  \"checkpoint\": {\"last_seq\": "
       << state.last_ckpt_seq.load(std::memory_order_relaxed)
       << ", \"last_epoch\": "
       << state.last_ckpt_epoch.load(std::memory_order_relaxed)
       << ", \"age_s\": " << (now_ns - ckpt_ns) / 1000000000 << "}\n";
  } else {
    os << "  \"checkpoint\": null\n";
  }
  os << "}\n";
  return os.str();
}

int Run(const DaemonFlags& flags) {
  // Logger first (everything below logs through it), then registry and
  // tracer; all three outlive every component that fetches handles.
  LogOptions log_options;
  log_options.min_level = flags.log_level;
  Logger logger(log_options);
  SetGlobalLog(&logger);
  MetricsRegistry registry;
  Tracer tracer;
  SetGlobalMetrics(&registry);
  SetGlobalTracer(&tracer);

  StatusState status_state;
  status_state.start_ns = MonotonicNanos();
  status_state.shards = flags.shards;

  core::ShardedIndex index(core::ShardedIndexOptions::Partition(
      core::ServingIndexOptions(), flags.shards));

  // The WAL opens before the admin plane so a bad --wal path fails fast;
  // the open itself is cheap — the slow part (recovery) comes after the
  // admin plane is up and can narrate it.
  std::unique_ptr<core::BatchLog> wal;
  if (!flags.wal.empty()) {
    Result<std::unique_ptr<core::BatchLog>> opened =
        core::BatchLog::Open(flags.wal);
    if (!opened.ok()) {
      std::cerr << "cannot open WAL " << flags.wal << ": "
                << opened.status() << "\n";
      return 1;
    }
    wal = std::move(*opened);
  }

  // The service's LiveIndex is constructed up front (the doc-id counter
  // lives in the ShardedIndex, so an idle LiveIndex is inert during
  // recovery); its drainer starts only once the daemon serves.
  std::optional<core::LiveIndex::Options> live_ingest;
  if (flags.live_ingest) {
    live_ingest.emplace();
    live_ingest->delta_cap_docs = flags.delta_cap_docs;
    live_ingest->drain_interval =
        std::chrono::milliseconds(flags.drain_interval_ms);
  }
  net::ShardedIndexService service(&index, wal.get(), live_ingest);
  core::LiveIndex& live = service.live();
  net::ServerOptions options;
  options.port = flags.port;
  options.num_workers = flags.workers;
  options.global_queue = flags.queue;
  options.slow_query_threshold =
      std::chrono::milliseconds(flags.slow_query_ms);
  net::Server server(&service, options);

  // Telemetry plane: starts BEFORE recovery so /readyz reports the
  // startup ladder while it runs, answers 503 until serving.
  net::Readiness readiness;
  net::AdminServerOptions admin_options;
  admin_options.port = static_cast<uint16_t>(
      flags.admin_port < 0 ? 0 : flags.admin_port);
  admin_options.readiness = &readiness;
  admin_options.slow_log = &server.slow_queries();
  admin_options.statusz = [&] {
    return BuildStatusz(status_state, readiness, live, server,
                        flags.live_ingest);
  };
  net::AdminServer admin(admin_options);
  // Catch shutdown signals before anything is externally reachable: once
  // the admin port is announced, an orchestrator may SIGTERM at any
  // moment, and the default action would kill the process mid-startup
  // instead of letting it drain. A signal during startup is honored
  // right after the serving loop is entered.
  std::signal(SIGINT, HandleShutdownSignal);
  std::signal(SIGTERM, HandleShutdownSignal);
  if (flags.admin_port >= 0) {
    if (Status s = admin.Start(); !s.ok()) {
      std::cerr << "cannot start admin server: " << s << "\n";
      return 1;
    }
    std::cout << "duplexd admin listening on port " << admin.port()
              << std::endl;
  }

  // Recover whatever the WAL (and checkpoints, when configured) hold
  // before indexing new inputs or serving traffic.
  std::unique_ptr<core::Checkpointer> checkpointer;
  if (!flags.checkpoint.empty()) {
    core::CheckpointOptions ckpt_options;
    ckpt_options.prefix = flags.checkpoint;
    checkpointer = std::make_unique<core::Checkpointer>(ckpt_options);
  }
  readiness.SetStage("recovering");
  if (flags.test_recovery_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.test_recovery_delay_ms));
  }
  if (checkpointer != nullptr) {
    Result<core::RecoveryInfo> recovered =
        checkpointer->Recover(&index, wal.get());
    if (!recovered.ok()) {
      std::cerr << "recovery failed: " << recovered.status() << "\n";
      return 1;
    }
    LogInfo("duplexd.recovered")
        .Str("mode", core::RecoveryModeName(recovered->mode))
        .U64("batches_replayed", recovered->batches_replayed)
        .Str("detail", recovered->detail);
    std::cerr << "recovered (" << core::RecoveryModeName(recovered->mode)
              << "): " << recovered->batches_replayed
              << " WAL batches replayed; " << recovered->detail << "\n";
  } else if (wal != nullptr) {
    // No checkpointing configured: the only recovery path is replaying
    // the full history into the fresh index. A WAL some checkpoint
    // truncated no longer holds it; ReplayLogged refuses it typed rather
    // than serve an index missing every batch that checkpoint covers.
    Result<uint64_t> replayed = index.ReplayLogged(wal.get(), 0);
    if (!replayed.ok()) {
      std::cerr << "WAL replay failed: " << replayed.status() << "\n";
      return 1;
    }
    if (*replayed > 0) {
      LogInfo("duplexd.recovered")
          .Str("mode", "full-rebuild")
          .U64("batches_replayed", *replayed);
      std::cerr << "recovered (full-rebuild): " << *replayed
                << " WAL batches replayed\n";
    }
  }

  readiness.SetStage("indexing startup inputs");
  if (int rc = IndexInputs(live, flags.inputs); rc != 0) {
    return rc;
  }

  if (flags.compact_interval_ms > 0) {
    index.StartBackgroundCompaction(
        std::chrono::milliseconds(flags.compact_interval_ms));
  }

  readiness.SetStage("starting listener");
  if (Status s = server.Start(); !s.ok()) {
    std::cerr << "cannot start server: " << s << "\n";
    return 1;
  }
  status_state.serving.store(true, std::memory_order_release);
  if (flags.live_ingest) {
    live.StartDrainer();
    LogInfo("duplexd.live_ingest")
        .U64("drain_interval_ms", flags.drain_interval_ms)
        .U64("delta_cap_docs", flags.delta_cap_docs);
    std::cerr << "live ingest enabled (drain every "
              << flags.drain_interval_ms << "ms, delta cap "
              << flags.delta_cap_docs << " docs)\n";
  }
  readiness.SetReady();
  // Scripts parse this line for the ephemeral port; keep the format
  // stable and flush before blocking.
  std::cout << "duplexd listening on port " << server.port() << std::endl;

  // Periodic background checkpointing: each round trims the WAL to the
  // tail, keeping restart cost flat no matter how long the daemon runs.
  // Checkpoints go through the LiveIndex so they exclude concurrent
  // submits — the BatchLog itself is unsynchronized.
  std::atomic<bool> checkpoint_stop{false};
  std::thread checkpoint_thread;
  if (checkpointer != nullptr && flags.checkpoint_interval_ms > 0) {
    checkpoint_thread = std::thread([&] {
      const auto interval =
          std::chrono::milliseconds(flags.checkpoint_interval_ms);
      auto next_round = std::chrono::steady_clock::now() + interval;
      while (!checkpoint_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (std::chrono::steady_clock::now() < next_round) continue;
        next_round = std::chrono::steady_clock::now() + interval;
        Result<core::CheckpointInfo> done =
            live.CheckpointNow(checkpointer.get());
        if (!done.ok()) {
          LogError("duplexd.checkpoint_failed")
              .Str("error", done.status().message());
          std::cerr << "background checkpoint failed: " << done.status()
                    << "\n";
        } else {
          status_state.last_ckpt_seq.store(done->install_seq,
                                           std::memory_order_relaxed);
          status_state.last_ckpt_epoch.store(done->wal_epoch,
                                             std::memory_order_relaxed);
          status_state.last_ckpt_ns.store(MonotonicNanos(),
                                          std::memory_order_relaxed);
          LogInfo("duplexd.checkpoint")
              .U64("install_seq", done->install_seq)
              .U64("wal_epoch", done->wal_epoch)
              .U64("payload_bytes", done->payload_bytes);
          std::cerr << "checkpoint " << done->install_seq << " installed "
                    << "(epoch " << done->wal_epoch << ", "
                    << done->payload_bytes << "B)\n";
        }
      }
    });
  }

  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // Drain: flip /readyz to 503 FIRST so load balancers stop routing,
  // then take the listener down and finish admitted work. The admin
  // plane itself stops last — it narrates the whole drain.
  readiness.SetDraining();
  LogInfo("duplexd.draining");
  std::cerr << "shutting down: draining requests\n";
  if (flags.test_drain_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.test_drain_delay_ms));
  }
  server.Stop();
  index.StopBackgroundCompaction();
  live.StopDrainer();
  checkpoint_stop.store(true);
  if (checkpoint_thread.joinable()) checkpoint_thread.join();
  if (Status s = service.Flush(); !s.ok()) {
    std::cerr << "flush on shutdown failed: " << s << "\n";
    return 1;
  }
  // Final checkpoint after the flush: a clean shutdown leaves the WAL
  // tail empty, so the next start restores the checkpoint and replays
  // nothing.
  if (checkpointer != nullptr) {
    Result<core::CheckpointInfo> done =
        live.CheckpointNow(checkpointer.get());
    if (!done.ok()) {
      std::cerr << "shutdown checkpoint failed: " << done.status() << "\n";
    } else {
      std::cerr << "shutdown checkpoint " << done->install_seq
                << " installed (epoch " << done->wal_epoch << ")\n";
    }
  }
  std::cerr << "served " << server.requests_handled() << " requests ("
            << server.requests_rejected() << " rejected) over "
            << server.connections_accepted() << " connections\n";
  admin.Stop();
  LogInfo("duplexd.exit")
      .U64("requests_handled", server.requests_handled())
      .U64("requests_rejected", server.requests_rejected());
  SetGlobalTracer(nullptr);
  SetGlobalMetrics(nullptr);
  SetGlobalLog(nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonFlags flags;
  std::vector<std::string> args(argv + 1, argv + argc);
  size_t i = 0;
  while (i < args.size()) {
    const std::string& arg = args[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= args.size()) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return args[++i].c_str();
    };
    if (arg == "--port") {
      flags.port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--shards") {
      flags.shards = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--workers") {
      flags.workers = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--queue") {
      flags.queue = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--wal") {
      flags.wal = next();
    } else if (arg == "--checkpoint") {
      flags.checkpoint = next();
    } else if (arg == "--checkpoint-interval") {
      flags.checkpoint_interval_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--compact-interval") {
      flags.compact_interval_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--admin-port") {
      flags.admin_port =
          static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--slow-query-ms") {
      flags.slow_query_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--live-ingest") {
      flags.live_ingest = true;
    } else if (arg == "--drain-interval-ms") {
      flags.drain_interval_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--delta-cap-docs") {
      flags.delta_cap_docs =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--log-level") {
      const char* level = next();
      if (!duplex::ParseLogLevel(level, &flags.log_level)) {
        std::cerr << "bad --log-level " << level
                  << " (want debug/info/warn/error)\n";
        return 2;
      }
    } else if (arg == "--test-recovery-delay-ms") {
      flags.test_recovery_delay_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--test-drain-delay-ms") {
      flags.test_drain_delay_ms =
          static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: duplexd [--port N] [--shards N] [--workers N] "
                   "[--queue N] [--wal PATH]\n"
                   "               [--checkpoint PREFIX] "
                   "[--checkpoint-interval MS]\n"
                   "               [--compact-interval MS] "
                   "[--admin-port N] [--slow-query-ms N]\n"
                   "               [--live-ingest] [--drain-interval-ms MS] "
                   "[--delta-cap-docs N]\n"
                   "               [--log-level LEVEL] [file-or-dir]...\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << "\n";
      return 2;
    } else {
      flags.inputs.push_back(arg);
    }
    ++i;
  }
  if (flags.shards == 0 || flags.workers == 0 || flags.queue == 0) {
    std::cerr << "--shards, --workers and --queue must be positive\n";
    return 2;
  }
  if (flags.live_ingest && flags.drain_interval_ms == 0) {
    std::cerr << "--drain-interval-ms must be positive with --live-ingest\n";
    return 2;
  }
  return Run(flags);
}
