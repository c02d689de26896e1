#!/usr/bin/env bash
# CI entry point: build + test in Release (with explicit buffer-pool,
# fault-injection, and observability passes), rebuild with ThreadSanitizer
# (-DDUPLEX_SANITIZE=thread) and re-run the concurrency surface (thread
# pool, concurrent facade, sharded index, cache stress) so every PR is
# race-checked, then rebuild the recovery surface with ASan+UBSan
# (-DDUPLEX_SANITIZE=address,undefined) — crash-path code runs rarely in
# production, so memory errors there hide longest; the in-memory block
# device rides that pass too, since its blocks are stored only up to
# their written extent and a read past one is where an out-of-bounds
# access would hide. Then the benchmark harness's self-test
# (perfbench/run.py --selftest). Finishes with smoke
# runs of the cache-sweep and compaction benches so BENCH_cache.json and
# BENCH_compaction.json stay fresh, plus the read-path bench gate that
# fails if the QueryExecutor seam regresses query throughput by >2%.
# The network layer gets its own gates: a net pass in Release, the frame
# fuzz suite under ASan+UBSan, the ServerStress suite under TSan, a
# loopback smoke (duplexd on an ephemeral port, duplexctl against it,
# clean SIGTERM shutdown), and a saturation bench smoke that refreshes
# BENCH_server.json. The checkpoint subsystem gets a Release pass
# (superblock + checkpoint/recover + crash sweep), rides the ASan+UBSan
# recovery build, runs its reader-concurrency stress under TSan, extends
# the loopback smoke with a shutdown checkpoint + recover-demo, and
# refreshes BENCH_recovery.json. The admin plane rides the loopback
# smoke too: duplexd starts with --admin-port 0 and /healthz, /readyz,
# /metrics (exposition format checked), and /statusz are all hit over
# real HTTP; the async logger + admin/scrape-race tests run under TSan;
# and the observability bench smoke refreshes BENCH_observability.json.
# The live-ingest tier gets its own gates: a Release pass (unit +
# property differential + crash sweep + submit-live codec fuzz), the
# visibility-invariant stress under TSan, the delta crash sweep under
# ASan+UBSan, a loopback submit-live-then-immediately-query against the
# real duplexd (with the /statusz delta block checked), and a bench
# smoke that refreshes BENCH_live_ingest.json.
# Usage: tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

echo "=== Release build + full test suite ==="
cmake -B build-ci-release -S . "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-ci-release -j "$JOBS"
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS"

echo "=== Buffer-pool pass (unit + equivalence + crash recovery) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'BufferPool|CachingBlockDevice|CacheEquivalence|CacheCrashRecovery'

echo "=== Fault-injection + recovery pass ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'FaultSchedule|FaultInjecting|ChecksumBlockDevice|CrashSweep|ShardedRecovery|BatchLog|Scrub'

echo "=== Checkpoint pass (superblock + checkpoint/recover + crash sweep) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'Checkpoint|Superblock'

echo "=== Compaction pass (property + options + crash sweep + codec fuzz) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'Compaction|CodecRoundTrip|CodecFuzz|DiskArray'

echo "=== Read-path pass (executor equivalence + chunk format + merging reader) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'QueryExecutor|ChunkHeader|ChunkFormat|MergingReader|MergeDocLists'

echo "=== Observability pass (metrics + tracing + logging + admin plane) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'Counter|Gauge|LatencyHistogram|MetricsRegistry|GlobalMetrics|ScopedLatency|Tracer|ObservabilityScope|ObservedPipeline|ObservedComponents|Logger|AdminServer|Readiness|SlowQueryLog|ServerInstrumentation|DuplexdAdmin|LabelEscaping'
# The embedded Prometheus-text validator runs against a live `duplexctl
# metrics` invocation inside these two tests.
ctest --test-dir build-ci-release --output-on-failure \
  -R 'MetricsEmitsValidPrometheusAcrossLayers|TraceEmitsChromeTraceJson'

echo "=== Network pass (frame codec + server protocol + bounded queue) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'FrameHeader|FrameAssembler|PayloadCodec|NetServer|ServerStress|BoundedQueue'

echo "=== Live-ingest pass (delta tier + property diff + crash sweep) ==="
ctest --test-dir build-ci-release --output-on-failure -j "$JOBS" \
  -R 'LiveIndex|LiveProperty|DeltaCrashSweep|SubmitLive'

echo "=== ThreadSanitizer build + concurrency tests ==="
cmake -B build-ci-tsan -S . "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDUPLEX_SANITIZE=thread >/dev/null
cmake --build build-ci-tsan -j "$JOBS" --target \
  util_thread_pool_test core_concurrent_index_test \
  core_sharded_index_test core_cache_stress_test \
  core_compaction_stress_test observability_stress_test \
  core_merging_reader_test net_server_stress_test core_checkpoint_test \
  util_log_test net_admin_test core_live_index_stress_test
ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ConcurrentIndex|ShardedIndex|CacheStress|CompactionStress|ObservabilityStress|MergingReaderStress|ServerStress|CheckpointStress|Logger|ServerInstrumentation|AdminServer|Readiness|SlowQueryLog|LiveIndexStress'

echo "=== ASan+UBSan build + recovery tests ==="
cmake -B build-ci-asan -S . "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDUPLEX_SANITIZE=address,undefined >/dev/null
cmake --build build-ci-asan -j "$JOBS" --target \
  storage_fault_injection_test integration_crash_sweep_test \
  core_sharded_recovery_test core_batch_log_test \
  core_compaction_property_test core_codec_family_test \
  core_chunk_format_test net_frame_test \
  storage_superblock_test core_checkpoint_test \
  integration_checkpoint_crash_sweep_test \
  integration_delta_crash_sweep_test storage_block_device_test
ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS" \
  -R 'FaultSchedule|FaultInjecting|ChecksumBlockDevice|CrashSweep|ShardedRecovery|BatchLog|CompactionProperty|CodecRoundTrip|CodecFuzz|ChunkHeader|ChunkFormat|FrameHeader|FrameAssembler|PayloadCodec|SubmitLiveCodec|Checkpoint|Superblock|MemBlockDevice'

echo "=== Benchmark harness self-test (perfbench percentile/oracle/lateness) ==="
python3 perfbench/run.py --selftest

echo "=== Cache-sweep bench smoke (writes BENCH_cache.json) ==="
DUPLEX_BENCH_UPDATES="${DUPLEX_BENCH_UPDATES:-6}" \
DUPLEX_BENCH_DOCS="${DUPLEX_BENCH_DOCS:-150}" \
  ./build-ci-release/bench/bench_ext_cache_hit >/dev/null

echo "=== Compaction bench smoke (writes BENCH_compaction.json) ==="
DUPLEX_BENCH_UPDATES="${DUPLEX_BENCH_UPDATES:-6}" \
DUPLEX_BENCH_DOCS="${DUPLEX_BENCH_DOCS:-150}" \
  ./build-ci-release/bench/bench_ext_compaction >/dev/null

echo "=== Read-path bench smoke (executor vs direct-overload, <2% budget) ==="
./build-ci-release/bench/bench_ext_read_path

echo "=== Loopback smoke (duplexd + duplexctl + clean SIGTERM shutdown) ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
printf 'incremental updates of inverted lists\n' > "$SMOKE_DIR/a.txt"
printf 'text document retrieval systems\n' > "$SMOKE_DIR/b.txt"
./build-ci-release/tools/duplexd --port 0 --admin-port 0 \
  --slow-query-ms 50 --wal "$SMOKE_DIR/smoke.wal" \
  --checkpoint "$SMOKE_DIR/ckpt" \
  --live-ingest --drain-interval-ms 25 \
  "$SMOKE_DIR/a.txt" "$SMOKE_DIR/b.txt" \
  > "$SMOKE_DIR/duplexd.out" 2> "$SMOKE_DIR/duplexd.err" &
DUPLEXD_PID=$!
PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^duplexd listening on port \([0-9]*\)$/\1/p' \
    "$SMOKE_DIR/duplexd.out" 2>/dev/null || true)"
  [ -n "$PORT" ] && break
  kill -0 "$DUPLEXD_PID" 2>/dev/null || {
    echo "duplexd died at startup"; cat "$SMOKE_DIR/duplexd.err"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "duplexd never printed its port"; exit 1; }
./build-ci-release/examples/duplexctl net-ping 127.0.0.1 "$PORT"
./build-ci-release/examples/duplexctl net-query 127.0.0.1 "$PORT" \
  'incremental AND updates' | grep -q '1 matching documents' \
  || { echo "net-query found nothing"; exit 1; }
printf 'a freshly submitted document about updates\n' > "$SMOKE_DIR/c.txt"
./build-ci-release/examples/duplexctl net-submit 127.0.0.1 "$PORT" \
  "$SMOKE_DIR/c.txt" | grep -q 'accepted 1' \
  || { echo "net-submit not accepted"; exit 1; }
# Live ingest: the submit-live ack IS visibility, so the query fired
# straight after it must find the document — whether it is still in the
# delta tier or the 25 ms drainer already moved it to the shards.
printf 'a live wire document about inverted deltas\n' > "$SMOKE_DIR/live.txt"
./build-ci-release/examples/duplexctl net-submit-live 127.0.0.1 "$PORT" \
  "$SMOKE_DIR/live.txt" | grep -q 'visible now' \
  || { echo "net-submit-live not acked"; exit 1; }
./build-ci-release/examples/duplexctl net-query 127.0.0.1 "$PORT" \
  'deltas' | grep -q '1 matching documents' \
  || { echo "live document not immediately visible"; exit 1; }
# Buffer to a file before grepping: `grep -q` exits at the first match,
# and with pipefail a SIGPIPE to duplexctl mid-write would read as
# failure (the stats JSON is now larger than one stdio buffer).
./build-ci-release/examples/duplexctl net-stats 127.0.0.1 "$PORT" \
  > "$SMOKE_DIR/stats.json"
grep -q '"index"' "$SMOKE_DIR/stats.json" \
  || { echo "net-stats missing index JSON"; exit 1; }

# Admin plane: liveness, readiness, Prometheus exposition, and /statusz
# over real HTTP (duplexctl's admin subcommands wrap HTTP GET).
ADMIN_PORT="$(sed -n 's/^duplexd admin listening on port \([0-9]*\)$/\1/p' \
  "$SMOKE_DIR/duplexd.out")"
[ -n "$ADMIN_PORT" ] || { echo "duplexd never printed its admin port"; exit 1; }
./build-ci-release/examples/duplexctl net-health 127.0.0.1 "$ADMIN_PORT" \
  | grep -q 'ok' || { echo "/healthz not ok"; exit 1; }
./build-ci-release/examples/duplexctl net-ready 127.0.0.1 "$ADMIN_PORT" \
  | grep -q 'ready' || { echo "/readyz not ready"; exit 1; }
./build-ci-release/examples/duplexctl net-metrics 127.0.0.1 "$ADMIN_PORT" \
  > "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE duplex_net_requests_total counter' "$SMOKE_DIR/metrics.prom" \
  || { echo "/metrics missing request counter TYPE line"; exit 1; }
grep -q '^# TYPE duplex_net_phase_ns histogram' "$SMOKE_DIR/metrics.prom" \
  || { echo "/metrics missing phase histogram TYPE line"; exit 1; }
grep -q '^duplex_net_phase_ns_bucket{phase="execute",le="' \
  "$SMOKE_DIR/metrics.prom" \
  || { echo "/metrics missing labeled histogram buckets"; exit 1; }
./build-ci-release/examples/duplexctl net-status 127.0.0.1 "$ADMIN_PORT" \
  > "$SMOKE_DIR/statusz.json"
grep -q '"ready": true' "$SMOKE_DIR/statusz.json" \
  || { echo "/statusz not ready"; exit 1; }
grep -q '"attached": true' "$SMOKE_DIR/statusz.json" \
  || { echo "/statusz missing WAL status"; exit 1; }
grep -q '"delta"' "$SMOKE_DIR/statusz.json" \
  || { echo "/statusz missing live delta block"; exit 1; }
kill -TERM "$DUPLEXD_PID"
wait "$DUPLEXD_PID" || { echo "duplexd exited non-zero"; \
  cat "$SMOKE_DIR/duplexd.err"; exit 1; }
[ -s "$SMOKE_DIR/smoke.wal" ] || { echo "WAL not written"; exit 1; }
# SIGTERM drain ends with a final checkpoint: the dual-slot superblock
# must exist and the offline CLI must recover through it.
[ -s "$SMOKE_DIR/ckpt.super" ] \
  || { echo "shutdown checkpoint superblock missing"; exit 1; }
./build-ci-release/examples/duplexctl recover-demo >/dev/null \
  || { echo "recover-demo failed"; exit 1; }

echo "=== Server saturation bench smoke (writes BENCH_server.json) ==="
DUPLEX_BENCH_NET_MS="${DUPLEX_BENCH_NET_MS:-500}" \
DUPLEX_BENCH_NET_DOCS="${DUPLEX_BENCH_NET_DOCS:-500}" \
  ./build-ci-release/bench/bench_ext_server_saturation >/dev/null

echo "=== Observability bench smoke (writes BENCH_observability.json) ==="
# Informational, not a hard gate: the micro phases measure tens of
# microseconds of instrumentation against tens of milliseconds of work,
# so shared-machine noise swings them past any fixed threshold.
./build-ci-release/bench/bench_ext_observability 2>/dev/null \
  | tail -n 8

echo "=== Recovery bench smoke (writes BENCH_recovery.json) ==="
DUPLEX_BENCH_RECOVERY_MAX="${DUPLEX_BENCH_RECOVERY_MAX:-16}" \
DUPLEX_BENCH_RECOVERY_DOCS="${DUPLEX_BENCH_RECOVERY_DOCS:-80}" \
  ./build-ci-release/bench/bench_ext_recovery >/dev/null

echo "=== Live-ingest bench smoke (writes BENCH_live_ingest.json) ==="
DUPLEX_BENCH_DOCS="${DUPLEX_BENCH_DOCS:-300}" \
DUPLEX_BENCH_LIVE_SUBMITS="${DUPLEX_BENCH_LIVE_SUBMITS:-300}" \
  ./build-ci-release/bench/bench_ext_live_ingest >/dev/null

echo "CI OK"
