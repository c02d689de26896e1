#!/usr/bin/env bash
# CI entry point. One Release build runs the full test suite once; no
# subset is re-run in Release, because the full pass already covers it.
# Then two sanitizer builds re-run the surfaces where their bugs hide:
# ThreadSanitizer (-DDUPLEX_SANITIZE=thread) over the concurrency surface
# (thread pool, sharded index, cache/compaction/observability stress,
# merging reader, server stress, checkpoint stress, logger, admin plane,
# live-ingest stress), and ASan+UBSan (-DDUPLEX_SANITIZE=address,undefined)
# over the recovery surface (fault injection, crash sweeps, WAL,
# checkpoint, superblock, codecs, frame fuzz, the in-memory block device).
# Then the benchmark harness's self-test (perfbench/run.py --selftest),
# bench smokes that refresh BENCH_cache.json and BENCH_compaction.json,
# and the read-path bench gate that fails if the QueryExecutor seam
# regresses query throughput by >2%. The loopback smoke drives the real
# binaries: `duplexctl build` -> `duplexd --checkpoint` -> net-query over
# the built prefix, then a duplexd with WAL, checkpoints, admin plane and
# live ingest is driven by duplexctl's net-* commands (query, submit,
# submit-live, stats, /healthz, /readyz, /metrics, /statusz) and shut
# down with SIGTERM, which must leave a shutdown checkpoint. Last come the
# saturation, observability, recovery and live-ingest bench smokes, which
# refresh BENCH_server.json, BENCH_observability.json, BENCH_recovery.json
# and BENCH_live_ingest.json.
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

echo "=== ThreadSanitizer build + concurrency tests ==="
cmake -B build-ci-tsan -S . "${GEN[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDUPLEX_SANITIZE=thread >/dev/null
cmake --build build-ci-tsan -j "$JOBS" --target \
  util_thread_pool_test core_sharded_index_test core_cache_stress_test \
  core_compaction_stress_test observability_stress_test \
  core_merging_reader_test net_server_stress_test core_checkpoint_test \
  util_log_test net_admin_test core_live_index_stress_test
ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ShardedIndex|CacheStress|CompactionStress|ObservabilityStress|MergingReaderStress|ServerStress|CheckpointStress|Logger|ServerInstrumentation|AdminServer|Readiness|SlowQueryLog|LiveIndexStress'

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
# Prints the port duplexd announced in $1 (its stdout file), waiting for
# the announcement while the daemon with pid $2 is alive.
wait_for_port() {
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^duplexd listening on port \([0-9]*\)$/\1/p' \
      "$1" 2>/dev/null || true)"
    [ -n "$port" ] && { echo "$port"; return 0; }
    kill -0 "$2" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

# One on-disk format: duplexd serves the checkpoint `duplexctl build` wrote.
./build-ci-release/examples/duplexctl build "$SMOKE_DIR/built" \
  "$SMOKE_DIR/a.txt" "$SMOKE_DIR/b.txt" >/dev/null
./build-ci-release/tools/duplexd --port 0 --checkpoint "$SMOKE_DIR/built" \
  > "$SMOKE_DIR/built.out" 2> "$SMOKE_DIR/built.err" &
BUILT_PID=$!
BUILT_PORT="$(wait_for_port "$SMOKE_DIR/built.out" "$BUILT_PID")" \
  || { echo "duplexd on the built prefix never served"; \
       cat "$SMOKE_DIR/built.err"; exit 1; }
./build-ci-release/examples/duplexctl net-query 127.0.0.1 "$BUILT_PORT" \
  'retrieval' | grep -q '1 matching documents' \
  || { echo "duplexd did not serve the built documents"; exit 1; }
kill -TERM "$BUILT_PID"
wait "$BUILT_PID" || { echo "duplexd on the built prefix exited non-zero"; \
  cat "$SMOKE_DIR/built.err"; exit 1; }

./build-ci-release/tools/duplexd --port 0 --admin-port 0 \
  --slow-query-ms 50 --wal "$SMOKE_DIR/smoke.wal" \
  --checkpoint "$SMOKE_DIR/ckpt" \
  --live-ingest --drain-interval-ms 25 \
  "$SMOKE_DIR/a.txt" "$SMOKE_DIR/b.txt" \
  > "$SMOKE_DIR/duplexd.out" 2> "$SMOKE_DIR/duplexd.err" &
DUPLEXD_PID=$!
PORT="$(wait_for_port "$SMOKE_DIR/duplexd.out" "$DUPLEXD_PID")" \
  || { echo "duplexd never printed its port"; \
       cat "$SMOKE_DIR/duplexd.err"; exit 1; }
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
./build-ci-release/examples/duplexctl query "$SMOKE_DIR/ckpt" 'deltas' \
  | grep -q '1 matching documents' \
  || { echo "duplexctl cannot read the shutdown checkpoint"; exit 1; }
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
