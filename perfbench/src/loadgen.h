#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "daemon.h"
#include "stats.h"

namespace perfbench {

// Poisson arrivals (independent users) at `rate` per second for
// `seconds`: offsets in ns from the phase start, deterministic in `seed`.
std::vector<uint64_t> PoissonSchedule(double rate, double seconds,
                                      uint64_t seed);

// One open-loop request stream over its own connection.
class Stream {
 public:
  Stream(Conn* conn, std::vector<uint64_t> offsets)
      : conn_(conn), offsets_(std::move(offsets)) {}
  virtual ~Stream() = default;

  // Builds request i when it is due (it may read state replies updated).
  virtual std::pair<duplex::net::Opcode, std::string> Build(size_t i) = 0;
  // Runs on the stream's receiver thread for the reply to request i.
  // Returns how many extra requests the handler itself sent on the
  // connection (ids from ExtraId), whose replies go to OnExtraReply.
  virtual size_t OnReply(size_t i, uint64_t recv_ns,
                         const duplex::net::Frame& frame) = 0;
  virtual void OnExtraReply(uint64_t id, const duplex::net::Frame& frame) {
    (void)id;
    (void)frame;
  }

  static uint64_t ExtraId(uint64_t n) { return kExtraBit | n; }
  static bool IsExtra(uint64_t id) { return (id & kExtraBit) != 0; }

  Conn* conn() const { return conn_; }
  const std::vector<uint64_t>& offsets() const { return offsets_; }
  // Filled by RunOpenLoop: due/send/recv of every request it sent (all of
  // them unless the phase was stopped early).
  std::vector<RequestTiming> timings;

 private:
  static constexpr uint64_t kExtraBit = uint64_t{1} << 62;
  Conn* conn_;
  std::vector<uint64_t> offsets_;
};

// Runs the streams open loop. One sender thread walks the merged
// schedule and sleeps until each request is due — it never spins and
// never waits for a reply — and one receiver thread per stream takes
// replies, so a slow reply never delays a due send. When `stop` becomes
// true, requests not yet due are not sent.
Status RunOpenLoop(const std::vector<Stream*>& streams,
                   const std::atomic<bool>* stop = nullptr);

// Whether every open-loop generator thread so far ran at SCHED_FIFO; false
// once the host refused it to one (it needs CAP_SYS_NICE or an rtprio
// limit). The report records it: without it the daemon's threads can
// delay sends, which the lateness check then has to catch.
bool RealtimeGranted();

// Closed loop: each connection sends its next request only after the
// previous reply, until `seconds` elapse. `request(conn, n)` builds the
// n-th request of a connection; `reply(conn, n, frame)` takes its reply.
struct ClosedLoopResult {
  uint64_t completed = 0;
  // Completions per second in each whole kRateWindowSeconds window.
  std::vector<double> window_rates;
};
inline constexpr double kRateWindowSeconds = 0.25;
Result<ClosedLoopResult> RunClosedLoop(
    const std::vector<Conn*>& conns, double seconds,
    const std::function<std::pair<duplex::net::Opcode, std::string>(
        size_t conn, uint64_t n)>& request,
    const std::function<void(size_t conn, uint64_t n,
                             const duplex::net::Frame& frame)>& reply);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
