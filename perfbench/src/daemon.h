#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "util/metrics.h"
#include "util/status.h"

namespace perfbench {

using duplex::Result;
using duplex::Status;

uint64_t NowNs();

// One duplexd process started from the built binary. Start() returns once
// the daemon prints its listening line, i.e. once it serves requests.
class Daemon {
 public:
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  // Kills a daemon that was never stopped and waits for it.
  ~Daemon();

  static Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);

  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_port_; }
  // Peak resident set (VmHWM from /proc) in MiB, while running.
  Result<double> PeakRssMib() const;
  // SIGTERM, then waits for exit; the daemon must exit 0. Returns the
  // seconds from the signal until the process was reaped.
  Result<double> Stop();

 private:
  Daemon() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t admin_port_ = 0;
};

// A pipelined request connection: any thread may send (sends are
// serialized), one thread receives.
class Conn {
 public:
  static Result<std::unique_ptr<Conn>> Open(uint16_t port);
  Status Send(duplex::net::Opcode opcode, uint64_t request_id,
              const std::string& payload);
  Result<duplex::net::Frame> Receive();
  // Wakes a blocked receiver with an error (used to abort a phase).
  void Shutdown() { sock_.ShutdownBoth(); }

 private:
  duplex::net::Socket sock_;
  std::mutex send_mu_;
};

// Blocking request/response over a Conn; the reply's status prelude is
// decoded and a non-OK handler status is returned as the error.
Result<std::string> Call(Conn* conn, duplex::net::Opcode opcode,
                         const std::string& payload);

// The daemon's Prometheus exposition (/metrics on the admin port),
// parsed so two scrapes can be subtracted.
struct Scrape {
  std::map<std::string, double> values;  // counters and gauges by series
  struct Hist {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, duplex::LatencyHistogram::kBuckets> buckets{};
  };
  std::map<std::string, Hist> hists;  // by family{labels}

  double Value(const std::string& series) const;
  // Histogram of the observations recorded between two scrapes.
  static duplex::MetricsSnapshot::HistogramView DeltaHist(
      const Scrape& before, const Scrape& after, const std::string& series);
};

Scrape ParsePrometheus(const std::string& text);
Result<Scrape> ScrapeMetrics(uint16_t admin_port);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
