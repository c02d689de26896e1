#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "net/admin_server.h"

extern char** environ;

namespace perfbench {

namespace net = duplex::net;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

constexpr int kStartTimeoutMs = 120000;

std::string LogTail(const std::string& path) {
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return all.size() > 2000 ? all.substr(all.size() - 2000) : all;
}

bool ParsePort(const std::string& line, const std::string& prefix,
               uint16_t* port) {
  if (line.rfind(prefix, 0) != 0) return false;
  *port = static_cast<uint16_t>(std::strtoul(line.c_str() + prefix.size(),
                                             nullptr, 10));
  return true;
}

}  // namespace

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  // Close-on-exec, so later daemons do not inherit this one's pipe.
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return Status::IoError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::unique_ptr<Daemon> daemon(new Daemon());
  const int rc = posix_spawn(&daemon->pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  daemon->stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    daemon->pid_ = -1;
    return Status::IoError("cannot spawn " + binary);
  }

  // duplexd announces the admin port, recovers, then announces the
  // request port once it serves.
  std::string pending;
  const uint64_t deadline = NowNs() + uint64_t{kStartTimeoutMs} * 1000000;
  while (daemon->port_ == 0) {
    const uint64_t now = NowNs();
    if (now >= deadline) return Status::IoError("duplexd start timed out");
    pollfd pfd{daemon->stdout_fd_, POLLIN, 0};
    const int ready =
        poll(&pfd, 1, static_cast<int>((deadline - now) / 1000000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    char buf[512];
    const ssize_t n = ready > 0 ? read(daemon->stdout_fd_, buf, sizeof buf) : 0;
    if (n <= 0) {
      return Status::IoError("duplexd exited during start: " +
                             LogTail(log_path));
    }
    pending.append(buf, static_cast<size_t>(n));
    for (size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      ParsePort(line, "duplexd admin listening on port ", &daemon->admin_port_);
      ParsePort(line, "duplexd listening on port ", &daemon->port_);
    }
  }
  return daemon;
}

Result<double> Daemon::PeakRssMib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM for duplexd");
}

Result<double> Daemon::Stop() {
  if (pid_ <= 0) return Status::FailedPrecondition("daemon not running");
  const uint64_t start = NowNs();
  kill(pid_, SIGTERM);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) return Status::IoError("waitpid failed");
  }
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("duplexd did not exit cleanly (status " +
                            std::to_string(status) + ")");
  }
  return seconds;
}

Result<std::unique_ptr<Conn>> Conn::Open(uint16_t port) {
  Result<net::Socket> sock =
      net::Socket::Connect("127.0.0.1", port, std::chrono::milliseconds(5000));
  if (!sock.ok()) return sock.status();
  DUPLEX_RETURN_IF_ERROR(sock->SetNoDelay());
  auto conn = std::make_unique<Conn>();
  conn->sock_ = std::move(*sock);
  return conn;
}

Status Conn::Send(net::Opcode opcode, uint64_t request_id,
                  const std::string& payload) {
  std::string frame;
  net::EncodeFrame(static_cast<uint8_t>(opcode), request_id, payload, &frame);
  std::lock_guard<std::mutex> lock(send_mu_);
  return sock_.SendAll(frame.data(), frame.size());
}

Result<net::Frame> Conn::Receive() {
  char header[net::kFrameHeaderSize];
  DUPLEX_RETURN_IF_ERROR(sock_.RecvAll(header, sizeof header));
  Result<net::FrameHeader> decoded = net::DecodeFrameHeader(
      std::string_view(header, sizeof header), net::kMaxPayloadCeiling);
  if (!decoded.ok()) return decoded.status();
  net::Frame frame;
  frame.header = *decoded;
  frame.payload.resize(decoded->payload_len);
  if (!frame.payload.empty()) {
    DUPLEX_RETURN_IF_ERROR(
        sock_.RecvAll(frame.payload.data(), frame.payload.size()));
  }
  return frame;
}

Result<std::string> Call(Conn* conn, net::Opcode opcode,
                         const std::string& payload) {
  DUPLEX_RETURN_IF_ERROR(conn->Send(opcode, 1, payload));
  Result<net::Frame> frame = conn->Receive();
  if (!frame.ok()) return frame.status();
  std::string_view body(frame->payload);
  Status handler;
  DUPLEX_RETURN_IF_ERROR(net::DecodeResponseStatus(&body, &handler));
  if (!handler.ok()) return handler;
  // Typed decoders expect the prelude, so hand back the whole payload.
  return std::move(frame->payload);
}

double Scrape::Value(const std::string& series) const {
  auto it = values.find(series);
  return it == values.end() ? 0.0 : it->second;
}

duplex::MetricsSnapshot::HistogramView Scrape::DeltaHist(
    const Scrape& before, const Scrape& after, const std::string& series) {
  duplex::MetricsSnapshot::HistogramView view;
  auto a = after.hists.find(series);
  if (a == after.hists.end()) return view;
  auto b = before.hists.find(series);
  const Hist empty;
  const Hist& base = b == before.hists.end() ? empty : b->second;
  size_t lowest = duplex::LatencyHistogram::kBuckets;
  size_t highest = 0;
  for (size_t i = 0; i < duplex::LatencyHistogram::kBuckets; ++i) {
    view.buckets[i] = a->second.buckets[i] - base.buckets[i];
    view.count += view.buckets[i];
    if (view.buckets[i] > 0) {
      lowest = std::min(lowest, i);
      highest = i;
    }
  }
  view.sum = a->second.sum - base.sum;
  if (view.count > 0) {
    view.min = duplex::LatencyHistogram::BucketLowerBound(lowest);
    view.max = duplex::LatencyHistogram::BucketUpperBound(highest);
  }
  return view;
}

Scrape ParsePrometheus(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::map<std::string, uint64_t> cumulative;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t bucket = series.find("_bucket{");
    if (bucket == std::string::npos) {
      scrape.values[series] = value;
      // _sum/_count of a histogram family already seen via its buckets.
      for (const char* suffix : {"_sum", "_count"}) {
        const size_t at = series.find(suffix);
        if (at == std::string::npos) continue;
        const std::string key = series.substr(0, at) +
                                series.substr(at + std::string(suffix).size());
        auto it = scrape.hists.find(key);
        if (it == scrape.hists.end()) continue;
        if (suffix[1] == 's') {
          it->second.sum = static_cast<uint64_t>(value);
        } else {
          it->second.count = static_cast<uint64_t>(value);
        }
      }
      continue;
    }
    // name_bucket{labels,le="N"} cumulative
    std::string labels = series.substr(bucket + 8, series.size() - bucket - 9);
    const size_t le = labels.find("le=\"");
    const std::string bound =
        labels.substr(le + 4, labels.size() - le - 5);
    labels.erase(le > 0 ? le - 1 : 0);
    const std::string key = series.substr(0, bucket) +
                            (labels.empty() ? "" : "{" + labels + "}");
    Scrape::Hist& hist = scrape.hists[key];
    if (bound == "+Inf") continue;
    const size_t index = duplex::LatencyHistogram::BucketIndex(
        std::strtoull(bound.c_str(), nullptr, 10));
    const auto total = static_cast<uint64_t>(value);
    hist.buckets[index] = total - cumulative[key];
    cumulative[key] = total;
  }
  return scrape;
}

Result<Scrape> ScrapeMetrics(uint16_t admin_port) {
  Result<net::HttpResponse> resp =
      net::HttpGet("127.0.0.1", admin_port, "/metrics");
  if (!resp.ok()) return resp.status();
  if (resp->status_code != 200) {
    return Status::IoError("/metrics answered " +
                           std::to_string(resp->status_code));
  }
  return ParsePrometheus(resp->body);
}

}  // namespace perfbench
