// Real-process integration tests for duplexd's admin plane: the daemon
// binary is spawned on loopback with --admin-port and driven over actual
// HTTP. The core scenario is the /readyz lifecycle the satellite of this
// plane exists for: a daemon started with --checkpoint against a WAL
// with history answers 503 (recovering) while the recovery ladder runs,
// 200 once the request listener serves, and 503 (draining) again between
// SIGTERM and exit — the signal a load balancer needs to route around
// restarts without dropping requests. The cross-binary tests pin the one
// on-disk format: what `duplexctl build` installs, duplexd serves, and
// what duplexd's shutdown checkpoint leaves, duplexctl reads.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "net/admin_server.h"

namespace duplex {
namespace {

namespace fs = std::filesystem;

// duplexd child process with its stdout on a pipe (the daemon announces
// its ephemeral ports there).
class DaemonProc {
 public:
  explicit DaemonProc(const std::vector<std::string>& args) {
    int fds[2];
    if (pipe(fds) != 0) return;
    pid_ = fork();
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_ = fdopen(fds[0], "r");
  }

  ~DaemonProc() {
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ != nullptr) fclose(out_);
  }

  bool alive() const { return pid_ > 0 && out_ != nullptr; }
  pid_t pid() const { return pid_; }

  // Reads stdout lines until one starts with `prefix`; returns the
  // trailing integer (the announced port), or 0 on EOF.
  uint16_t ReadPortLine(const std::string& prefix) {
    char line[512];
    while (out_ != nullptr && fgets(line, sizeof(line), out_) != nullptr) {
      if (std::strncmp(line, prefix.c_str(), prefix.size()) == 0) {
        return static_cast<uint16_t>(
            std::strtoul(line + prefix.size(), nullptr, 10));
      }
    }
    return 0;
  }

  void Terminate() {
    if (pid_ > 0) kill(pid_, SIGTERM);
  }

  // Waits for exit (bounded); returns the exit code, -1 on timeout.
  int WaitExit(int timeout_ms = 30000) {
    for (int waited = 0; waited < timeout_ms; waited += 20) {
      int wstatus = 0;
      const pid_t done = waitpid(pid_, &wstatus, WNOHANG);
      if (done == pid_) {
        reaped_ = true;
        return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
  bool reaped_ = false;
};

// Polls `path` until the response matches (status + body substring) or
// the deadline passes; returns the last response seen.
net::HttpResponse PollUntil(uint16_t port, const std::string& path,
                            int want_status, const std::string& want_body,
                            int timeout_ms) {
  net::HttpResponse last;
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    Result<net::HttpResponse> resp = net::HttpGet("127.0.0.1", port, path);
    if (resp.ok()) {
      last = *resp;
      if (last.status_code == want_status &&
          last.body.find(want_body) != std::string::npos) {
        return last;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return last;
}

class DuplexdAdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/duplexd_admin_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_ + "/docs");
    std::ofstream(dir_ + "/docs/a.txt")
        << "incremental updates of inverted lists for text retrieval";
    std::ofstream(dir_ + "/docs/b.txt")
        << "the dual structure keeps short lists in buckets";
    std::ofstream(dir_ + "/docs/c.txt")
        << "long lists live in chunked block storage";
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Runs duplexctl with `args` (shell-quoted by the caller); returns its
  // exit status and leaves stdout + stderr in ctl_out_.
  int Ctl(const std::string& args) {
    const std::string out = dir_ + "/ctl.out";
    const int rc = std::system(
        (std::string(DUPLEXCTL_BIN) + " " + args + " > " + out + " 2>&1")
            .c_str());
    std::ifstream in(out);
    ctl_out_.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    return rc;
  }

  std::string dir_;
  std::string ctl_out_;
};

TEST_F(DuplexdAdminTest, ServesAllEndpointsWhileRunning) {
  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--admin-port", "0",
                     "--shards", "2", "--slow-query-ms", "1",
                     dir_ + "/docs"});
  ASSERT_TRUE(daemon.alive());
  const uint16_t admin_port =
      daemon.ReadPortLine("duplexd admin listening on port ");
  ASSERT_NE(admin_port, 0);
  const uint16_t port = daemon.ReadPortLine("duplexd listening on port ");
  ASSERT_NE(port, 0);

  const net::HttpResponse ready =
      PollUntil(admin_port, "/readyz", 200, "ready", 10000);
  EXPECT_EQ(ready.status_code, 200) << ready.body;

  Result<net::HttpResponse> health =
      net::HttpGet("127.0.0.1", admin_port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);

  Result<net::HttpResponse> metrics =
      net::HttpGet("127.0.0.1", admin_port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("duplex_net_phase_ns"), std::string::npos);
  EXPECT_NE(metrics->body.find("duplex_net_queue_depth"), std::string::npos);

  Result<net::HttpResponse> statusz =
      net::HttpGet("127.0.0.1", admin_port, "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  EXPECT_EQ(statusz->status_code, 200);
  EXPECT_NE(statusz->body.find("\"ready\": true"), std::string::npos)
      << statusz->body;
  EXPECT_NE(statusz->body.find("\"shards\": 2"), std::string::npos);
  EXPECT_NE(statusz->body.find("\"queue\""), std::string::npos);
  // No --live-ingest: the delta tier is not reported.
  EXPECT_NE(statusz->body.find("\"delta\": null"), std::string::npos)
      << statusz->body;

  Result<net::HttpResponse> slowz =
      net::HttpGet("127.0.0.1", admin_port, "/slowz");
  ASSERT_TRUE(slowz.ok()) << slowz.status();
  EXPECT_EQ(slowz->status_code, 200);
  EXPECT_NE(slowz->body.find("\"slow_queries\""), std::string::npos);

  daemon.Terminate();
  EXPECT_EQ(daemon.WaitExit(), 0);
}

TEST_F(DuplexdAdminTest, ReadyzNarratesRecoveryServingAndDrain) {
  const std::string wal = dir_ + "/duplex.wal";
  const std::string ckpt = dir_ + "/ckpt";

  // Phase 1: run once with --wal only, indexing the docs at startup —
  // every flushed batch stays in the WAL (no checkpoint truncates it),
  // so the next start has real history to recover.
  {
    DaemonProc seed({DUPLEXD_BIN, "--port", "0", "--shards", "2", "--wal",
                     wal, dir_ + "/docs"});
    ASSERT_TRUE(seed.alive());
    ASSERT_NE(seed.ReadPortLine("duplexd listening on port "), 0);
    seed.Terminate();
    ASSERT_EQ(seed.WaitExit(), 0);
  }
  ASSERT_TRUE(fs::exists(wal));
  ASSERT_GT(fs::file_size(wal), 0u);

  // Phase 2: restart with --checkpoint against that WAL. The test delays
  // hold the recovery and drain windows open long enough to observe.
  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--admin-port", "0",
                     "--shards", "2", "--wal", wal, "--checkpoint", ckpt,
                     "--test-recovery-delay-ms", "1500",
                     "--test-drain-delay-ms", "1500"});
  ASSERT_TRUE(daemon.alive());
  const uint16_t admin_port =
      daemon.ReadPortLine("duplexd admin listening on port ");
  ASSERT_NE(admin_port, 0);

  // While recovering: 503 with the recovery stage in the body.
  const net::HttpResponse recovering =
      PollUntil(admin_port, "/readyz", 503, "recovering", 1200);
  EXPECT_EQ(recovering.status_code, 503) << recovering.body;
  EXPECT_NE(recovering.body.find("not ready: recovering"),
            std::string::npos)
      << recovering.body;
  // Liveness stays green the whole time — /healthz is NOT readiness.
  Result<net::HttpResponse> health =
      net::HttpGet("127.0.0.1", admin_port, "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status_code, 200);

  // Recovery done, listener up: /readyz flips to 200.
  ASSERT_NE(daemon.ReadPortLine("duplexd listening on port "), 0);
  const net::HttpResponse ready =
      PollUntil(admin_port, "/readyz", 200, "ready", 10000);
  ASSERT_EQ(ready.status_code, 200) << ready.body;

  // /statusz now reports the recovered WAL history.
  Result<net::HttpResponse> statusz =
      net::HttpGet("127.0.0.1", admin_port, "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz->body.find("\"attached\": true"), std::string::npos)
      << statusz->body;

  // SIGTERM: /readyz flips BACK to 503 (draining) before the process
  // exits; the admin plane answers until the very end of the drain.
  daemon.Terminate();
  const net::HttpResponse draining =
      PollUntil(admin_port, "/readyz", 503, "draining", 1200);
  EXPECT_EQ(draining.status_code, 503) << draining.body;
  EXPECT_NE(draining.body.find("draining"), std::string::npos);
  EXPECT_EQ(daemon.WaitExit(), 0);
}

TEST_F(DuplexdAdminTest, DuplexctlFetchesAdminEndpoints) {
  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--admin-port", "0",
                     "--shards", "2", dir_ + "/docs"});
  ASSERT_TRUE(daemon.alive());
  const uint16_t admin_port =
      daemon.ReadPortLine("duplexd admin listening on port ");
  ASSERT_NE(admin_port, 0);
  ASSERT_NE(daemon.ReadPortLine("duplexd listening on port "), 0);
  PollUntil(admin_port, "/readyz", 200, "ready", 10000);

  const std::string out = dir_ + "/ctl.out";
  ASSERT_EQ(std::system((std::string(DUPLEXCTL_BIN) + " net-metrics 127.0.0.1 " +
                         std::to_string(admin_port) + " > " + out + " 2>&1")
                            .c_str()),
            0);
  std::ifstream metrics_in(out);
  std::string metrics((std::istreambuf_iterator<char>(metrics_in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(metrics.find("# TYPE duplex_net_requests_total counter"),
            std::string::npos)
      << metrics;

  ASSERT_EQ(std::system((std::string(DUPLEXCTL_BIN) + " net-status 127.0.0.1 " +
                         std::to_string(admin_port) + " > " + out + " 2>&1")
                            .c_str()),
            0);
  std::ifstream status_in(out);
  std::string status((std::istreambuf_iterator<char>(status_in)),
                     std::istreambuf_iterator<char>());
  EXPECT_NE(status.find("\"uptime_s\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"ready\": true"), std::string::npos) << status;

  daemon.Terminate();
  EXPECT_EQ(daemon.WaitExit(), 0);
}

// The offline build and the daemon share one format: duplexd started on
// the prefix `duplexctl build` wrote serves the built documents.
TEST_F(DuplexdAdminTest, DuplexdServesWhatDuplexctlBuilt) {
  const std::string prefix = dir_ + "/built";
  ASSERT_EQ(Ctl("build " + prefix + " " + dir_ + "/docs"), 0) << ctl_out_;

  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--checkpoint", prefix});
  ASSERT_TRUE(daemon.alive());
  const uint16_t port = daemon.ReadPortLine("duplexd listening on port ");
  ASSERT_NE(port, 0);
  // Files are indexed in sorted path order: a=0, b=1, c=2.
  ASSERT_EQ(Ctl("net-query 127.0.0.1 " + std::to_string(port) +
                " \"lists AND NOT buckets\""),
            0)
      << ctl_out_;
  EXPECT_NE(ctl_out_.find("2 matching documents"), std::string::npos)
      << ctl_out_;
  EXPECT_NE(ctl_out_.find("): 0 2\n"), std::string::npos) << ctl_out_;

  daemon.Terminate();
  EXPECT_EQ(daemon.WaitExit(), 0);
}

// The other direction: duplexd's SIGTERM shutdown checkpoint, including a
// document submitted over the wire, is what duplexctl query and stats read.
TEST_F(DuplexdAdminTest, ShutdownCheckpointIsReadableByDuplexctl) {
  const std::string prefix = dir_ + "/served";
  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--wal", prefix + ".wal",
                     "--checkpoint", prefix, dir_ + "/docs"});
  ASSERT_TRUE(daemon.alive());
  const uint16_t port = daemon.ReadPortLine("duplexd listening on port ");
  ASSERT_NE(port, 0);
  std::ofstream(dir_ + "/late.txt") << "a late document about buckets";
  ASSERT_EQ(Ctl("net-submit 127.0.0.1 " + std::to_string(port) + " " +
                dir_ + "/late.txt"),
            0)
      << ctl_out_;
  daemon.Terminate();
  ASSERT_EQ(daemon.WaitExit(), 0);

  ASSERT_EQ(Ctl("query " + prefix + " buckets"), 0) << ctl_out_;
  EXPECT_NE(ctl_out_.find("2 matching documents"), std::string::npos)
      << ctl_out_;
  EXPECT_NE(ctl_out_.find("): 1 3\n"), std::string::npos) << ctl_out_;
  ASSERT_EQ(Ctl("stats " + prefix), 0) << ctl_out_;
  EXPECT_NE(ctl_out_.find("materialized"), std::string::npos) << ctl_out_;
  EXPECT_NE(ctl_out_.find("4 shards"), std::string::npos) << ctl_out_;
}

// duplexctl reads the serving geometry (4 shards); a checkpoint cut by a
// duplexd with another --shards value is refused typed, not misread.
TEST_F(DuplexdAdminTest, OtherShardCountCheckpointIsRefused) {
  const std::string prefix = dir_ + "/two";
  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--shards", "2",
                     "--checkpoint", prefix, dir_ + "/docs"});
  ASSERT_TRUE(daemon.alive());
  ASSERT_NE(daemon.ReadPortLine("duplexd listening on port "), 0);
  daemon.Terminate();
  ASSERT_EQ(daemon.WaitExit(), 0);

  EXPECT_NE(Ctl("query " + prefix + " lists"), 0) << ctl_out_;
  EXPECT_NE(ctl_out_.find("FailedPrecondition"), std::string::npos)
      << ctl_out_;
}

// A WAL some checkpoint truncated holds only the batches past that
// checkpoint. Restarting on it without --checkpoint must fail typed and
// leave the WAL as it was, not serve an index missing every acked
// document (and hand their doc ids out again); the checkpoint + WAL pair
// still recovers them afterwards.
TEST_F(DuplexdAdminTest, TruncatedWalWithoutCheckpointIsRefused) {
  const std::string prefix = dir_ + "/served";
  const std::string wal = prefix + ".wal";
  {
    DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--wal", wal,
                       "--checkpoint", prefix});
    ASSERT_TRUE(daemon.alive());
    const uint16_t port = daemon.ReadPortLine("duplexd listening on port ");
    ASSERT_NE(port, 0);
    ASSERT_EQ(Ctl("net-submit 127.0.0.1 " + std::to_string(port) + " " +
                  dir_ + "/docs/a.txt " + dir_ + "/docs/b.txt"),
              0)
        << ctl_out_;
    // The shutdown checkpoint truncates the WAL to its epoch record.
    daemon.Terminate();
    ASSERT_EQ(daemon.WaitExit(), 0);
  }
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string truncated = file_bytes(wal);
  ASSERT_FALSE(truncated.empty());

  {
    DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--wal", wal});
    ASSERT_TRUE(daemon.alive());
    EXPECT_EQ(daemon.ReadPortLine("duplexd listening on port "), 0)
        << "served a WAL whose history lives only in a checkpoint";
    EXPECT_EQ(daemon.WaitExit(), 1);
  }
  EXPECT_EQ(file_bytes(wal), truncated);

  DaemonProc daemon({DUPLEXD_BIN, "--port", "0", "--wal", wal,
                     "--checkpoint", prefix});
  ASSERT_TRUE(daemon.alive());
  const uint16_t port = daemon.ReadPortLine("duplexd listening on port ");
  ASSERT_NE(port, 0);
  ASSERT_EQ(Ctl("net-query 127.0.0.1 " + std::to_string(port) + " lists"), 0)
      << ctl_out_;
  EXPECT_NE(ctl_out_.find("2 matching documents"), std::string::npos)
      << ctl_out_;
  EXPECT_NE(ctl_out_.find("): 0 1\n"), std::string::npos) << ctl_out_;
  daemon.Terminate();
  EXPECT_EQ(daemon.WaitExit(), 0);
}

}  // namespace
}  // namespace duplex
