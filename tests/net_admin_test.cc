// Admin-plane tests: the AdminServer's HTTP endpoints (routing tested
// in-process, then over real loopback sockets via HttpGet), the
// Readiness lifecycle /readyz narrates, the slow-query ring, and the
// request-lifecycle instrumentation net::Server feeds the plane with.
// The scrape-while-recording test runs under TSan in CI: an exporter
// thread hammers /metrics and /slowz while worker threads execute
// requests and record into the same registry and ring.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_index.h"
#include "gtest/gtest.h"
#include "net/admin_server.h"
#include "net/client.h"
#include "net/server.h"
#include "net/service.h"
#include "net/slow_query_log.h"
#include "util/metrics.h"

namespace duplex::net {
namespace {

core::ShardedIndexOptions SmallOptions(uint32_t shards) {
  core::IndexOptions total;
  total.buckets.num_buckets = 128;
  total.buckets.bucket_capacity = 64;
  total.policy = core::Policy::RecommendedUpdateOptimized();
  total.block_postings = 32;
  total.disks.num_disks = 2;
  total.disks.blocks_per_disk = 4096;
  total.disks.checksums = true;
  total.materialize = true;
  return core::ShardedIndexOptions::Partition(total, shards);
}

// --- Readiness --------------------------------------------------------------

TEST(ReadinessTest, StartsNotReadyAndNarratesStages) {
  Readiness readiness;
  EXPECT_FALSE(readiness.ready());
  EXPECT_EQ(readiness.stage(), "starting");
  readiness.SetStage("recovering");
  EXPECT_FALSE(readiness.ready());
  EXPECT_EQ(readiness.stage(), "recovering");
  readiness.SetReady();
  EXPECT_TRUE(readiness.ready());
  EXPECT_EQ(readiness.stage(), "ready");
  readiness.SetDraining();
  EXPECT_FALSE(readiness.ready());
  EXPECT_EQ(readiness.stage(), "draining");
}

// --- SlowQueryLog -----------------------------------------------------------

SlowQueryRecord MakeRecord(uint64_t id) {
  SlowQueryRecord r;
  r.request_id = id;
  r.queue_wait_ns = 10;
  r.execute_ns = id * 100;
  r.respond_ns = 5;
  return r;
}

TEST(SlowQueryLogTest, RingOverwritesOldestKeepsNewestFirst) {
  SlowQueryLog log(3);
  for (uint64_t id = 1; id <= 5; ++id) log.Record(MakeRecord(id));
  EXPECT_EQ(log.total_recorded(), 5u);
  const std::vector<SlowQueryRecord> recent = log.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].request_id, 5u);
  EXPECT_EQ(recent[1].request_id, 4u);
  EXPECT_EQ(recent[2].request_id, 3u);
}

TEST(SlowQueryLogTest, ToJsonListsRecordsAndTotals) {
  SlowQueryLog log(8);
  log.Record(MakeRecord(42));
  const std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"request_id\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_ns\": " + std::to_string(10 + 4200 + 5)),
            std::string::npos)
      << json;
}

// --- AdminServer routing (in-process, no sockets) ---------------------------

TEST(AdminServerTest, RoutesAllEndpoints) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_admin_probe_total", "probe")->Inc(7);
  MetricsRegistry* prev = SetGlobalMetrics(&registry);
  Readiness readiness;
  SlowQueryLog slow_log(4);
  AdminServerOptions options;
  options.readiness = &readiness;
  options.slow_log = &slow_log;
  options.statusz = [] { return std::string("{\"shards\": 2}\n"); };
  AdminServer admin(options);

  EXPECT_NE(admin.HandlePath("/healthz").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/metrics").find("duplex_admin_probe_total 7"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/metrics.json").find("application/json"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/statusz").find("\"shards\": 2"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/slowz").find("\"slow_queries\""),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/nope").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("").find("HTTP/1.0 405"), std::string::npos);

  // /readyz follows the Readiness lifecycle: 503 + stage, 200, 503 again.
  EXPECT_NE(admin.HandlePath("/readyz").find("HTTP/1.0 503"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/readyz").find("not ready: starting"),
            std::string::npos);
  readiness.SetReady();
  EXPECT_NE(admin.HandlePath("/readyz").find("HTTP/1.0 200"),
            std::string::npos);
  readiness.SetDraining();
  EXPECT_NE(admin.HandlePath("/readyz").find("not ready: draining"),
            std::string::npos);
  SetGlobalMetrics(prev);
}

TEST(AdminServerTest, NullCollaboratorsServeDefaults) {
  AdminServer admin(AdminServerOptions{});
  // No readiness installed: always ready (an admin-only deployment).
  EXPECT_NE(admin.HandlePath("/readyz").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(admin.HandlePath("/statusz").find("{}"), std::string::npos);
  EXPECT_NE(admin.HandlePath("/slowz").find("\"slow_queries\": []"),
            std::string::npos);
  // No registry installed: /metrics is empty but still 200.
  EXPECT_NE(admin.HandlePath("/metrics").find("HTTP/1.0 200"),
            std::string::npos);
}

// --- AdminServer over real sockets ------------------------------------------

TEST(AdminServerTest, HttpLoopbackServesMetricsAndHealth) {
  MetricsRegistry registry;
  registry.GetCounter("duplex_loopback_total", "probe")->Inc(3);
  MetricsRegistry* prev = SetGlobalMetrics(&registry);
  Readiness readiness;
  AdminServerOptions options;
  options.readiness = &readiness;
  AdminServer admin(options);
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_NE(admin.port(), 0);

  Result<HttpResponse> health = HttpGet("127.0.0.1", admin.port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "ok\n");

  Result<HttpResponse> metrics = HttpGet("127.0.0.1", admin.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("# TYPE duplex_loopback_total counter"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("duplex_loopback_total 3"), std::string::npos);

  Result<HttpResponse> ready = HttpGet("127.0.0.1", admin.port(), "/readyz");
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status_code, 503);
  readiness.SetReady();
  ready = HttpGet("127.0.0.1", admin.port(), "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_EQ(ready->status_code, 200);

  EXPECT_GE(admin.requests_served(), 4u);
  admin.Stop();
  SetGlobalMetrics(prev);
}

TEST(AdminServerTest, StartStopLifecycleIsIdempotent) {
  AdminServer admin(AdminServerOptions{});
  admin.Stop();  // no-op before Start
  ASSERT_TRUE(admin.Start().ok());
  EXPECT_FALSE(admin.Start().ok());  // already running
  const uint16_t first_port = admin.port();
  admin.Stop();
  admin.Stop();  // idempotent
  ASSERT_TRUE(admin.Start().ok());  // restart on a fresh socket
  EXPECT_NE(admin.port(), 0);
  (void)first_port;
  admin.Stop();
}

// --- net::Server lifecycle instrumentation ----------------------------------

// Server + service + admin wired the way duplexd wires them.
// A service whose boolean queries take at least `delay`: the slow
// requests the slow-query tests need.
class SlowBooleanService : public ShardedIndexService {
 public:
  SlowBooleanService(core::ShardedIndex* index,
                     std::chrono::milliseconds delay)
      : ShardedIndexService(index, nullptr), delay_(delay) {}

 protected:
  Result<ir::QueryResult> Boolean(std::string_view query) override {
    std::this_thread::sleep_for(delay_);
    return ShardedIndexService::Boolean(query);
  }

 private:
  std::chrono::milliseconds delay_;
};

class InstrumentedFixture {
 public:
  explicit InstrumentedFixture(
      ServerOptions options,
      std::chrono::milliseconds boolean_delay = std::chrono::milliseconds(0))
      : index_(SmallOptions(2)), service_(&index_, boolean_delay) {
    index_.AddDocument("incremental updates of inverted lists");
    index_.AddDocument("text document retrieval with inverted files");
    index_.AddDocument("dual structure index for incremental text updates");
    Status flushed = index_.FlushDocuments(nullptr);
    EXPECT_TRUE(flushed.ok()) << flushed;
    server_ = std::make_unique<Server>(&service_, options);
    EXPECT_TRUE(server_->Start().ok());
  }
  ~InstrumentedFixture() { server_->Stop(); }

  Client ConnectOrDie() {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }
  Server& server() { return *server_; }

 private:
  core::ShardedIndex index_;
  SlowBooleanService service_;
  std::unique_ptr<Server> server_;
};

TEST(ServerInstrumentationTest, PhaseHistogramsAndGaugesPopulate) {
  MetricsRegistry registry;
  MetricsRegistry* prev = SetGlobalMetrics(&registry);
  {
    InstrumentedFixture fx({});
    Client client = fx.ConnectOrDie();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(client.Ping().ok());
    }
    Result<ir::QueryResult> result = client.Boolean("inverted AND updates");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(fx.server().open_connections(), 1);
    EXPECT_EQ(fx.server().queue_capacity(), 1024u);
  }
  const std::string text = registry.ExportPrometheus();
  // All three lifecycle phases saw every request.
  for (const char* phase : {"queue_wait", "execute", "respond"}) {
    const std::string series =
        std::string("duplex_net_phase_ns_count{phase=\"") + phase + "\"} 6";
    EXPECT_NE(text.find(series), std::string::npos) << phase << "\n" << text;
  }
  // The new admission gauges exist alongside the legacy open-conns gauge.
  EXPECT_NE(text.find("duplex_net_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("duplex_net_connections 0"), std::string::npos);
  SetGlobalMetrics(prev);
}

TEST(ServerInstrumentationTest, SlowQueriesLandInRingWithCostCounters) {
  ServerOptions options;
  options.slow_query_threshold = std::chrono::milliseconds(1);
  InstrumentedFixture fx(options, std::chrono::milliseconds(5));
  Client client = fx.ConnectOrDie();
  Result<ir::QueryResult> result = client.Boolean("inverted AND updates");
  ASSERT_TRUE(result.ok()) << result.status();
  result = client.Boolean("text OR dual");
  ASSERT_TRUE(result.ok()) << result.status();

  // The worker records the slow entry after writing the response, so
  // the client can get its reply a beat before the record lands — poll.
  const SlowQueryLog& slow = fx.server().slow_queries();
  for (int waited = 0; slow.total_recorded() < 2 && waited < 2000;
       waited += 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(slow.total_recorded(), 2u);
  const std::vector<SlowQueryRecord> recent = slow.Recent();
  ASSERT_FALSE(recent.empty());
  bool saw_query = false;
  for (const SlowQueryRecord& r : recent) {
    EXPECT_GT(r.execute_ns, 1000000u);  // the 5ms boolean delay
    EXPECT_GT(r.response_bytes, 0u);
    if (r.opcode == static_cast<uint8_t>(Opcode::kBooleanQuery)) {
      saw_query = true;
      EXPECT_GT(r.read_ops, 0u);  // cost counters flowed through
    }
  }
  EXPECT_TRUE(saw_query);
}

TEST(ServerInstrumentationTest, FastRequestsStayOutOfSlowLog) {
  ServerOptions options;
  options.slow_query_threshold = std::chrono::milliseconds(1000);
  InstrumentedFixture fx(options);
  Client client = fx.ConnectOrDie();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(fx.server().slow_queries().total_recorded(), 0u);
}

// --- exporter scraping while workers record (TSan target) -------------------

TEST(ServerInstrumentationTest, AdminScrapesRaceRequestRecording) {
  MetricsRegistry registry;
  MetricsRegistry* prev = SetGlobalMetrics(&registry);
  {
    // Every query is slow (1ms threshold, 2ms boolean delay), so worker
    // threads write the slow ring while the scraper reads it.
    ServerOptions options;
    options.slow_query_threshold = std::chrono::milliseconds(1);
    InstrumentedFixture fx(options, std::chrono::milliseconds(2));

    Readiness readiness;
    readiness.SetReady();
    AdminServerOptions admin_options;
    admin_options.readiness = &readiness;
    admin_options.slow_log = &fx.server().slow_queries();
    admin_options.statusz = [&fx] {
      return "{\"depth\": " + std::to_string(fx.server().queue_depth()) +
             "}\n";
    };
    AdminServer admin(admin_options);
    ASSERT_TRUE(admin.Start().ok());

    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
      clients.emplace_back([&fx, &stop] {
        Client client = fx.ConnectOrDie();
        while (!stop.load()) {
          if (!client.Boolean("inverted OR text").ok()) break;
        }
      });
    }
    std::thread scraper([&admin, &stop] {
      while (!stop.load()) {
        for (const char* path :
             {"/metrics", "/metrics.json", "/slowz", "/statusz", "/readyz"}) {
          Result<HttpResponse> resp =
              HttpGet("127.0.0.1", admin.port(), path);
          ASSERT_TRUE(resp.ok()) << path << ": " << resp.status();
          EXPECT_EQ(resp->status_code, 200) << path;
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (std::thread& t : clients) t.join();
    scraper.join();
    EXPECT_GT(admin.requests_served(), 0u);
    admin.Stop();
  }
  SetGlobalMetrics(prev);
}

}  // namespace
}  // namespace duplex::net
