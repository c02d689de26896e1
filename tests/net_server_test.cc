// Loopback server tests: duplexd's front end (net::Server over a
// ShardedIndexService) driven through net::Client on 127.0.0.1. The core
// acceptance check is bit-identical results — every boolean and vector
// query answered over TCP must match a direct ir::QueryExecutor run
// against the same index. The rest covers the failure protocol (garbage
// → typed GoAway + close, overload → typed BUSY, stale queue entries →
// deadline shedding) and Start/Stop lifecycle idempotency.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_log.h"
#include "core/sharded_index.h"
#include "gtest/gtest.h"
#include "handler_gate.h"
#include "ir/query_executor.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/service.h"
#include "net/socket.h"

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

// Every boolean query passes the fixture's HandlerGate (handler_gate.h):
// while the gate is closed, it parks its worker.
class GatedService : public ShardedIndexService {
 public:
  GatedService(core::ShardedIndex* index, core::BatchLog* wal,
               HandlerGate* gate)
      : ShardedIndexService(index, wal), gate_(gate) {}

 protected:
  Result<ir::QueryResult> Boolean(std::string_view query) override {
    gate_->Pass();
    return ShardedIndexService::Boolean(query);
  }

 private:
  HandlerGate* gate_;
};

// Index + service + running server on an ephemeral loopback port.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options = {},
                         core::BatchLog* wal = nullptr)
      : index_(SmallOptions(4)), service_(&index_, wal, &gate_) {
    index_.AddDocument("incremental updates of inverted lists");
    index_.AddDocument("text document retrieval with inverted files");
    index_.AddDocument("dual structure index for incremental text updates");
    index_.AddDocument("unrelated words entirely about something else");
    Status flushed = index_.FlushDocuments(wal);
    EXPECT_TRUE(flushed.ok()) << flushed;
    server_ = std::make_unique<Server>(&service_, options);
    Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  ~ServerFixture() {
    gate_.Open();  // Stop drains admitted requests; none may stay parked
    server_->Stop();
  }

  Client ConnectOrDie() {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(*client);
  }

  core::ShardedIndex& index() { return index_; }
  Server& server() { return *server_; }
  HandlerGate& gate() { return gate_; }

 private:
  HandlerGate gate_;
  core::ShardedIndex index_;
  GatedService service_;
  std::unique_ptr<Server> server_;
};

TEST(NetServerTest, PingAndStats) {
  ServerFixture fx;
  Client client = fx.ConnectOrDie();
  ASSERT_TRUE(client.Ping().ok());
  Result<std::string> stats = client.StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"index\""), std::string::npos);
}

TEST(NetServerTest, BooleanMatchesDirectExecutor) {
  ServerFixture fx;
  Client client = fx.ConnectOrDie();
  const std::vector<std::string> queries = {
      "inverted AND updates",
      "incremental OR retrieval",
      "text AND NOT unrelated",
      "(inverted OR dual) AND index",
      "nosuchterm",
  };
  for (const std::string& query : queries) {
    Result<ir::QueryResult> remote = client.Boolean(query);
    Result<ir::QueryResult> direct =
        ir::QueryExecutor(fx.index()).EvaluateBoolean(query);
    ASSERT_EQ(remote.ok(), direct.ok()) << query;
    if (!remote.ok()) continue;
    EXPECT_EQ(remote->docs, direct->docs) << query;
    EXPECT_EQ(remote->missing_terms, direct->missing_terms) << query;
  }
}

TEST(NetServerTest, BooleanSyntaxErrorSurfacesTyped) {
  ServerFixture fx;
  Client client = fx.ConnectOrDie();
  Result<ir::QueryResult> remote = client.Boolean("AND AND (");
  Result<ir::QueryResult> direct =
      ir::QueryExecutor(fx.index()).EvaluateBoolean("AND AND (");
  ASSERT_FALSE(direct.ok());
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), direct.status().code());
  // A handler error never tears down the connection.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, VectorMatchesDirectExecutor) {
  ServerFixture fx;
  Client client = fx.ConnectOrDie();
  ir::VectorQuery query;
  query.terms = {{"inverted", 2.0}, {"text", 1.0}, {"updates", 0.5}};
  Result<ir::VectorQueryResult> remote = client.Vector(query, 3);
  ir::QueryExecutor executor(fx.index());
  Result<ir::VectorQueryResult> direct =
      executor.EvaluateVector(query, 3, fx.index().next_doc_id());
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(remote->top.size(), direct->top.size());
  for (size_t i = 0; i < remote->top.size(); ++i) {
    EXPECT_EQ(remote->top[i].doc, direct->top[i].doc) << i;
    EXPECT_EQ(remote->top[i].score, direct->top[i].score) << i;
  }
}

TEST(NetServerTest, SubmitIsVisibleToSubsequentQueries) {
  ServerFixture fx;
  Client client = fx.ConnectOrDie();
  Result<ir::QueryResult> before = client.Boolean("zebra");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_TRUE(before->docs.empty());

  Result<SubmitDocumentsResponse> submit =
      client.Submit({"a zebra walks into an inverted index"});
  ASSERT_TRUE(submit.ok()) << submit.status();
  EXPECT_EQ(submit->accepted, 1u);
  EXPECT_EQ(submit->wal_batch_id, 0u);  // no WAL attached

  Result<ir::QueryResult> after = client.Boolean("zebra");
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after->docs.size(), 1u);
  EXPECT_EQ(after->docs[0], submit->first_doc);
  // TCP answer still matches the direct executor after the update.
  Result<ir::QueryResult> direct =
      ir::QueryExecutor(fx.index()).EvaluateBoolean("zebra");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(after->docs, direct->docs);
}

TEST(NetServerTest, SubmitReturnsWalBatchId) {
  const std::string wal_path =
      ::testing::TempDir() + "/duplex_net_server_test.wal";
  std::remove(wal_path.c_str());
  Result<std::unique_ptr<core::BatchLog>> wal = core::BatchLog::Open(wal_path);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ServerFixture fx({}, wal->get());
  Client client = fx.ConnectOrDie();
  Result<SubmitDocumentsResponse> first =
      client.Submit({"logged document one"});
  ASSERT_TRUE(first.ok()) << first.status();
  Result<SubmitDocumentsResponse> second =
      client.Submit({"logged document two"});
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(first->wal_batch_id, 0u);
  EXPECT_GT(second->wal_batch_id, first->wal_batch_id);
}

// The WAL bytes a batch submit writes, recorded once: two kSubmitDocuments
// batches (the second with a document that has no words, which still
// takes a doc id) through the service with a log attached. A refactor of
// the submit path must leave every byte of the log as it was.
constexpr unsigned char kGoldenSubmitWal[] = {
    0x42, 0x6b, 0x00, 0x03, 0x0a, 0x00, 0x01, 0x00, 0x01, 0x02, 0x00, 0x01,
    0x02, 0x01, 0x00, 0x03, 0x01, 0x00, 0x04, 0x01, 0x00, 0x05, 0x01, 0x01,
    0x06, 0x01, 0x01, 0x07, 0x01, 0x01, 0x08, 0x01, 0x01, 0x09, 0x01, 0x01,
    0x0b, 0x69, 0x6e, 0x63, 0x72, 0x65, 0x6d, 0x65, 0x6e, 0x74, 0x61, 0x6c,
    0x08, 0x69, 0x6e, 0x76, 0x65, 0x72, 0x74, 0x65, 0x64, 0x05, 0x6c, 0x69,
    0x73, 0x74, 0x73, 0x02, 0x6f, 0x66, 0x07, 0x75, 0x70, 0x64, 0x61, 0x74,
    0x65, 0x73, 0x08, 0x64, 0x6f, 0x63, 0x75, 0x6d, 0x65, 0x6e, 0x74, 0x05,
    0x66, 0x69, 0x6c, 0x65, 0x73, 0x09, 0x72, 0x65, 0x74, 0x72, 0x69, 0x65,
    0x76, 0x61, 0x6c, 0x04, 0x74, 0x65, 0x78, 0x74, 0x04, 0x77, 0x69, 0x74,
    0x68, 0xb9, 0xb5, 0xa8, 0x5d, 0xa2, 0xb8, 0x2f, 0xde, 0x41, 0x01, 0x00,
    0x04, 0x57, 0xa1, 0xb5, 0x07, 0xa2, 0x08, 0x09, 0x42, 0x4a, 0x01, 0x03,
    0x08, 0x02, 0x01, 0x04, 0x03, 0x01, 0x04, 0x04, 0x01, 0x04, 0x08, 0x01,
    0x02, 0x0a, 0x01, 0x02, 0x0b, 0x01, 0x02, 0x0c, 0x01, 0x02, 0x0d, 0x01,
    0x02, 0x05, 0x6c, 0x69, 0x73, 0x74, 0x73, 0x02, 0x6f, 0x66, 0x07, 0x75,
    0x70, 0x64, 0x61, 0x74, 0x65, 0x73, 0x04, 0x74, 0x65, 0x78, 0x74, 0x04,
    0x64, 0x75, 0x61, 0x6c, 0x03, 0x66, 0x6f, 0x72, 0x05, 0x69, 0x6e, 0x64,
    0x65, 0x78, 0x09, 0x73, 0x74, 0x72, 0x75, 0x63, 0x74, 0x75, 0x72, 0x65,
    0xa6, 0xc9, 0x41, 0x61, 0x54, 0x37, 0x61, 0x72, 0x41, 0x01, 0x01, 0xb7,
    0x58, 0xa1, 0xb5, 0x07, 0xa3, 0x08, 0x09,
};

TEST(NetServiceTest, BatchSubmitWritesGoldenWalBytes) {
  const std::string wal_path =
      ::testing::TempDir() + "/duplex_golden_submit.wal";
  std::remove(wal_path.c_str());
  {
    core::ShardedIndex index(SmallOptions(2));
    Result<std::unique_ptr<core::BatchLog>> wal =
        core::BatchLog::Open(wal_path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    ShardedIndexService service(&index, wal->get());
    const std::vector<std::vector<std::string>> batches = {
        {"incremental updates of inverted lists",
         "text document retrieval with inverted files"},
        {"dual structure index for text", "", "updates of lists"},
    };
    for (const std::vector<std::string>& documents : batches) {
      RequestCost cost;
      const std::string response = service.HandleRequest(
          static_cast<uint8_t>(Opcode::kSubmitDocuments),
          EncodeSubmitDocumentsRequest({documents}), &cost);
      ASSERT_EQ(cost.status_code, 0) << response;
    }
  }
  std::ifstream in(wal_path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, std::string(reinterpret_cast<const char*>(kGoldenSubmitWal),
                               sizeof(kGoldenSubmitWal)));
  std::remove(wal_path.c_str());
}

// duplexd's --live-ingest on the wire: without it the service answers
// kSubmitLive with typed Unimplemented and the index stays untouched;
// with it the same request is accepted and its document is searchable at
// the ack.
TEST(NetServiceTest, SubmitLiveAnswersOnlyWithLiveIngest) {
  const std::string request = EncodeSubmitLiveRequest({{"a live zebra"}});
  const auto submit_live = [&](IndexService& service) {
    RequestCost cost;
    service.HandleRequest(static_cast<uint8_t>(Opcode::kSubmitLive), request,
                          &cost);
    return static_cast<StatusCode>(cost.status_code);
  };
  {
    core::ShardedIndex index(SmallOptions(2));
    ShardedIndexService service(&index, nullptr);
    EXPECT_EQ(submit_live(service), StatusCode::kUnimplemented);
    EXPECT_EQ(index.next_doc_id(), 0u);
  }
  {
    core::ShardedIndex index(SmallOptions(2));
    ShardedIndexService service(&index, nullptr, core::LiveIndex::Options());
    EXPECT_EQ(submit_live(service), StatusCode::kOk);
    RequestCost cost;
    const std::string response = service.HandleRequest(
        static_cast<uint8_t>(Opcode::kBooleanQuery),
        EncodeBooleanQueryRequest({"zebra"}), &cost);
    ASSERT_EQ(cost.status_code, 0);
    Result<BooleanQueryResponse> found = DecodeBooleanQueryResponse(response);
    ASSERT_TRUE(found.ok()) << found.status();
    EXPECT_EQ(found->result.docs, (std::vector<DocId>{0}));
  }
}

TEST(NetServerTest, EmptySubmitIsTypedError) {
  ServerFixture fx;
  Client client = fx.ConnectOrDie();
  Result<SubmitDocumentsResponse> submit = client.Submit({});
  ASSERT_FALSE(submit.ok());
  EXPECT_TRUE(submit.status().IsInvalidArgument()) << submit.status();
  EXPECT_TRUE(client.Ping().ok());
}

// Raw garbage on the wire: the server answers exactly one GoAway frame
// carrying a typed status, then closes the connection.
TEST(NetServerTest, GarbageDrawsGoAwayAndClose) {
  ServerFixture fx;
  Result<Socket> sock = Socket::Connect("127.0.0.1", fx.server().port());
  ASSERT_TRUE(sock.ok()) << sock.status();
  const std::string garbage = "once upon a time there was no frame here";
  ASSERT_TRUE(sock->SendAll(garbage.data(), garbage.size()).ok());

  std::string header_bytes(kFrameHeaderSize, '\0');
  ASSERT_TRUE(
      sock->RecvAll(header_bytes.data(), header_bytes.size()).ok());
  Result<FrameHeader> header = DecodeFrameHeader(header_bytes);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->opcode, static_cast<uint8_t>(Opcode::kGoAway));
  std::string payload(header->payload_len, '\0');
  ASSERT_TRUE(sock->RecvAll(payload.data(), payload.size()).ok());
  std::string_view in(payload);
  Status refusal;
  ASSERT_TRUE(DecodeResponseStatus(&in, &refusal).ok());
  EXPECT_TRUE(refusal.IsCorruption()) << refusal;

  // Connection is closed after the GoAway: next read is EOF.
  char byte;
  Result<size_t> eof = sock->RecvSome(&byte, 1);
  if (eof.ok()) EXPECT_EQ(*eof, 0u);
}

TEST(NetServerTest, OversizedFrameDrawsTypedGoAway) {
  ServerOptions options;
  options.max_payload_bytes = 1024;
  ServerFixture fx(options);
  Result<Socket> sock = Socket::Connect("127.0.0.1", fx.server().port());
  ASSERT_TRUE(sock.ok()) << sock.status();
  std::string frame;
  FrameHeader header;
  header.opcode = static_cast<uint8_t>(Opcode::kBooleanQuery);
  header.request_id = 7;
  header.payload_len = 1024 * 1024;  // above the server's limit
  EncodeFrameHeader(header, &frame);
  ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());

  std::string header_bytes(kFrameHeaderSize, '\0');
  ASSERT_TRUE(
      sock->RecvAll(header_bytes.data(), header_bytes.size()).ok());
  Result<FrameHeader> resp = DecodeFrameHeader(header_bytes);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->opcode, static_cast<uint8_t>(Opcode::kGoAway));
  std::string payload(resp->payload_len, '\0');
  ASSERT_TRUE(sock->RecvAll(payload.data(), payload.size()).ok());
  std::string_view in(payload);
  Status refusal;
  ASSERT_TRUE(DecodeResponseStatus(&in, &refusal).ok());
  EXPECT_TRUE(refusal.IsInvalidArgument()) << refusal;
}

// A response-opcode frame from a client is not a request; the server
// refuses it with GoAway rather than executing it.
TEST(NetServerTest, NonRequestOpcodeDrawsGoAway) {
  ServerFixture fx;
  Result<Socket> sock = Socket::Connect("127.0.0.1", fx.server().port());
  ASSERT_TRUE(sock.ok()) << sock.status();
  std::string frame;
  EncodeFrame(static_cast<uint8_t>(Opcode::kPing) | kResponseBit, 3, "",
              &frame);
  ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  std::string header_bytes(kFrameHeaderSize, '\0');
  ASSERT_TRUE(
      sock->RecvAll(header_bytes.data(), header_bytes.size()).ok());
  Result<FrameHeader> resp = DecodeFrameHeader(header_bytes);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->opcode, static_cast<uint8_t>(Opcode::kGoAway));
  EXPECT_EQ(resp->request_id, 3u);
}

// Overload: one parked worker, tiny queues, a burst of pipelined requests.
// The overflow must come back as typed BUSY immediately — the server
// never queues unboundedly — while every admitted request still answers.
TEST(NetServerTest, OverloadDrawsTypedBusy) {
  ServerOptions options;
  options.num_workers = 1;
  options.per_connection_queue = 2;
  options.global_queue = 2;
  options.request_deadline = std::chrono::milliseconds(0);  // no shedding
  ServerFixture fx(options);
  Client client = fx.ConnectOrDie();

  const int kBurst = 12;
  const std::string payload = EncodeBooleanQueryRequest({"inverted"});
  fx.gate().Close();
  for (int i = 0; i < kBurst; ++i) {
    Result<uint64_t> sent = client.Send(Opcode::kBooleanQuery, payload);
    ASSERT_TRUE(sent.ok()) << sent.status();
  }
  // While the gate is closed no query can answer OK, so the first
  // response to arrive is an overflow BUSY; then let the admitted ones run.
  int ok = 0, busy = 0;
  for (int i = 0; i < kBurst; ++i) {
    if (i == 1) fx.gate().Open();
    Result<ClientResponse> resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->status.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(resp->status.IsResourceExhausted()) << resp->status;
      ++busy;
    }
  }
  EXPECT_GT(busy, 0) << "burst never overflowed the queues";
  EXPECT_GT(ok, 0) << "admitted requests must still answer";
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_EQ(fx.server().requests_rejected(), static_cast<uint64_t>(busy));
}

// Deadline shedding: with the one worker parked on the first request and
// a 20ms admission-to-execution budget, pipelined requests behind it sit
// past their deadline and must be shed as BUSY, not executed.
TEST(NetServerTest, StaleQueuedRequestsAreShed) {
  ServerOptions options;
  options.num_workers = 1;
  options.per_connection_queue = 16;
  options.global_queue = 16;
  options.request_deadline = std::chrono::milliseconds(20);
  ServerFixture fx(options);
  Client client = fx.ConnectOrDie();

  const int kBurst = 4;
  const std::string payload = EncodeBooleanQueryRequest({"inverted"});
  fx.gate().Close();
  for (int i = 0; i < kBurst; ++i) {
    Result<uint64_t> sent = client.Send(Opcode::kBooleanQuery, payload);
    ASSERT_TRUE(sent.ok()) << sent.status();
  }
  ASSERT_TRUE(fx.gate().AwaitParked(1));
  ASSERT_TRUE(WaitUntil(
      [&] { return fx.server().queue_depth() == kBurst - 1; }));
  // The queued requests outlive their budget while the worker is parked.
  std::this_thread::sleep_for(3 * options.request_deadline);
  fx.gate().Open();
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<ClientResponse> resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->status.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(resp->status.IsResourceExhausted()) << resp->status;
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GT(shed, 0) << "stale requests were executed instead of shed";
}

TEST(NetServerTest, StopWithoutStartIsSafe) {
  core::ShardedIndex index(SmallOptions(2));
  ShardedIndexService service(&index, nullptr);
  Server server(&service, {});
  server.Stop();  // never started
  server.Stop();  // and again
  EXPECT_FALSE(server.running());
}

TEST(NetServerTest, StopIsIdempotentAndRestartable) {
  core::ShardedIndex index(SmallOptions(2));
  index.AddDocument("restart survivor document");
  ASSERT_TRUE(index.FlushDocuments().ok());
  ShardedIndexService service(&index, nullptr);
  Server server(&service, {});
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(server.Start().ok()) << "round " << round;
    EXPECT_TRUE(server.running());
    Result<Client> client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_TRUE(client->Ping().ok()) << "round " << round;
    server.Stop();
    server.Stop();  // double Stop
    EXPECT_FALSE(server.running());
  }
  // Destructor after Stop is the third redundant shutdown.
}

TEST(NetServerTest, StopDrainsAdmittedRequests) {
  ServerOptions options;
  options.num_workers = 1;
  ServerFixture fx(options);
  Client client = fx.ConnectOrDie();
  const std::string payload = EncodeBooleanQueryRequest({"inverted"});
  fx.gate().Close();
  Result<uint64_t> sent = client.Send(Opcode::kBooleanQuery, payload);
  ASSERT_TRUE(sent.ok()) << sent.status();
  // The request is admitted and executing; stop the server under it. Once
  // the listener refuses connections Stop is under way, and the admitted
  // request must still be answered before Stop returns.
  ASSERT_TRUE(fx.gate().AwaitParked(1));
  const uint16_t port = fx.server().port();
  std::thread stopper([&] { fx.server().Stop(); });
  EXPECT_TRUE(
      WaitUntil([&] { return !Client::Connect("127.0.0.1", port).ok(); }));
  fx.gate().Open();
  stopper.join();
  Result<ClientResponse> resp = client.Receive();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->request_id, *sent);
  EXPECT_TRUE(resp->status.ok()) << resp->status;
}

TEST(NetServerTest, CountersTrackTraffic) {
  ServerFixture fx;
  {
    Client client = fx.ConnectOrDie();
    ASSERT_TRUE(client.Ping().ok());
    ASSERT_TRUE(client.Ping().ok());
  }
  {
    Client client = fx.ConnectOrDie();
    ASSERT_TRUE(client.Ping().ok());
  }
  EXPECT_EQ(fx.server().connections_accepted(), 2u);
  EXPECT_EQ(fx.server().requests_handled(), 3u);
  EXPECT_EQ(fx.server().requests_rejected(), 0u);
}

// --- Client robustness: timeouts and BUSY retry ----------------------------

TEST(NetClientTest, ConnectWithDeadlineReachesLiveServer) {
  ServerFixture fx;
  ClientOptions options;
  options.connect_timeout = std::chrono::milliseconds(2000);
  options.recv_timeout = std::chrono::milliseconds(2000);
  Result<Client> client =
      Client::Connect("127.0.0.1", fx.server().port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(client->retries(), 0u);
}

TEST(NetClientTest, RecvTimeoutUnwedgesFromSilentPeer) {
  // A listener that accepts and then says nothing: without a recv
  // deadline the client would hang forever; with one it must surface a
  // typed kIoError once the bounded retry budget drains.
  Result<Listener> listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  std::thread acceptor([&listener] {
    Result<Socket> conn = listener->Accept();
    if (conn.ok()) {
      // Hold the socket open, never respond, until the listener closes.
      char byte;
      (void)conn->RecvAll(&byte, 1);
    }
  });

  ClientOptions options;
  options.recv_timeout = std::chrono::milliseconds(50);
  options.max_retries = 0;
  Result<Client> client =
      Client::Connect("127.0.0.1", listener->port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const Status status = client->Ping();
  EXPECT_TRUE(status.IsIoError()) << status;

  client->Close();
  listener->Close();
  acceptor.join();
}

// Overloaded fixture: one worker behind tiny queues, with a connection cap
// one above the global queue, so a single connection can park the worker
// on the gate and then fill the whole queue.
ServerOptions OverloadOptions() {
  ServerOptions options;
  options.num_workers = 1;
  options.per_connection_queue = 3;
  options.global_queue = 2;
  options.request_deadline = std::chrono::milliseconds(0);  // no shedding
  return options;
}

// Saturates the server from a second connection and returns it (the
// responses stay unread). The first request parks the only worker on the
// closed gate; the next ones fill the global queue, and the rest of the
// burst is answered BUSY. Until the test opens the gate, every further
// request from any connection meets a full queue.
Client FloodServer(ServerFixture& fx, int burst) {
  fx.gate().Close();
  Client flooder = fx.ConnectOrDie();
  const std::string payload = EncodeBooleanQueryRequest({"inverted"});
  for (int i = 0; i < burst; ++i) {
    Result<uint64_t> sent = flooder.Send(Opcode::kBooleanQuery, payload);
    EXPECT_TRUE(sent.ok()) << sent.status();
    if (i == 0) {
      EXPECT_TRUE(fx.gate().AwaitParked(1));
    }
  }
  Server& server = fx.server();
  const uint64_t overflow = burst - 1 - server.queue_capacity();
  EXPECT_TRUE(WaitUntil([&] {
    return server.queue_depth() == server.queue_capacity() &&
           server.requests_rejected() == overflow;
  }));
  return flooder;
}

TEST(NetClientTest, BusyWithoutRetryStaysTyped) {
  ServerFixture fx(OverloadOptions());
  Client flooder = FloodServer(fx, 12);

  ClientOptions options;
  options.max_retries = 0;
  Result<Client> client =
      Client::Connect("127.0.0.1", fx.server().port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  // The worker is parked and the queue is full until the gate opens; with
  // retry disabled the typed BUSY must reach the caller unchanged.
  Result<ir::QueryResult> result = client->Boolean("inverted");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted()) << result.status();
  EXPECT_EQ(client->retries(), 0u);
}

TEST(NetClientTest, BusyRetryBacksOffUntilTheQueueDrains) {
  ServerFixture fx(OverloadOptions());
  Client flooder = FloodServer(fx, 12);

  ClientOptions options;
  // Generous budget: after the gate opens the single worker must still
  // drain the flood, and on a loaded machine it can fall far behind
  // wall-clock — exhaustion must not race the drain.
  options.max_retries = 60;
  options.initial_backoff = std::chrono::milliseconds(40);
  options.max_backoff = std::chrono::milliseconds(100);
  options.retry_seed = 42;  // deterministic jitter
  Result<Client> client =
      Client::Connect("127.0.0.1", fx.server().port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  // Open the gate only once the probe's first attempt has been turned
  // away, so at least one retry is certain.
  const uint64_t flood_rejected = fx.server().requests_rejected();
  std::thread releaser([&] {
    WaitUntil(
        [&] { return fx.server().requests_rejected() > flood_rejected; });
    fx.gate().Open();
  });

  // First attempt lands while the flood still owns the queues -> BUSY ->
  // bounded jittered backoff until the worker drains it.
  Result<ir::QueryResult> result = client->Boolean("inverted");
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(client->retries(), 0u);
  EXPECT_LE(client->retries(), options.max_retries);

  // The flood's own responses are all still deliverable (OK or BUSY —
  // pipelined sends bypass the retry loop by design).
  for (int i = 0; i < 12; ++i) {
    Result<ClientResponse> resp = flooder.Receive();
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_TRUE(resp->status.ok() || resp->status.IsResourceExhausted());
  }
}

TEST(NetClientTest, OnlyBusyIsRetried) {
  ServerFixture fx;
  ClientOptions options;
  options.max_retries = 5;
  options.initial_backoff = std::chrono::milliseconds(1);
  Result<Client> client =
      Client::Connect("127.0.0.1", fx.server().port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  // A syntax error is typed InvalidArgument: it must surface immediately,
  // not burn the retry budget on a request that can never succeed.
  Result<ir::QueryResult> result = client->Boolean("AND AND");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
  EXPECT_EQ(client->retries(), 0u);
}

}  // namespace
}  // namespace duplex::net
