#include "net/server.h"

#include <utility>

#include "util/log.h"
#include "util/tracer.h"

namespace duplex::net {

namespace {

constexpr size_t kRecvChunk = 64 * 1024;

// 1-in-N per-worker sampling for request lifecycle spans (first request
// on each worker included, so short runs still produce spans). Slow
// requests bypass the sampler and always trace.
constexpr uint32_t kRequestSpanSampleEvery = 64;

}  // namespace

Server::Server(IndexService* service, ServerOptions options)
    : service_(service),
      options_(options),
      slow_log_(options.slow_log_capacity) {
  m_requests_ = GlobalCounter("duplex_net_requests_total",
                              "Requests executed by the worker pool");
  m_rejected_queue_full_ =
      GlobalCounter("duplex_net_rejected_total",
                    "Requests shed by admission control",
                    "reason=\"queue_full\"");
  m_rejected_deadline_ =
      GlobalCounter("duplex_net_rejected_total",
                    "Requests shed by admission control",
                    "reason=\"deadline\"");
  m_frame_errors_ = GlobalCounter(
      "duplex_net_frame_errors_total",
      "Unparseable frames answered with GoAway + connection close");
  m_connections_ = GlobalCounter("duplex_net_connections_total",
                                 "Connections accepted");
  m_bytes_in_ =
      GlobalCounter("duplex_net_bytes_total", "Socket bytes", "dir=\"in\"");
  m_bytes_out_ =
      GlobalCounter("duplex_net_bytes_total", "Socket bytes", "dir=\"out\"");
  m_inflight_ = GlobalGauge("duplex_net_inflight",
                            "Requests admitted but not yet answered");
  m_queue_depth_ = GlobalGauge("duplex_net_queue_depth",
                               "Worker-queue depth sampled at admission");
  m_connections_gauge_ = GlobalGauge(
      "duplex_net_connections", "Currently open client connections");
  for (const Opcode op :
       {Opcode::kPing, Opcode::kBooleanQuery, Opcode::kVectorQuery,
        Opcode::kSubmitDocuments, Opcode::kStats, Opcode::kSubmitLive}) {
    const uint8_t code = static_cast<uint8_t>(op);
    m_request_ns_[code] = GlobalLatency(
        "duplex_net_request_ns", "Per-opcode request execution latency",
        std::string("op=\"") + OpcodeName(code) + "\"");
  }
  m_phase_queue_wait_ =
      GlobalLatency("duplex_net_phase_ns", "Request lifecycle phase latency",
                    LabelPair("phase", "queue_wait"));
  m_phase_execute_ =
      GlobalLatency("duplex_net_phase_ns", "Request lifecycle phase latency",
                    LabelPair("phase", "execute"));
  m_phase_respond_ =
      GlobalLatency("duplex_net_phase_ns", "Request lifecycle phase latency",
                    LabelPair("phase", "respond"));
}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  Result<Listener> listener = Listener::Bind(options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  connections_accepted_.store(0, std::memory_order_relaxed);
  requests_handled_.store(0, std::memory_order_relaxed);
  requests_rejected_.store(0, std::memory_order_relaxed);
  queue_ = std::make_unique<BoundedQueue<WorkItem>>(options_.global_queue);
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  running_.store(true, std::memory_order_release);
  LogInfo("net.server.start")
      .U64("port", port_)
      .U64("workers", options_.num_workers)
      .U64("global_queue", options_.global_queue)
      .I64("slow_query_ms",
           static_cast<int64_t>(options_.slow_query_threshold.count()));
  return Status::OK();
}

void Server::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!running_.load(std::memory_order_acquire)) return;  // idempotent
  stopping_.store(true, std::memory_order_release);

  // 1. No new connections: close the listener, join the accept loop.
  listener_.Close();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. No new requests: half-close every connection's read side so the
  //    reader threads see EOF after the frames already in flight, then
  //    join them. Responses can still be written.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) conn->sock.ShutdownRead();
  }
  ReapConnections(/*all=*/true);

  // 3. Drain: close the queue (admitted work still pops) and join the
  //    workers once every in-flight request has been answered.
  queue_->Close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  running_.store(false, std::memory_order_release);
  if (m_inflight_ != nullptr) m_inflight_->Set(0);
  if (m_queue_depth_ != nullptr) m_queue_depth_->Set(0);
  if (m_connections_gauge_ != nullptr) m_connections_gauge_->Set(0);
  LogInfo("net.server.stop")
      .U64("port", port_)
      .U64("requests_handled", requests_handled())
      .U64("requests_rejected", requests_rejected())
      .U64("connections_accepted", connections_accepted());
}

void Server::AcceptLoop() {
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      // Transient accept failure (EMFILE and friends): brief pause, keep
      // serving existing connections.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (!listener_.valid()) return;
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(*accepted);
    (void)conn->sock.SetNoDelay();
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conn->id = ++next_conn_id_;
      conns_.push_back(conn);
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (m_connections_ != nullptr) m_connections_->Inc();
    const int64_t open =
        open_conns_now_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (m_connections_gauge_ != nullptr) {
      m_connections_gauge_->Set(static_cast<double>(open));
    }
    conn->reader = std::thread([this, conn] {
      ReaderLoop(conn);
      conn->reader_done.store(true, std::memory_order_release);
      const int64_t now_open =
          open_conns_now_.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (m_connections_gauge_ != nullptr) {
        m_connections_gauge_->Set(static_cast<double>(now_open));
      }
    });
    ReapConnections(/*all=*/false);
  }
}

void Server::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  FrameAssembler assembler(options_.max_payload_bytes);
  std::vector<uint8_t> buffer(kRecvChunk);
  uint64_t last_request_id = 0;
  while (conn->open.load(std::memory_order_acquire)) {
    Result<size_t> n = conn->sock.RecvSome(buffer.data(), buffer.size());
    if (!n.ok() || *n == 0) break;  // EOF, reset, or shutdown
    if (m_bytes_in_ != nullptr) m_bytes_in_->Inc(*n);
    const Status fed = assembler.Feed(std::string_view(
        reinterpret_cast<const char*>(buffer.data()), *n));
    while (assembler.HasFrame() &&
           conn->open.load(std::memory_order_acquire)) {
      Frame frame = assembler.Next();
      last_request_id = frame.header.request_id;
      if (!IsRequestOpcode(frame.header.opcode)) {
        if (m_frame_errors_ != nullptr) m_frame_errors_->Inc();
        LogWarn("net.goaway")
            .U64("conn", conn->id)
            .U64("opcode", frame.header.opcode)
            .Str("reason", "frame opcode is not a request");
        std::string payload;
        EncodeResponseStatus(
            Status::InvalidArgument("frame opcode is not a request"),
            &payload);
        WriteResponse(conn, static_cast<uint8_t>(Opcode::kGoAway),
                      frame.header.request_id, payload);
        conn->open.store(false, std::memory_order_release);
        // The stream is refused: full shutdown so the peer sees EOF now
        // rather than when the connection is reaped.
        conn->sock.ShutdownBoth();
        break;
      }
      if (stopping_.load(std::memory_order_acquire)) {
        RejectRequest(conn, frame.header, "server stopping",
                      m_rejected_queue_full_);
        continue;
      }
      // Admission control: per-connection bound first, then the shared
      // worker queue. Both full states answer typed BUSY immediately —
      // the queue never grows without bound and the reader never blocks.
      if (conn->inflight.load(std::memory_order_acquire) >=
          options_.per_connection_queue) {
        RejectRequest(conn, frame.header, "per-connection queue full",
                      m_rejected_queue_full_);
        continue;
      }
      WorkItem item;
      item.conn = conn;
      item.header = frame.header;
      item.payload = std::move(frame.payload);
      item.enqueue_ns = MonotonicNanos();
      conn->inflight.fetch_add(1, std::memory_order_acq_rel);
      const int64_t inflight =
          inflight_now_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (m_inflight_ != nullptr) {
        m_inflight_->Set(static_cast<double>(inflight));
      }
      if (!queue_->TryPush(std::move(item))) {
        conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
        inflight_now_.fetch_sub(1, std::memory_order_relaxed);
        RejectRequest(conn, frame.header, "server queue full",
                      m_rejected_queue_full_);
      } else if (m_queue_depth_ != nullptr) {
        m_queue_depth_->Set(static_cast<double>(queue_->size()));
      }
    }
    if (!fed.ok()) {
      // Garbage on the wire: answer once, typed, then hang up. There is
      // no resynchronization point in a corrupt length-prefixed stream.
      if (m_frame_errors_ != nullptr) m_frame_errors_->Inc();
      LogWarn("net.goaway")
          .U64("conn", conn->id)
          .Str("reason", fed.message());
      std::string payload;
      EncodeResponseStatus(fed, &payload);
      WriteResponse(conn, static_cast<uint8_t>(Opcode::kGoAway),
                    last_request_id, payload);
      conn->open.store(false, std::memory_order_release);
      conn->sock.ShutdownBoth();
      break;
    }
  }
  conn->open.store(false, std::memory_order_release);
  // Writers may still answer in-flight requests; only reading stops.
  conn->sock.ShutdownRead();
}

void Server::WorkerLoop() {
  WorkItem item;
  while (queue_->Pop(&item)) {
    Execute(std::move(item));
    item = WorkItem{};  // release the connection ref between requests
  }
}

void Server::Execute(WorkItem item) {
  const uint8_t opcode = item.header.opcode;
  const uint8_t response_opcode = opcode | kResponseBit;
  // Phase 1 boundary: the worker picked the request up — everything since
  // admission was queue wait.
  const uint64_t dequeue_ns = MonotonicNanos();
  const uint64_t queue_wait_ns = dequeue_ns - item.enqueue_ns;
  if (m_phase_queue_wait_ != nullptr) {
    m_phase_queue_wait_->Record(queue_wait_ns);
  }
  const auto deadline_ns = static_cast<uint64_t>(
      options_.request_deadline.count() * 1000 * 1000);
  if (deadline_ns > 0 && queue_wait_ns > deadline_ns) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    if (m_rejected_deadline_ != nullptr) m_rejected_deadline_->Inc();
    std::string payload;
    EncodeResponseStatus(
        Status::ResourceExhausted("deadline exceeded in queue"), &payload);
    WriteResponse(item.conn, response_opcode, item.header.request_id,
                  payload);
  } else {
    RequestCost cost;
    std::string payload;
    const uint64_t execute_start_ns = MonotonicNanos();
    {
      ScopedLatency timer(m_request_ns_[opcode < m_request_ns_.size()
                                            ? opcode
                                            : 0]);
      payload = service_->HandleRequest(opcode, item.payload, &cost);
    }
    const uint64_t execute_ns = MonotonicNanos() - execute_start_ns;
    if (m_phase_execute_ != nullptr) m_phase_execute_->Record(execute_ns);
    requests_handled_.fetch_add(1, std::memory_order_relaxed);
    if (m_requests_ != nullptr) m_requests_->Inc();
    const uint64_t respond_start_ns = MonotonicNanos();
    WriteResponse(item.conn, response_opcode, item.header.request_id,
                  payload);
    const uint64_t respond_ns = MonotonicNanos() - respond_start_ns;
    if (m_phase_respond_ != nullptr) m_phase_respond_->Record(respond_ns);
    const auto threshold_ns = static_cast<uint64_t>(
        options_.slow_query_threshold.count() * 1000 * 1000);
    const bool slow = threshold_ns > 0 &&
                      queue_wait_ns + execute_ns + respond_ns > threshold_ns;
    // The phase histograms above see every request; span records are
    // sampled per worker — an unsampled ring push with string attrs
    // would rival the cheap requests it measures (same rationale as
    // ir.query). Slow requests always trace: every phase interval was
    // timed regardless, so their spans are recorded retroactively and
    // correlate via the wire request id.
    static thread_local uint32_t trace_tick = 0;
    const bool sampled = trace_tick++ % kRequestSpanSampleEvery == 0;
    if (GlobalTracer() != nullptr && (sampled || slow)) {
      const std::string request_id_str =
          std::to_string(item.header.request_id);
      const std::string op(OpcodeName(opcode));
      TraceCompleted("net.queue_wait", item.enqueue_ns, queue_wait_ns,
                     {{"request_id", request_id_str}, {"op", op}});
      TraceCompleted("net.execute", execute_start_ns, execute_ns,
                     {{"request_id", request_id_str}, {"op", op}});
      TraceCompleted("net.respond", respond_start_ns, respond_ns,
                     {{"request_id", request_id_str}, {"op", op}});
    }
    if (slow) {
      SlowQueryRecord record;
      record.request_id = item.header.request_id;
      record.conn_id = item.conn->id;
      record.opcode = opcode;
      record.status_code = cost.status_code;
      record.admitted_ns = item.enqueue_ns;
      record.queue_wait_ns = queue_wait_ns;
      record.execute_ns = execute_ns;
      record.respond_ns = respond_ns;
      record.read_ops = cost.read_ops;
      record.cached_read_ops = cost.cached_read_ops;
      record.postings_read = cost.postings_read;
      record.response_bytes = static_cast<uint32_t>(payload.size());
      slow_log_.Record(record);
      LogWarn("net.slow_query")
          .U64("request_id", item.header.request_id)
          .Str("op", OpcodeName(opcode))
          .U64("queue_wait_ns", queue_wait_ns)
          .U64("execute_ns", execute_ns)
          .U64("respond_ns", respond_ns)
          .U64("read_ops", cost.read_ops)
          .U64("postings_read", cost.postings_read);
    }
  }
  item.conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  const int64_t inflight =
      inflight_now_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (m_inflight_ != nullptr) {
    m_inflight_->Set(static_cast<double>(inflight));
  }
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           uint8_t opcode, uint64_t request_id,
                           std::string_view payload) {
  if (!conn->open.load(std::memory_order_acquire) &&
      (opcode & kResponseBit) == 0 &&
      opcode != static_cast<uint8_t>(Opcode::kGoAway)) {
    return;
  }
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  EncodeFrame(opcode, request_id, payload, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  const Status sent = conn->sock.SendAll(frame.data(), frame.size());
  if (!sent.ok()) {
    conn->open.store(false, std::memory_order_release);
    conn->sock.ShutdownBoth();
    return;
  }
  if (m_bytes_out_ != nullptr) m_bytes_out_->Inc(frame.size());
}

void Server::RejectRequest(const std::shared_ptr<Connection>& conn,
                           const FrameHeader& header, const char* reason,
                           Counter* counter) {
  requests_rejected_.fetch_add(1, std::memory_order_relaxed);
  if (counter != nullptr) counter->Inc();
  std::string payload;
  EncodeResponseStatus(Status::ResourceExhausted(reason), &payload);
  WriteResponse(conn, header.opcode | kResponseBit, header.request_id,
                payload);
}

void Server::ReapConnections(bool all) {
  std::vector<std::shared_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if (all || (*it)->reader_done.load(std::memory_order_acquire)) {
        dead.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : dead) {
    if (conn->reader.joinable()) conn->reader.join();
  }
  // Sockets close when the last WorkItem holding the connection drains.
}

}  // namespace duplex::net
