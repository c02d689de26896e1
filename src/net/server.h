#ifndef DUPLEX_NET_SERVER_H_
#define DUPLEX_NET_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/service.h"
#include "net/slow_query_log.h"
#include "net/socket.h"
#include "util/bounded_queue.h"
#include "util/metrics.h"

namespace duplex::net {

struct ServerOptions {
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  // Request-execution threads. Also the hard concurrency of index access,
  // independent of how many connections are open.
  uint32_t num_workers = 4;
  // Admission bound per connection: frames parsed but not yet answered.
  // At the bound, further requests on that connection draw an immediate
  // typed BUSY — the client's signal to back off.
  uint32_t per_connection_queue = 64;
  // Bound of the shared worker queue across all connections; overflow is
  // the same typed BUSY.
  uint32_t global_queue = 1024;
  // Frames declaring more payload than this are refused (typed error,
  // connection closed).
  uint32_t max_payload_bytes = kDefaultMaxPayload;
  // Budget from admission to execution start: a request that sat queued
  // longer is answered BUSY ("deadline exceeded") instead of executing —
  // under overload the server sheds stale work rather than serving
  // already-abandoned requests. Zero disables the check.
  std::chrono::milliseconds request_deadline{1000};
  // Requests whose queue_wait + execute + respond exceeds this threshold
  // are recorded in the slow-query ring (served by /slowz). Zero
  // disables slow-query capture entirely.
  std::chrono::milliseconds slow_query_threshold{0};
  // Ring capacity of the slow-query log.
  uint32_t slow_log_capacity = 128;
};

// duplexd's front end: one accept loop, one reader thread per
// connection (frame I/O only), and a fixed worker pool executing
// requests from a bounded queue. Backpressure is explicit — a full queue
// answers BUSY instead of queueing unboundedly, a garbage frame answers
// a typed GoAway and closes the connection, and Stop() drains admitted
// requests before returning.
//
// Start/Stop may be called in any order and repeatedly: Stop without
// Start is a no-op, double Stop is a no-op, and Start after Stop serves
// again on a fresh socket. (Start/Stop serialize on an internal mutex.)
class Server {
 public:
  Server(IndexService* service, ServerOptions options);
  ~Server();  // implies Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  // Drains: stops accepting, half-closes connections so readers wind
  // down, lets workers finish every admitted request, then joins all
  // threads. Idempotent; safe without a prior Start.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // Bound port (valid after Start; the ephemeral answer for port = 0).
  uint16_t port() const { return port_; }

  // Lifetime counters (survive Stop, reset on Start).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t requests_handled() const {
    return requests_handled_.load(std::memory_order_relaxed);
  }
  uint64_t requests_rejected() const {
    return requests_rejected_.load(std::memory_order_relaxed);
  }

  // Live worker-queue observation for /statusz (0 when not running).
  size_t queue_depth() const {
    return queue_ != nullptr ? queue_->size() : 0;
  }
  size_t queue_capacity() const { return options_.global_queue; }
  // Currently open client connections.
  int64_t open_connections() const {
    return open_conns_now_.load(std::memory_order_relaxed);
  }
  // Ring of recent slow queries (empty unless slow_query_threshold > 0).
  const SlowQueryLog& slow_queries() const { return slow_log_; }

 private:
  struct Connection {
    Socket sock;
    uint64_t id = 0;
    std::mutex write_mutex;
    // Admitted (queued or executing) requests on this connection.
    std::atomic<uint32_t> inflight{0};
    std::atomic<bool> open{true};
    std::thread reader;
    std::atomic<bool> reader_done{false};
  };

  struct WorkItem {
    std::shared_ptr<Connection> conn;
    FrameHeader header;
    std::string payload;
    uint64_t enqueue_ns = 0;
  };

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  void WorkerLoop();
  void Execute(WorkItem item);
  // Serializes one response frame onto the connection; on write failure
  // the connection is shut down (the reader notices EOF).
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     uint8_t opcode, uint64_t request_id,
                     std::string_view payload);
  void RejectRequest(const std::shared_ptr<Connection>& conn,
                     const FrameHeader& header, const char* reason,
                     Counter* counter);
  // Joins and forgets connections whose reader has exited (called from
  // the accept loop and from Stop).
  void ReapConnections(bool all);

  IndexService* service_;
  const ServerOptions options_;

  std::mutex lifecycle_mutex_;  // serializes Start/Stop
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  uint16_t port_ = 0;

  Listener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<BoundedQueue<WorkItem>> queue_;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 0;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_handled_{0};
  std::atomic<uint64_t> requests_rejected_{0};

  // Metrics handles (null when no registry is installed).
  Counter* m_requests_ = nullptr;
  Counter* m_rejected_queue_full_ = nullptr;
  Counter* m_rejected_deadline_ = nullptr;
  Counter* m_frame_errors_ = nullptr;
  Counter* m_connections_ = nullptr;
  Counter* m_bytes_in_ = nullptr;
  Counter* m_bytes_out_ = nullptr;
  Gauge* m_inflight_ = nullptr;
  // Admin-plane gauges sampled on admission / connection close.
  Gauge* m_queue_depth_ = nullptr;
  Gauge* m_connections_gauge_ = nullptr;
  // Per-opcode execution latency, indexed by request opcode value.
  std::array<LatencyHistogram*, 8> m_request_ns_{};
  // Request-lifecycle phase latencies: admission -> dequeue (queue_wait),
  // handler run (execute), response write (respond).
  LatencyHistogram* m_phase_queue_wait_ = nullptr;
  LatencyHistogram* m_phase_execute_ = nullptr;
  LatencyHistogram* m_phase_respond_ = nullptr;
  std::atomic<int64_t> inflight_now_{0};
  std::atomic<int64_t> open_conns_now_{0};

  SlowQueryLog slow_log_;
};

}  // namespace duplex::net

#endif  // DUPLEX_NET_SERVER_H_
