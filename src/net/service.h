#ifndef DUPLEX_NET_SERVICE_H_
#define DUPLEX_NET_SERVICE_H_

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_log.h"
#include "core/checkpoint.h"
#include "core/live_index.h"
#include "core/sharded_index.h"
#include "net/frame.h"
#include "util/status.h"

namespace duplex::net {

// Index-cost accounting for one executed request, reported back to the
// server so the slow-query log can say WHY a request was slow (how many
// chunk reads, how many buffer-pool resident, how many postings
// scanned) rather than just how long it took.
struct RequestCost {
  uint64_t read_ops = 0;
  uint64_t cached_read_ops = 0;
  uint64_t postings_read = 0;
  // StatusCode of the handler outcome (0 = OK), as encoded in the
  // response prelude.
  uint8_t status_code = 0;
};

// Request execution behind the server's worker pool: one virtual per
// opcode, with the wire decode/encode shared in HandleRequest so every
// backend speaks the identical protocol. Implementations must be safe
// for concurrent calls — the worker pool runs N requests at once, and
// readers must proceed while a submit applies (the paper's 24x7 story
// over a socket).
class IndexService {
 public:
  virtual ~IndexService() = default;

  // Executes one decoded request frame and returns the response payload
  // (status prelude + body). Never fails: handler errors are encoded as
  // typed non-OK response payloads. `cost` (optional) receives the
  // request's index-cost counters and outcome code.
  std::string HandleRequest(uint8_t opcode, std::string_view payload,
                            RequestCost* cost = nullptr);

  // Shutdown hook: make everything the service accepted durable (flush
  // buffered documents through the WAL, write back dirty cache frames).
  virtual Status Flush() { return Status::OK(); }

 protected:
  virtual Result<ir::QueryResult> Boolean(std::string_view query) = 0;
  virtual Result<ir::VectorQueryResult> Vector(const ir::VectorQuery& query,
                                               size_t k) = 0;
  virtual Result<SubmitDocumentsResponse> Submit(
      const std::vector<std::string>& documents) = 0;
  // Immediate-visibility ingest. Backends without a live tier keep the
  // typed default: the client sees exactly why the opcode is refused.
  virtual Result<SubmitLiveResponse> SubmitLive(
      const std::vector<std::string>& documents) {
    (void)documents;
    return Status::Unimplemented(
        "live ingest not enabled on this backend (--live-ingest)");
  }
  virtual std::string StatsJson() = 0;
};

// Service over the word-partitioned ShardedIndex: queries fan out under
// per-shard shared locks (concurrent with each other and with updates on
// other shards); submits serialize on one writer mutex and run the WAL
// commit protocol when a BatchLog is attached (append durable -> apply ->
// flush caches -> commit). This is the backend duplexd runs.
class ShardedIndexService : public IndexService {
 public:
  // `wal` may be null (no durability logging); `live` may be null (no
  // immediate-visibility tier — kSubmitLive answers Unimplemented). With
  // a LiveIndex attached, EVERY request routes through it: queries read
  // the delta + disk overlay, submits serialize on its locks (the WAL is
  // shared with live appends, so the service's own mutex is not enough),
  // and WAL/checkpoint accounting uses its quiesce protocol. All
  // borrowed, not owned.
  ShardedIndexService(core::ShardedIndex* index, core::BatchLog* wal,
                      core::LiveIndex* live = nullptr)
      : index_(index), wal_(wal), live_(live) {}

  Status Flush() override;

  // Point-in-time WAL accounting for /statusz, read under the same mutex
  // that serializes submits — BatchLog itself is not synchronized, so
  // this is the only safe way to observe it while the service is live.
  struct WalStatus {
    bool attached = false;      // false = no WAL configured
    uint64_t tail_batches = 0;  // records currently in the log
    uint64_t base_epoch = 0;    // oldest id still in the log
    uint64_t next_id = 0;       // id the next submit's batch will get
  };
  WalStatus GetWalStatus();

  // Runs a checkpoint with submits excluded: the WAL cannot grow (or be
  // truncated under a concurrent append) while the image is cut. This is
  // the ONLY safe way to checkpoint a live service — calling
  // Checkpointer::Checkpoint directly races the submit path on the
  // BatchLog.
  Result<core::CheckpointInfo> CheckpointNow(core::Checkpointer* checkpointer);

 protected:
  Result<ir::QueryResult> Boolean(std::string_view query) override;
  Result<ir::VectorQueryResult> Vector(const ir::VectorQuery& query,
                                       size_t k) override;
  Result<SubmitDocumentsResponse> Submit(
      const std::vector<std::string>& documents) override;
  Result<SubmitLiveResponse> SubmitLive(
      const std::vector<std::string>& documents) override;
  std::string StatsJson() override;

 private:
  core::ShardedIndex* index_;
  core::BatchLog* wal_;
  core::LiveIndex* live_;
  std::mutex submit_mutex_;
};

}  // namespace duplex::net

#endif  // DUPLEX_NET_SERVICE_H_
