#ifndef DUPLEX_NET_SERVICE_H_
#define DUPLEX_NET_SERVICE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_log.h"
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

  // Shutdown hook: make everything the service accepted durable (drain
  // the live delta through the WAL, write back dirty cache frames).
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

// Service over the word-partitioned ShardedIndex, served through the
// LiveIndex it owns: queries read the delta + disk overlay (the disk
// index alone while the delta is empty) and fan out under per-shard
// shared locks, concurrent with each other and with updates on other
// shards. Batch submits go through LiveIndex::SubmitBatch — the WAL
// commit protocol when a BatchLog is attached (append durable -> apply ->
// flush caches -> commit). This is the backend duplexd runs.
class ShardedIndexService : public IndexService {
 public:
  // `wal` may be null (no durability logging); both borrowed, not owned.
  // `live_ingest` is duplexd's --live-ingest: with it, kSubmitLive
  // documents enter the delta under these options; without it,
  // kSubmitLive answers Unimplemented.
  ShardedIndexService(
      core::ShardedIndex* index, core::BatchLog* wal,
      std::optional<core::LiveIndex::Options> live_ingest = std::nullopt)
      : live_(index, wal, live_ingest.value_or(core::LiveIndex::Options())),
        live_ingest_(live_ingest.has_value()) {}

  // Drains the delta and writes back dirty cache frames.
  Status Flush() override { return live_.Flush(); }

  // The one ingest and checkpoint coordinator over the index: checkpoints,
  // WAL accounting and the drainer go through it.
  core::LiveIndex& live() { return live_; }

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
  core::LiveIndex live_;
  const bool live_ingest_;
};

}  // namespace duplex::net

#endif  // DUPLEX_NET_SERVICE_H_
