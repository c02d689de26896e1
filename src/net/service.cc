#include "net/service.h"

#include "ir/query_executor.h"
#include "util/metrics.h"

namespace duplex::net {

namespace {

std::string StatusOnlyPayload(const Status& status) {
  std::string out;
  EncodeResponseStatus(status, &out);
  return out;
}

}  // namespace

std::string IndexService::HandleRequest(uint8_t opcode,
                                        std::string_view payload,
                                        RequestCost* cost) {
  RequestCost scratch;
  if (cost == nullptr) cost = &scratch;
  const auto fail = [cost](const Status& status) {
    cost->status_code = static_cast<uint8_t>(status.code());
    return StatusOnlyPayload(status);
  };
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
      return StatusOnlyPayload(Status::OK());
    case Opcode::kBooleanQuery: {
      Result<BooleanQueryRequest> req = DecodeBooleanQueryRequest(payload);
      if (!req.ok()) return fail(req.status());
      Result<ir::QueryResult> result = Boolean(req->query);
      if (!result.ok()) return fail(result.status());
      cost->read_ops = result->read_ops;
      cost->cached_read_ops = result->cached_read_ops;
      cost->postings_read = result->postings_read;
      return EncodeBooleanQueryResponse({std::move(*result)});
    }
    case Opcode::kVectorQuery: {
      Result<VectorQueryRequest> req = DecodeVectorQueryRequest(payload);
      if (!req.ok()) return fail(req.status());
      Result<ir::VectorQueryResult> result = Vector(req->query, req->k);
      if (!result.ok()) return fail(result.status());
      cost->read_ops = result->read_ops;
      cost->cached_read_ops = result->cached_read_ops;
      cost->postings_read = result->postings_read;
      return EncodeVectorQueryResponse({std::move(*result)});
    }
    case Opcode::kSubmitDocuments: {
      Result<SubmitDocumentsRequest> req =
          DecodeSubmitDocumentsRequest(payload);
      if (!req.ok()) return fail(req.status());
      if (req->documents.empty()) {
        return fail(Status::InvalidArgument("submit: empty document batch"));
      }
      Result<SubmitDocumentsResponse> result = Submit(req->documents);
      if (!result.ok()) return fail(result.status());
      return EncodeSubmitDocumentsResponse(*result);
    }
    case Opcode::kSubmitLive: {
      Result<SubmitLiveRequest> req = DecodeSubmitLiveRequest(payload);
      if (!req.ok()) return fail(req.status());
      if (req->documents.empty()) {
        return fail(
            Status::InvalidArgument("submit-live: empty document batch"));
      }
      Result<SubmitLiveResponse> result = SubmitLive(req->documents);
      if (!result.ok()) return fail(result.status());
      return EncodeSubmitLiveResponse(*result);
    }
    case Opcode::kStats:
      return EncodeStatsResponse({StatsJson()});
    default:
      return fail(Status::InvalidArgument(
          "unhandled opcode " + std::to_string(opcode)));
  }
}

namespace {

// {"index": <stats json>, "metrics": <registry json or null>} — the same
// registry JSON `duplexctl metrics` exports, so one stats RPC feeds the
// promtool-style scrape in README.
std::string BuildStatsJson(const core::IndexStats& stats) {
  std::string json = "{\n\"index\": ";
  json += stats.ToJson();
  json += ",\n\"metrics\": ";
  if (MetricsRegistry* registry = GlobalMetrics()) {
    json += registry->ExportJson();
  } else {
    json += "null";
  }
  json += "\n}";
  return json;
}

}  // namespace

// --- ShardedIndexService ----------------------------------------------------

Result<ir::QueryResult> ShardedIndexService::Boolean(
    std::string_view query) {
  // The view pins the delta tiers for the query's lifetime, so a racing
  // drain can drop nothing this evaluation might read.
  core::LiveIndex::ReadView view = live_.AcquireView();
  return ir::QueryExecutor(view.reader()).EvaluateBoolean(query);
}

Result<ir::VectorQueryResult> ShardedIndexService::Vector(
    const ir::VectorQuery& query, size_t k) {
  core::LiveIndex::ReadView view = live_.AcquireView();
  ir::QueryExecutor executor(view.reader());
  return executor.EvaluateVector(query, k, view.reader().next_doc_id());
}

Result<SubmitDocumentsResponse> ShardedIndexService::Submit(
    const std::vector<std::string>& documents) {
  Result<core::LiveIndex::SubmitReceipt> receipt =
      live_.SubmitBatch(documents);
  if (!receipt.ok()) return receipt.status();
  SubmitDocumentsResponse resp;
  resp.first_doc = receipt->first_doc;
  resp.accepted = receipt->accepted;
  resp.wal_batch_id = receipt->wal_batch_id;
  return resp;
}

Result<SubmitLiveResponse> ShardedIndexService::SubmitLive(
    const std::vector<std::string>& documents) {
  if (!live_ingest_) return IndexService::SubmitLive(documents);
  Result<core::LiveIndex::SubmitReceipt> receipt =
      live_.SubmitLive(documents);
  if (!receipt.ok()) return receipt.status();
  SubmitLiveResponse resp;
  resp.first_doc = receipt->first_doc;
  resp.accepted = receipt->accepted;
  resp.wal_batch_id = receipt->wal_batch_id;
  resp.epoch = receipt->epoch;
  resp.delta_docs = receipt->delta_docs;
  return resp;
}

std::string ShardedIndexService::StatsJson() {
  return BuildStatsJson(live_.index()->Stats());
}

}  // namespace duplex::net
