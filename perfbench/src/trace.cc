#include "trace.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "core/checkpoint.h"
#include "core/live_index.h"
#include "core/posting_codec.h"
#include "core/sharded_index.h"
#include "ir/query_executor.h"
#include "net/frame.h"
#include "stats.h"
#include "storage/block_device.h"
#include "storage/checksum_device.h"
#include "text/tokenizer.h"

namespace perfbench {

namespace core = duplex::core;
namespace net = duplex::net;
using duplex::Span;
using duplex::TraceEvent;
using duplex::Tracer;

namespace {

// duplexd's index configuration (IndexOptionsFor in tools/duplexd.cpp,
// file-local there) with its default --shards 4, so the in-process index
// has the daemon's shape.
core::ShardedIndexOptions DaemonIndexOptions() {
  core::IndexOptions total;
  total.buckets.num_buckets = 1024;
  total.buckets.bucket_capacity = 512;
  total.policy = core::Policy::RecommendedUpdateOptimized();
  total.block_postings = 128;
  total.disks.num_disks = 2;
  total.disks.blocks_per_disk = 1 << 20;
  total.disks.checksums = true;
  total.materialize = true;
  total.bucket_grow_threshold = 0.85;
  return core::ShardedIndexOptions::Partition(total, 4);
}

// IndexReader decorator: a span around every call the executor makes
// into the reader, so executor self time is its span minus these.
class TracingReader : public core::IndexReader {
 public:
  TracingReader(const core::IndexReader& base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  core::ListLocation Locate(duplex::WordId word) const override {
    Span span = tracer_->StartSpan("core.locate");
    return Note(base_.Locate(word), &span);
  }
  core::ListLocation Locate(std::string_view word) const override {
    Span span = tracer_->StartSpan("core.locate");
    return Note(base_.Locate(word), &span);
  }
  duplex::Result<std::vector<DocId>> GetPostings(
      duplex::WordId word) const override {
    Span span = tracer_->StartSpan("core.get_postings");
    return Count(base_.GetPostings(word), &span);
  }
  duplex::Result<std::vector<DocId>> GetPostings(
      std::string_view word) const override {
    Span span = tracer_->StartSpan("core.get_postings");
    return Count(base_.GetPostings(word), &span);
  }
  DocId next_doc_id() const override { return base_.next_doc_id(); }
  void ForEachWord(
      const std::function<void(duplex::WordId)>& fn) const override {
    base_.ForEachWord(fn);
  }

  uint64_t long_lists() const { return long_lists_; }
  uint64_t long_chunks() const { return long_chunks_; }

 private:
  core::ListLocation Note(core::ListLocation loc, Span* span) const {
    span->AddAttr("chunks", loc.chunks);
    if (loc.is_long) {
      ++long_lists_;
      long_chunks_ += loc.chunks;
    }
    return loc;
  }
  duplex::Result<std::vector<DocId>> Count(
      duplex::Result<std::vector<DocId>> docs, Span* span) const {
    if (docs.ok()) span->AddAttr("postings", docs->size());
    return docs;
  }

  const core::IndexReader& base_;
  Tracer* tracer_;
  mutable uint64_t long_lists_ = 0;
  mutable uint64_t long_chunks_ = 0;
};

uint64_t Attr(const TraceEvent& e, const std::string& key) {
  for (const auto& [k, v] : e.attrs) {
    if (k == key) return std::strtoull(v.c_str(), nullptr, 10);
  }
  return 0;
}

std::vector<double> Durations(const std::vector<SpanTimes>& spans,
                              const std::string& name, double scale,
                              bool self = false) {
  std::vector<double> out;
  for (const SpanTimes& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(self ? s.self_ns : s.dur_ns) / scale);
    }
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}

}  // namespace

std::vector<SpanTimes> SelfTimes(const std::vector<TraceEvent>& events) {
  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> children;
  for (const TraceEvent& e : events) {
    if (e.parent_id != 0) children[e.parent_id].push_back(&e);
  }
  std::vector<SpanTimes> out;
  out.reserve(events.size());
  for (const TraceEvent& e : events) {
    std::vector<std::pair<uint64_t, uint64_t>> covered;
    auto it = children.find(e.id);
    if (it != children.end()) {
      for (const TraceEvent* c : it->second) {
        const uint64_t lo = std::max(c->start_ns, e.start_ns);
        const uint64_t hi =
            std::min(c->start_ns + c->dur_ns, e.start_ns + e.dur_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    uint64_t child_ns = 0, end = 0;
    for (const auto& [lo, hi] : covered) {
      const uint64_t from = std::max(lo, end);
      if (hi > from) child_ns += hi - from;
      end = std::max(end, hi);
    }
    out.push_back({e.name, e.dur_ns, e.dur_ns - std::min(child_ns, e.dur_ns)});
  }
  return out;
}

duplex::Result<LayerTimes> RunReplay(const Corpus& corpus,
                                     const ReplayPlan& plan, Report* report) {
  Tracer tracer(1 << 19);
  const auto layer = [&](const std::string& name, double value,
                         const std::string& unit, const std::string& better,
                         const std::string& detail) {
    report->layers[name] = {value, unit, better, "measured", detail};
  };

  // text: tokenizing every indexed document.
  duplex::text::Tokenizer tokenizer;
  uint64_t docs = 0;
  for (const Batch& b : plan.batches) {
    for (DocId d = b.first; d < b.first + b.count; ++d, ++docs) {
      Span span = tracer.StartSpan("text.tokenize");
      span.AddAttr("words", tokenizer.Tokenize(corpus.doc(d).text).size());
    }
  }

  // core update path: the daily batches through the document path.
  core::ShardedIndex index(DaemonIndexOptions());
  for (const Batch& b : plan.batches) {
    for (DocId d = b.first; d < b.first + b.count; ++d) {
      index.AddDocument(corpus.doc(d).text);
    }
    Span span = tracer.StartSpan("core.flush_batch");
    DUPLEX_RETURN_IF_ERROR(index.FlushDocuments());
  }

  // ir + core reader: the sampled queries through the executor over the
  // tracing decorator, plus the wire codec work each query costs.
  TracingReader reader(index, &tracer);
  duplex::ir::QueryExecutor executor(reader);
  uint64_t postings_read = 0, read_ops = 0, results = 0;
  for (const Query& q : plan.queries) {
    if (q.kind == QueryKind::kVector) {
      Span eval = tracer.StartSpan("ir.evaluate");
      auto r = executor.EvaluateVector(q.vector, kTopK, reader.next_doc_id());
      eval.End();
      if (!r.ok()) return r.status();
      postings_read += r->postings_read;
      read_ops += r->read_ops;
      results += r->top.size();
      Span codec = tracer.StartSpan("net.codec");
      net::VectorQueryRequest req;
      req.k = kTopK;
      req.query = q.vector;
      auto decoded = net::DecodeVectorQueryRequest(
          net::EncodeVectorQueryRequest(req));
      auto reply = net::DecodeVectorQueryResponse(
          net::EncodeVectorQueryResponse({std::move(*r)}));
      if (!decoded.ok() || !reply.ok()) {
        return duplex::Status::Internal("codec round trip failed");
      }
    } else {
      Span eval = tracer.StartSpan("ir.evaluate");
      auto r = executor.EvaluateBoolean(q.text);
      eval.End();
      if (!r.ok()) return r.status();
      postings_read += r->postings_read;
      read_ops += r->read_ops;
      results += r->docs.size();
      Span codec = tracer.StartSpan("net.codec");
      auto decoded = net::DecodeBooleanQueryRequest(
          net::EncodeBooleanQueryRequest({q.text}));
      auto reply = net::DecodeBooleanQueryResponse(
          net::EncodeBooleanQueryResponse({std::move(*r)}));
      if (!decoded.ok() || !reply.ok()) {
        return duplex::Status::Internal("codec round trip failed");
      }
    }
  }

  // codec: decoding the lists the queries touched, straight from bytes.
  const DocId indexed = index.next_doc_id();
  std::map<uint64_t, bool> terms;
  for (const Query& q : plan.queries) {
    for (const uint64_t key : q.keys) terms[key] = true;
  }
  uint64_t decoded_postings = 0;
  for (const auto& [key, unused] : terms) {
    const std::vector<DocId>& all = corpus.Postings(key);
    const std::vector<DocId> list(
        all.begin(), std::lower_bound(all.begin(), all.end(), indexed));
    if (list.size() < 128) continue;  // bucket-sized lists: nothing to time
    const std::string bytes = core::EncodePostingBlock(list, 0);
    std::vector<DocId> out;
    out.reserve(list.size());
    size_t pos = 0;
    Span span = tracer.StartSpan("codec.decode");
    DUPLEX_RETURN_IF_ERROR(
        core::DecodePostings(bytes, &pos, list.size(), 0, &out));
    span.AddAttr("postings", list.size());
    decoded_postings += list.size();
  }

  // storage: a checksummed read against the same read on its base device.
  {
    constexpr uint64_t kBlocks = 1024;
    constexpr uint64_t kBlockSize = 4096;
    duplex::storage::MemBlockDevice base(kBlocks, kBlockSize);
    duplex::storage::ChecksumBlockDevice verified(&base);
    std::vector<uint8_t> block(kBlockSize);
    duplex::Rng rng(7);
    for (uint64_t b = 0; b < kBlocks; ++b) {
      for (auto& byte : block) byte = static_cast<uint8_t>(rng.NextUint64());
      DUPLEX_RETURN_IF_ERROR(verified.Write(b, 0, block.data(), block.size()));
    }
    for (int round = 0; round < 5; ++round) {
      {
        Span span = tracer.StartSpan("storage.read_base");
        for (uint64_t b = 0; b < kBlocks; ++b) {
          DUPLEX_RETURN_IF_ERROR(base.Read(b, 0, block.data(), block.size()));
        }
      }
      Span span = tracer.StartSpan("storage.read_verified");
      for (uint64_t b = 0; b < kBlocks; ++b) {
        DUPLEX_RETURN_IF_ERROR(
            verified.Read(b, 0, block.data(), block.size()));
      }
    }
  }

  // checkpoint: cut an image of the index, then restore it.
  std::filesystem::create_directories(plan.scratch_dir);
  {
    core::CheckpointOptions options;
    options.prefix = plan.scratch_dir + "/ckpt";
    core::Checkpointer checkpointer(options);
    Span write = tracer.StartSpan("ckpt.write");
    auto written = checkpointer.Checkpoint(index, nullptr);
    write.End();
    if (!written.ok()) return written.status();
    core::ShardedIndex restored(DaemonIndexOptions());
    Span restore = tracer.StartSpan("ckpt.restore");
    auto recovered = checkpointer.Recover(&restored, nullptr);
    restore.End();
    if (!recovered.ok()) return recovered.status();
  }

  // core live: the same terms through the live overlay and bare.
  double overlay_tax_pct = 0;
  if (!plan.live.empty()) {
    core::LiveIndex live(&index, nullptr);
    for (const Batch& b : plan.live) {
      auto receipt = live.SubmitLive(corpus.Texts(b));
      if (!receipt.ok()) return receipt.status();
    }
    std::vector<std::string> words;
    for (const auto& [key, unused] : terms) words.push_back(Corpus::Term(key));
    std::vector<double> ratios;
    for (int round = 0; round < 5; ++round) {
      uint64_t bare_ns = 0, overlay_ns = 0;
      {
        Span span = tracer.StartSpan("core.bare_lookups");
        const uint64_t start = duplex::MonotonicNanos();
        for (const std::string& w : words) {
          if (index.Locate(w).exists) (void)index.GetPostings(w);
        }
        bare_ns = duplex::MonotonicNanos() - start;
      }
      {
        Span span = tracer.StartSpan("core.overlay_lookups");
        const uint64_t start = duplex::MonotonicNanos();
        core::LiveIndex::ReadView view = live.AcquireView();
        for (const std::string& w : words) {
          if (view.reader().Locate(w).exists) (void)view.reader().GetPostings(w);
        }
        overlay_ns = duplex::MonotonicNanos() - start;
      }
      ratios.push_back(100.0 * (static_cast<double>(overlay_ns) /
                                    static_cast<double>(bare_ns) -
                                1.0));
    }
    std::sort(ratios.begin(), ratios.end());
    overlay_tax_pct = NearestRank(ratios, 50);
  }

  const std::vector<TraceEvent> events = tracer.Events();
  const std::vector<SpanTimes> spans = SelfTimes(events);
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return NearestRank(v, 50);
  };

  const std::vector<double> tokenize_us = Durations(spans, "text.tokenize", 1e3);
  layer("text.tokenize_us_per_doc", Sum(tokenize_us) / std::max<double>(docs, 1),
        "us", "lower", "Tokenizer::Tokenize over every indexed document");
  layer("text.vocab_words", static_cast<double>(index.vocabulary().size()),
        "count", "lower", "vocabulary size of the in-process index");

  const std::vector<double> eval_us = Durations(spans, "ir.evaluate", 1e3);
  const std::vector<double> self_us =
      Durations(spans, "ir.evaluate", 1e3, /*self=*/true);
  const double nq = std::max<double>(plan.queries.size(), 1);
  layer("ir.eval_us.p50", median(eval_us), "us", "lower",
        "QueryExecutor call, " + std::to_string(eval_us.size()) + " queries");
  layer("ir.self_us.p50", median(self_us), "us", "lower",
        "executor span minus its reader calls");
  layer("ir.postings_per_query", static_cast<double>(postings_read) / nq,
        "count", "lower", "CostAccumulator postings_read");
  layer("ir.read_ops_per_query", static_cast<double>(read_ops) / nq, "ops",
        "lower", "CostAccumulator read_ops");
  layer("ir.results_per_kposting",
        1000.0 * static_cast<double>(results) /
            std::max<double>(static_cast<double>(postings_read), 1),
        "ratio", "higher", "results returned per 1000 postings read");

  std::vector<double> locate_ns = Durations(spans, "core.locate", 1);
  const std::vector<double> get_us = Durations(spans, "core.get_postings", 1e3);
  uint64_t postings_fetched = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "core.get_postings") postings_fetched += Attr(e, "postings");
  }
  layer("core.locate_ns.p50", median(locate_ns), "ns", "lower",
        std::to_string(locate_ns.size()) + " Locate calls");
  const Summary get_summary = Summarize(get_us);
  layer("core.get_postings_us.p50", get_summary.median, "us", "lower",
        std::to_string(get_us.size()) + " GetPostings calls");
  layer("core.get_postings_us.p99", get_summary.tail, "us", "lower",
        "p" + std::to_string(get_summary.tail_pct).substr(0, 4));
  layer("core.ns_per_posting",
        1e3 * Sum(get_us) / std::max<double>(postings_fetched, 1), "ns",
        "lower", "GetPostings time per posting returned");
  layer("core.chunks_per_list",
        static_cast<double>(reader.long_chunks()) /
            std::max<double>(reader.long_lists(), 1),
        "ops", "lower", "chunks per long list located");
  layer("core.overlay_tax_pct", overlay_tax_pct, "%", "lower",
        plan.live.empty() ? "no live tier in this workload"
                          : "same terms via the live view vs bare index");

  const std::vector<double> codec_ns = Durations(spans, "net.codec", 1);
  layer("net.frame_codec_ns", median(codec_ns), "ns", "lower",
        "Encode/Decode of one query's request and response");
  layer("codec.decode_ns_per_posting",
        Sum(Durations(spans, "codec.decode", 1)) /
            std::max<double>(decoded_postings, 1),
        "ns", "lower", "DecodePostings over the queried long lists");
  const double base_ns = median(Durations(spans, "storage.read_base", 1));
  const double verified_ns =
      median(Durations(spans, "storage.read_verified", 1));
  layer("storage.verify_ns_per_block", (verified_ns - base_ns) / 1024, "ns",
        "lower", "ChecksumBlockDevice::Read minus its base device's Read");
  layer("ckpt.write_s", Sum(Durations(spans, "ckpt.write", 1e9)), "s",
        "lower", "Checkpointer::Checkpoint of the in-process index");
  layer("ckpt.restore_s", Sum(Durations(spans, "ckpt.restore", 1e9)), "s",
        "lower", "Checkpointer::Recover into a fresh index");

  std::ofstream out(plan.trace_path);
  out << tracer.ExportChromeTrace();
  if (tracer.dropped() > 0) {
    report->Fail("trace ring overflowed; per-layer spans incomplete");
  }

  LayerTimes times;
  times.eval_us = median(eval_us);
  times.ir_self_us = median(self_us);
  return times;
}

}  // namespace perfbench
