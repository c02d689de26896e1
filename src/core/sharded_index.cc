#include "core/sharded_index.h"

#include <algorithm>
#include <mutex>

#include "core/batch_log.h"
#include "util/logging.h"

namespace duplex::core {

IndexOptions ServingIndexOptions() {
  IndexOptions total;
  total.buckets.num_buckets = 1024;
  total.buckets.bucket_capacity = 512;
  total.policy = Policy::RecommendedUpdateOptimized();
  total.block_postings = 128;
  total.disks.num_disks = 2;
  total.disks.blocks_per_disk = 1 << 20;
  // Per-block checksums give `duplexctl scrub` a claim to verify, and a
  // read of a rotten block fails typed instead of returning garbage.
  total.disks.checksums = true;
  total.materialize = true;
  total.bucket_grow_threshold = 0.85;
  return total;
}

ShardedIndexOptions ShardedIndexOptions::Partition(const IndexOptions& total,
                                                   uint32_t num_shards,
                                                   uint32_t threads) {
  DUPLEX_CHECK(num_shards > 0);
  ShardedIndexOptions opts;
  opts.shard = total;
  opts.shard.buckets.num_buckets =
      std::max<uint32_t>(1, total.buckets.num_buckets / num_shards);
  if (total.cache.enabled()) {
    // One pool per shard (a shared pool would re-serialize the shards on
    // its locks); divide the global frame budget so the sharded index
    // caches no more memory than the unsharded one.
    opts.shard.cache.capacity_blocks =
        std::max<uint64_t>(1, total.cache.capacity_blocks / num_shards);
  }
  opts.num_shards = num_shards;
  opts.threads = threads;
  return opts;
}

ShardedIndex::ShardedIndex(const ShardedIndexOptions& options)
    : options_(options),
      pool_(options.num_shards <= 1
                ? 0
                : (options.threads == 0 ? options.num_shards
                                        : options.threads)) {
  DUPLEX_CHECK(options.num_shards > 0);
  shards_.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    if (options.customize_shard) {
      IndexOptions tweaked = options.shard;
      options.customize_shard(s, tweaked);
      shards_.push_back(std::make_unique<IndexShard>(tweaked));
    } else {
      shards_.push_back(std::make_unique<IndexShard>(options.shard));
    }
  }
  m_shard_apply_ns_.resize(options.num_shards, nullptr);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    m_shard_apply_ns_[s] =
        GlobalLatency("duplex_core_shard_apply_ns",
                      "Per-shard batch apply wall-clock (shard skew)",
                      "shard=\"" + std::to_string(s) + "\"");
  }
  m_partition_ns_ = GlobalLatency(
      "duplex_core_partition_ns",
      "Wall-clock of hash-partitioning a batch across shards");
}

ShardedIndex::~ShardedIndex() { StopBackgroundCompaction(); }

Status ShardedIndex::ParallelOverShards(
    const std::function<Status(uint32_t)>& fn) {
  std::vector<Status> statuses(num_shards());
  pool_.ParallelFor(num_shards(),
                    [&](uint32_t s) { statuses[s] = fn(s); });
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status ShardedIndex::ApplyBatchUpdate(const text::BatchUpdate& batch) {
  std::vector<text::BatchUpdate> parts;
  {
    ScopedLatency timer(m_partition_ns_);
    Span span = TraceSpan("core.partition_batch");
    parts = text::PartitionBatch(batch, num_shards());
  }
  return ParallelOverShards([&](uint32_t s) {
    ScopedLatency timer(m_shard_apply_ns_[s]);
    Span span = TraceSpan("core.shard_apply");
    span.AddAttr("shard", static_cast<uint64_t>(s));
    return shards_[s]->WithWrite([&](InvertedIndex& index) {
      return index.ApplyBatchUpdate(parts[s]);
    });
  });
}

Status ShardedIndex::ApplyInvertedBatch(const text::InvertedBatch& batch) {
  std::vector<text::InvertedBatch> parts;
  {
    ScopedLatency timer(m_partition_ns_);
    Span span = TraceSpan("core.partition_batch");
    parts = text::PartitionBatch(batch, num_shards());
  }
  DocId max_doc = 0;
  bool any = false;
  for (const text::InvertedBatch::Entry& entry : batch.entries) {
    if (!entry.docs.empty()) {
      max_doc = std::max(max_doc, entry.docs.back());
      any = true;
    }
  }
  DUPLEX_RETURN_IF_ERROR(ParallelOverShards([&](uint32_t s) {
    ScopedLatency timer(m_shard_apply_ns_[s]);
    Span span = TraceSpan("core.shard_apply");
    span.AddAttr("shard", static_cast<uint64_t>(s));
    return shards_[s]->WithWrite([&](InvertedIndex& index) {
      return index.ApplyInvertedBatch(parts[s]);
    });
  }));
  if (any) {
    std::unique_lock lock(doc_mutex_);
    next_doc_id_ = std::max(next_doc_id_, max_doc + 1);
  }
  return Status::OK();
}

DocId ShardedIndex::AddDocument(const std::string& text) {
  std::unique_lock lock(doc_mutex_);
  const DocId doc =
      next_doc_id_ + static_cast<DocId>(memory_index_.document_count());
  memory_index_.AddDocument(doc, text);
  return doc;
}

Status ShardedIndex::FlushDocuments() {
  return FlushDocumentsLogged(nullptr, nullptr);
}

Status ShardedIndex::FlushDocumentsLogged(BatchLog* log, uint64_t* batch_id) {
  if (batch_id != nullptr) *batch_id = 0;
  std::unique_lock lock(doc_mutex_);
  if (memory_index_.empty()) return Status::OK();
  text::InvertedBatch batch;
  batch.entries.reserve(memory_index_.lists().size());
  for (const auto& [word, docs] : memory_index_.lists()) {
    batch.entries.push_back({word, docs});
  }
  std::sort(batch.entries.begin(), batch.entries.end(),
            [](const text::InvertedBatch::Entry& a,
               const text::InvertedBatch::Entry& b) {
              return a.word < b.word;
            });
  const DocId new_next =
      next_doc_id_ + static_cast<DocId>(memory_index_.document_count());
  uint64_t logged_id = 0;
  if (log != nullptr) {
    // WAL protocol step 1: the batch is durable before any shard I/O.
    // The record carries each entry's word string so a log-only rebuild
    // can reinstate the vocabulary, not just the postings.
    std::vector<std::string> words;
    words.reserve(batch.entries.size());
    for (const text::InvertedBatch::Entry& entry : batch.entries) {
      words.push_back(vocabulary_.WordFor(entry.word));
    }
    Result<uint64_t> appended = log->AppendBatch(batch, words);
    if (!appended.ok()) return appended.status();
    logged_id = *appended;
  }
  std::vector<text::InvertedBatch> parts =
      text::PartitionBatch(batch, num_shards());
  DUPLEX_RETURN_IF_ERROR(ParallelOverShards([&](uint32_t s) {
    return shards_[s]->WithWrite([&](InvertedIndex& index) {
      return index.ApplyInvertedBatch(parts[s]);
    });
  }));
  next_doc_id_ = std::max(next_doc_id_, new_next);
  memory_index_.Clear();
  if (log != nullptr) {
    // Steps 2-3: dirty cache frames on the devices, then the commit
    // record — a crash in between replays the batch, never loses it.
    DUPLEX_RETURN_IF_ERROR(FlushCaches());
    DUPLEX_RETURN_IF_ERROR(log->MarkApplied(logged_id));
    if (batch_id != nullptr) *batch_id = logged_id;
  }
  return Status::OK();
}

Result<ShardedIndex::LiveBatch> ShardedIndex::BuildLiveBatch(
    const std::vector<std::string>& documents) {
  std::unique_lock lock(doc_mutex_);
  if (!memory_index_.empty()) {
    return Status::FailedPrecondition(
        "live batch over a non-empty document buffer: flush first");
  }
  LiveBatch out;
  out.first_doc = next_doc_id_;
  out.documents = static_cast<uint32_t>(documents.size());
  out.batch =
      text::BatchInverter(tokenizer_, &vocabulary_).Invert(documents,
                                                           &next_doc_id_);
  out.words.reserve(out.batch.entries.size());
  for (const text::InvertedBatch::Entry& entry : out.batch.entries) {
    out.words.push_back(vocabulary_.WordFor(entry.word));
  }
  return out;
}

size_t ShardedIndex::buffered_documents() const {
  std::shared_lock lock(doc_mutex_);
  return memory_index_.document_count();
}

ListLocation ShardedIndex::Locate(WordId word) const {
  std::shared_lock doc_lock(doc_mutex_);
  ListLocation loc = shards_[ShardFor(word)]->WithRead(
      [&](const InvertedIndex& index) { return index.Locate(word); });
  // The shard's own memory index is always empty (documents buffer at the
  // sharded level); merge our buffer exactly as InvertedIndex::Locate does.
  if (const std::vector<DocId>* buffered = memory_index_.Find(word)) {
    loc.exists = true;
    loc.postings += buffered->size();
  }
  return loc;
}

ListLocation ShardedIndex::Locate(std::string_view word) const {
  std::shared_lock doc_lock(doc_mutex_);
  const WordId id = vocabulary_.Lookup(word);
  if (id == kInvalidWord) return ListLocation{};
  ListLocation loc = shards_[ShardFor(id)]->WithRead(
      [&](const InvertedIndex& index) { return index.Locate(id); });
  if (const std::vector<DocId>* buffered = memory_index_.Find(id)) {
    loc.exists = true;
    loc.postings += buffered->size();
  }
  return loc;
}

Result<std::vector<DocId>> ShardedIndex::GetPostings(WordId word) const {
  std::shared_lock doc_lock(doc_mutex_);
  Result<std::vector<DocId>> flushed = shards_[ShardFor(word)]->WithRead(
      [&](const InvertedIndex& index) { return index.GetPostings(word); });
  if (!flushed.ok() && !flushed.status().IsNotFound()) {
    return flushed.status();
  }
  std::vector<DocId> docs =
      flushed.ok() ? std::move(*flushed) : std::vector<DocId>{};
  bool found = flushed.ok();
  // Buffered postings are strictly newer than anything flushed.
  if (const std::vector<DocId>* buffered = memory_index_.Find(word)) {
    DUPLEX_CHECK(docs.empty() || docs.back() < buffered->front());
    docs.insert(docs.end(), buffered->begin(), buffered->end());
    found = true;
  }
  if (!found) return Status::NotFound("word has no inverted list");
  if (!deleted_.empty()) {
    docs.erase(std::remove_if(docs.begin(), docs.end(),
                              [&](DocId d) { return deleted_.contains(d); }),
               docs.end());
  }
  return docs;
}

Result<std::vector<DocId>> ShardedIndex::GetPostings(
    std::string_view word) const {
  WordId id;
  {
    std::shared_lock doc_lock(doc_mutex_);
    id = vocabulary_.Lookup(word);
  }
  if (id == kInvalidWord) return Status::NotFound("unknown word");
  return GetPostings(id);
}

void ShardedIndex::ForEachWord(
    const std::function<void(WordId)>& fn) const {
  std::shared_lock doc_lock(doc_mutex_);
  // Shards partition the word space, so their enumerations are disjoint;
  // one shard's shared lock is held at a time (never two).
  for (const auto& shard : shards_) {
    shard->WithRead(
        [&](const InvertedIndex& index) { index.ForEachWord(fn); });
  }
  // The index-wide document buffer may hold words the shards also have;
  // emit only the ones the owning shard does not know yet.
  for (const auto& [word, list] : memory_index_.lists()) {
    const bool flushed = shards_[ShardFor(word)]->WithRead(
        [&](const InvertedIndex& index) { return index.Locate(word).exists; });
    if (!flushed) fn(word);
  }
}

void ShardedIndex::DeleteDocument(DocId doc) {
  {
    std::unique_lock lock(doc_mutex_);
    deleted_.insert(doc);
  }
  // The owning shard is unknown (any shard's lists may contain the doc);
  // every shard records the deletion and filters its own reads.
  for (auto& shard : shards_) {
    shard->WithWrite(
        [&](InvertedIndex& index) { index.DeleteDocument(doc); });
  }
}

bool ShardedIndex::IsDeleted(DocId doc) const {
  std::shared_lock lock(doc_mutex_);
  return deleted_.contains(doc);
}

size_t ShardedIndex::deleted_count() const {
  std::shared_lock lock(doc_mutex_);
  return deleted_.size();
}

Status ShardedIndex::SweepDeletions() {
  DUPLEX_RETURN_IF_ERROR(ParallelOverShards([&](uint32_t s) {
    return shards_[s]->WithWrite(
        [](InvertedIndex& index) { return index.SweepDeletions(); });
  }));
  std::unique_lock lock(doc_mutex_);
  deleted_.clear();
  return Status::OK();
}

Status ShardedIndex::GrowBuckets(uint32_t new_num_buckets_per_shard,
                                 uint64_t new_bucket_capacity) {
  return ParallelOverShards([&](uint32_t s) {
    return shards_[s]->WithWrite([&](InvertedIndex& index) {
      return index.GrowBuckets(new_num_buckets_per_shard,
                               new_bucket_capacity);
    });
  });
}

Status ShardedIndex::FlushCaches() {
  return ParallelOverShards([&](uint32_t s) {
    return shards_[s]->WithWrite(
        [](InvertedIndex& index) { return index.FlushCaches(); });
  });
}

Result<CompactionStats> ShardedIndex::CompactOnce() {
  std::vector<CompactionStats> per_shard(num_shards());
  DUPLEX_RETURN_IF_ERROR(ParallelOverShards([&](uint32_t s) {
    return shards_[s]->WithWrite([&](InvertedIndex& index) -> Status {
      Result<CompactionStats> round = index.CompactOnce();
      if (!round.ok()) return round.status();
      per_shard[s] = *round;
      return Status::OK();
    });
  }));
  CompactionStats merged;
  for (const CompactionStats& s : per_shard) merged.Merge(s);
  // N parallel rounds are one logical round over the whole word space.
  merged.rounds = 1;
  return merged;
}

void ShardedIndex::StartBackgroundCompaction(
    std::chrono::milliseconds interval) {
  // The thread handle is only touched under compaction_mutex_, so Start,
  // Stop and running() may race freely; the new thread blocks on the same
  // mutex until this call releases it.
  std::lock_guard<std::mutex> start_lock(compaction_mutex_);
  if (compaction_thread_.joinable()) return;  // already running
  compaction_stop_ = false;
  compaction_status_ = Status::OK();
  compaction_thread_ = std::thread([this, interval] {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(compaction_mutex_);
        if (compaction_cv_.wait_for(lock, interval,
                                    [this] { return compaction_stop_; })) {
          return;
        }
      }
      // Round-robin over the shards, one write lock at a time, so a long
      // round never starves more than one shard's writers and no query
      // ever waits on more than one shard.
      for (uint32_t s = 0; s < num_shards(); ++s) {
        {
          std::lock_guard<std::mutex> lock(compaction_mutex_);
          if (compaction_stop_) return;
        }
        Status status = shards_[s]->WithWrite([](InvertedIndex& index) {
          Result<CompactionStats> round = index.CompactOnce();
          return round.ok() ? Status::OK() : round.status();
        });
        std::lock_guard<std::mutex> lock(compaction_mutex_);
        ++compaction_rounds_done_;
        if (!status.ok() && compaction_status_.ok()) {
          compaction_status_ = std::move(status);
        }
      }
    }
  });
}

void ShardedIndex::StopBackgroundCompaction() {
  // Claim the thread handle under the lock, join outside it (the worker
  // takes compaction_mutex_ on its way out). A second concurrent Stop
  // finds an empty handle and returns — idempotent, and a no-op without
  // a prior Start.
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(compaction_mutex_);
    if (!compaction_thread_.joinable()) return;
    compaction_stop_ = true;
    worker = std::move(compaction_thread_);
  }
  compaction_cv_.notify_all();
  worker.join();
}

bool ShardedIndex::background_compaction_running() const {
  std::lock_guard<std::mutex> lock(compaction_mutex_);
  return compaction_thread_.joinable();
}

uint64_t ShardedIndex::background_compaction_rounds() const {
  std::lock_guard<std::mutex> lock(compaction_mutex_);
  return compaction_rounds_done_;
}

Status ShardedIndex::background_compaction_status() const {
  std::lock_guard<std::mutex> lock(compaction_mutex_);
  return compaction_status_;
}

CompactionStats ShardedIndex::compaction_totals() const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex());
  }
  CompactionStats merged;
  for (const auto& shard : shards_) {
    merged.Merge(shard->index_unlocked().compaction_totals());
  }
  return merged;
}

std::vector<IndexStats> ShardedIndex::ShardStats() const {
  // Hold every shard lock (ascending order) so the per-shard snapshots
  // are mutually consistent — a concurrent batch is either fully in or
  // fully out of the merged numbers.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex());
  }
  std::vector<IndexStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    stats.push_back(shard->index_unlocked().Stats());
  }
  return stats;
}

IndexStats ShardedIndex::Stats() const { return MergeStats(ShardStats()); }

std::vector<UpdateCategories> ShardedIndex::MergedCategories() const {
  std::vector<std::vector<UpdateCategories>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    per_shard.push_back(shard->WithRead(
        [](const InvertedIndex& index) {
          return index.update_categories();
        }));
  }
  return MergeCategories(per_shard);
}

Status ShardedIndex::VerifyIntegrity() const {
  uint64_t total = 0;
  uint64_t bucket = 0;
  uint64_t long_postings = 0;
  for (uint32_t s = 0; s < num_shards(); ++s) {
    Status status = shards_[s]->WithRead([&](const InvertedIndex& index) {
      DUPLEX_RETURN_IF_ERROR(index.VerifyIntegrity());
      // Cross-shard ownership: every word this shard stores must hash
      // here; a violation means a batch was partitioned inconsistently.
      for (const auto& [word, list] :
           index.long_list_store().directory().lists()) {
        if (ShardFor(word) != s) {
          return Status::Corruption("word " + std::to_string(word) +
                                    " stored on shard " + std::to_string(s) +
                                    " but owned by shard " +
                                    std::to_string(ShardFor(word)));
        }
      }
      const IndexStats stats = index.Stats();
      total += stats.total_postings;
      bucket += stats.bucket_postings;
      long_postings += stats.long_postings;
      return Status::OK();
    });
    DUPLEX_RETURN_IF_ERROR(std::move(status));
  }
  if (bucket + long_postings != total) {
    return Status::Corruption("merged posting totals inconsistent");
  }
  return Status::OK();
}

storage::IoTrace ShardedIndex::MergedTrace() const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex());
  }
  storage::IoTrace merged;
  size_t updates = 0;
  for (const auto& shard : shards_) {
    updates = std::max(updates,
                       shard->index_unlocked().trace().update_count());
  }
  for (size_t u = 0; u < updates; ++u) {
    for (uint32_t s = 0; s < num_shards(); ++s) {
      const storage::IoTrace& trace = shards_[s]->index_unlocked().trace();
      if (u >= trace.update_count()) continue;
      const auto [first, last] = trace.UpdateRange(u);
      for (size_t i = first; i < last; ++i) {
        storage::IoEvent event = trace.events()[i];
        event.disk = GlobalDiskId(s, event.disk);
        merged.Add(event);
      }
    }
    merged.EndUpdate();
  }
  return merged;
}

DocId ShardedIndex::next_doc_id() const {
  std::shared_lock lock(doc_mutex_);
  return next_doc_id_;
}

Status ShardedIndex::WithCheckpointView(
    const std::function<Status(const CheckpointView&)>& fn) const {
  // Document mutex before any shard lock (the fixed order every other
  // path uses), then every shard's shared lock ascending.
  std::shared_lock doc_lock(doc_mutex_);
  std::vector<std::shared_lock<std::shared_mutex>> shard_locks;
  shard_locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    shard_locks.emplace_back(shard->mutex());
  }
  CheckpointView view;
  view.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    view.shards.push_back(&shard->index_unlocked());
  }
  view.vocabulary = &vocabulary_;
  view.next_doc_id = next_doc_id_;
  view.deleted.assign(deleted_.begin(), deleted_.end());
  std::sort(view.deleted.begin(), view.deleted.end());
  return fn(view);
}

Status ShardedIndex::RestoreDocState(
    DocId next_doc_id, std::vector<DocId> deleted,
    const std::vector<std::string>& vocabulary_words) {
  std::unique_lock lock(doc_mutex_);
  for (size_t i = 0; i < vocabulary_words.size(); ++i) {
    if (vocabulary_.GetOrAdd(vocabulary_words[i]) != i) {
      return Status::Corruption(
          "checkpoint vocabulary must restore densely in order");
    }
  }
  next_doc_id_ = next_doc_id;
  deleted_.clear();
  deleted_.insert(deleted.begin(), deleted.end());
  return Status::OK();
}

Status ShardedIndex::RestoreBatchWords(
    const text::InvertedBatch& batch,
    const std::vector<std::string>& words) {
  if (words.empty()) return Status::OK();
  if (words.size() != batch.entries.size()) {
    return Status::Corruption(
        "batch word strings do not match the entry count");
  }
  std::unique_lock lock(doc_mutex_);
  for (size_t i = 0; i < words.size(); ++i) {
    DUPLEX_RETURN_IF_ERROR(
        vocabulary_.Restore(words[i], batch.entries[i].word));
  }
  return Status::OK();
}

}  // namespace duplex::core
