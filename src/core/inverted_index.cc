#include "core/inverted_index.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace duplex::core {

InvertedIndex::InvertedIndex(const IndexOptions& options)
    : options_(options),
      buckets_(options.buckets) {
  storage::DiskArrayOptions disk_opts = options.disks;
  disk_opts.materialize_payloads = options.materialize;
  disk_opts.cache = options.cache;
  disks_ = std::make_unique<storage::DiskArray>(disk_opts);

  LongListStoreOptions ll_opts;
  ll_opts.policy = options.policy;
  ll_opts.block_postings = options.block_postings;
  ll_opts.materialize = options.materialize;
  ll_opts.codec = options.long_list_codec;
  ll_opts.chunk_format = options.chunk_format;
  long_lists_ = std::make_unique<LongListStore>(
      ll_opts, disks_.get(), options.record_trace ? &trace_ : nullptr);
  compactor_ =
      std::make_unique<Compactor>(options.compaction, long_lists_.get());

  m_apply_ns_ = GlobalLatency("duplex_core_batch_apply_ns",
                              "Wall-clock of one batch apply");
  m_flush_ns_ = GlobalLatency(
      "duplex_core_flush_meta_ns",
      "Wall-clock of the end-of-batch bucket/directory flush");
  m_long_appends_ = GlobalCounter("duplex_core_long_appends_total",
                                  "Posting lists appended to a long list");
  m_bucket_inserts_ = GlobalCounter("duplex_core_bucket_inserts_total",
                                    "Posting lists inserted into a bucket");
  m_promotions_ =
      GlobalCounter("duplex_core_bucket_promotions_total",
                    "Bucket overflow evictions promoted to long lists");
  m_occupancy_ = GlobalGauge("duplex_core_bucket_occupancy",
                             "Bucket space occupancy fraction after the "
                             "latest flush");
  m_compaction_round_ns_ =
      GlobalLatency("duplex_core_compaction_round_ns",
                    "Wall-clock of one long-list compaction round");
  m_compaction_rounds_ = GlobalCounter("duplex_core_compaction_rounds_total",
                                       "Long-list compaction rounds run");
  m_compaction_lists_ =
      GlobalCounter("duplex_core_compaction_lists_total",
                    "Long lists rewritten by the compactor");
  m_compaction_blocks_ =
      GlobalCounter("duplex_core_compaction_blocks_reclaimed_total",
                    "Disk blocks returned to free space by compaction");
}

void InvertedIndex::Categorize(WordId word, UpdateCategories* cats) const {
  if (long_lists_->Contains(word)) {
    ++cats->long_words;
  } else if (buckets_.Contains(word)) {
    ++cats->bucket_words;
  } else {
    ++cats->new_words;
  }
}

Status InvertedIndex::RouteList(WordId word, const PostingList& list,
                                RouteCounts* counts) {
  if (list.empty()) return Status::OK();
  // Paper Section 2: if w already has a long list, append to it;
  // otherwise insert into bucket h(w), promoting overflow evictions.
  if (long_lists_->Contains(word)) {
    ++counts->long_appends;
    return long_lists_->Append(word, list);
  }
  ++counts->bucket_inserts;
  for (auto& [evicted_word, evicted_list] : buckets_.Insert(word, list)) {
    ++counts->promotions;
    DUPLEX_RETURN_IF_ERROR(
        long_lists_->Append(evicted_word, evicted_list));
  }
  return Status::OK();
}

void InvertedIndex::FlushRouteCounts(const RouteCounts& counts) {
  if (m_long_appends_ != nullptr && counts.long_appends > 0) {
    m_long_appends_->Inc(counts.long_appends);
  }
  if (m_bucket_inserts_ != nullptr && counts.bucket_inserts > 0) {
    m_bucket_inserts_->Inc(counts.bucket_inserts);
  }
  if (m_promotions_ != nullptr && counts.promotions > 0) {
    m_promotions_->Inc(counts.promotions);
  }
}

Status InvertedIndex::ApplyBatchUpdate(const text::BatchUpdate& batch) {
  if (options_.materialize) {
    return Status::FailedPrecondition(
        "count-only batches cannot feed a materialized index; use "
        "ApplyInvertedBatch");
  }
  ScopedLatency timer(m_apply_ns_);
  Span span = TraceSpan("core.apply_batch");
  span.AddAttr("words", static_cast<uint64_t>(batch.pairs.size()));
  UpdateCategories cats;
  RouteCounts route_counts;
  for (const text::WordCount& pair : batch.pairs) {
    if (pair.count == 0) continue;
    Categorize(pair.word, &cats);
    DUPLEX_RETURN_IF_ERROR(
        RouteList(pair.word, PostingList::Counted(pair.count),
                  &route_counts));
    total_postings_ += pair.count;
  }
  FlushRouteCounts(route_counts);
  categories_.push_back(cats);
  ++updates_applied_;
  return FlushMeta();
}

Status InvertedIndex::ApplyInvertedBatch(const text::InvertedBatch& batch) {
  if (!options_.materialize) {
    return Status::FailedPrecondition(
        "materialized batches require materialize=true");
  }
  ScopedLatency timer(m_apply_ns_);
  Span span = TraceSpan("core.apply_batch");
  span.AddAttr("words", static_cast<uint64_t>(batch.entries.size()));
  UpdateCategories cats;
  RouteCounts route_counts;
  for (const text::InvertedBatch::Entry& entry : batch.entries) {
    if (entry.docs.empty()) continue;
    Categorize(entry.word, &cats);
    DUPLEX_RETURN_IF_ERROR(
        RouteList(entry.word, PostingList::Materialized(entry.docs),
                  &route_counts));
    total_postings_ += entry.docs.size();
    if (!entry.docs.empty()) {
      next_doc_id_ = std::max(next_doc_id_, entry.docs.back() + 1);
    }
  }
  FlushRouteCounts(route_counts);
  categories_.push_back(cats);
  ++updates_applied_;
  return FlushMeta();
}

Status InvertedIndex::GrowBuckets(uint32_t new_num_buckets,
                                  uint64_t new_bucket_capacity) {
  for (auto& [word, list] :
       buckets_.Resize(new_num_buckets, new_bucket_capacity)) {
    DUPLEX_RETURN_IF_ERROR(long_lists_->Append(word, list));
  }
  return Status::OK();
}

Status InvertedIndex::FlushMeta() {
  ScopedLatency timer(m_flush_ns_);
  Span span = TraceSpan("core.flush_meta");
  // Auto-grow the bucket space when it saturates (paper future work: "we
  // need to study how to dynamically grow the bucket space since ... the
  // performance of the index degrades").
  if (options_.bucket_grow_threshold > 0.0 &&
      buckets_.Occupancy() > options_.bucket_grow_threshold) {
    DUPLEX_RETURN_IF_ERROR(
        GrowBuckets(buckets_.options().num_buckets * 2,
                    buckets_.options().bucket_capacity));
  }
  const uint32_t n_disks = disks_->num_disks();
  // Buckets occupy a fixed region of BucketTotal units; the whole region
  // is rewritten (shadow-paged) and striped evenly across all disks, then
  // the previous copy's blocks are freed (paper Sections 2 and 4.4).
  const uint64_t bucket_blocks =
      (buckets_.TotalCapacityUnits() * options_.bucket_unit_bytes +
       disks_->block_size() - 1) /
      disks_->block_size();
  const uint64_t per_disk = (bucket_blocks + n_disks - 1) / n_disks;
  std::vector<storage::BlockRange> new_bucket_ranges;
  for (storage::DiskId d = 0; d < n_disks; ++d) {
    Result<storage::BlockRange> r = disks_->AllocateOn(d, per_disk);
    if (!r.ok()) return r.status();
    new_bucket_ranges.push_back(*r);
    if (options_.record_trace) {
      trace_.Add({storage::IoOp::kWrite, storage::IoTag::kBucket, 0, 0, d,
                  r->start, r->length});
    }
  }
  // Directory flush: size proportional to its entries.
  std::vector<storage::BlockRange> new_directory_ranges;
  const uint64_t dir_bytes = long_lists_->directory().EstimatedBytes();
  const uint64_t dir_blocks =
      (dir_bytes + disks_->block_size() - 1) / disks_->block_size();
  if (dir_blocks > 0) {
    Result<storage::BlockRange> r = disks_->Allocate(dir_blocks);
    if (!r.ok()) return r.status();
    new_directory_ranges.push_back(*r);
    if (options_.record_trace) {
      trace_.Add({storage::IoOp::kWrite, storage::IoTag::kDirectory, 0, 0,
                  r->disk, r->start, r->length});
    }
  }
  for (const auto& r : prev_bucket_ranges_) {
    DUPLEX_RETURN_IF_ERROR(disks_->Free(r));
  }
  for (const auto& r : prev_directory_ranges_) {
    DUPLEX_RETURN_IF_ERROR(disks_->Free(r));
  }
  prev_bucket_ranges_ = std::move(new_bucket_ranges);
  prev_directory_ranges_ = std::move(new_directory_ranges);
  // Whole-style moves freed their old chunks onto the RELEASE list; they
  // are returned to free space now, after the flush.
  DUPLEX_RETURN_IF_ERROR(long_lists_->FlushEpoch());
  // Auto compaction rides the tail of the batch, inside the same trace
  // update, so its I/O is charged to the batch that fragmented the store.
  if (options_.compaction.enabled) {
    Result<CompactionStats> round = RunCompactionRound();
    if (!round.ok()) return round.status();
  }
  if (options_.record_trace) trace_.EndUpdate();
  if (m_occupancy_ != nullptr) m_occupancy_->Set(buckets_.Occupancy());
  return Status::OK();
}

Result<CompactionStats> InvertedIndex::RunCompactionRound() {
  ScopedLatency timer(m_compaction_round_ns_);
  Span span = TraceSpan("core.compact_round");
  Result<CompactionStats> round = compactor_->RunRound();
  if (!round.ok()) return round.status();
  // The rewrites parked the merged-away chunks on the RELEASE list; free
  // them now so the round's reclaim is visible immediately.
  DUPLEX_RETURN_IF_ERROR(long_lists_->FlushEpoch());
  span.AddAttr("lists", round->lists_compacted);
  span.AddAttr("blocks_reclaimed", round->blocks_reclaimed());
  compaction_totals_.Merge(*round);
  if (m_compaction_rounds_ != nullptr) m_compaction_rounds_->Inc();
  if (m_compaction_lists_ != nullptr && round->lists_compacted > 0) {
    m_compaction_lists_->Inc(round->lists_compacted);
  }
  if (m_compaction_blocks_ != nullptr && round->blocks_reclaimed() > 0) {
    m_compaction_blocks_->Inc(round->blocks_reclaimed());
  }
  return round;
}

Result<CompactionStats> InvertedIndex::CompactOnce() {
  return RunCompactionRound();
}

Status InvertedIndex::RestoreWord(WordId word, const PostingList& list,
                                  bool was_long) {
  if (list.empty()) return Status::OK();
  if (Locate(word).exists) {
    return Status::AlreadyExists("word already present in index");
  }
  if (was_long) {
    DUPLEX_RETURN_IF_ERROR(long_lists_->Append(word, list));
  } else {
    for (auto& [evicted_word, evicted_list] : buckets_.Insert(word, list)) {
      DUPLEX_RETURN_IF_ERROR(
          long_lists_->Append(evicted_word, evicted_list));
    }
  }
  total_postings_ += list.size();
  return Status::OK();
}

InvertedIndex::ListLocation InvertedIndex::Locate(WordId word) const {
  ListLocation loc;
  if (const LongList* list = long_lists_->directory().Find(word)) {
    loc.exists = true;
    loc.is_long = true;
    loc.chunks = list->chunks.size();
    loc.postings = list->total_postings;
    if (disks_->cache_enabled()) {
      const uint64_t bs = disks_->block_size();
      for (const ChunkRef& c : list->chunks) {
        // Probe the blocks a read of this chunk would touch: the encoded
        // bytes when payloads exist, the posting-count blocks otherwise.
        // Reserved tail blocks are never read, so they don't gate
        // residency.
        const uint64_t data_blocks = std::max<uint64_t>(
            1, options_.materialize
                   ? (ChunkHeaderBytes(c.format) + c.byte_length + bs - 1) /
                         bs
                   : (c.postings + options_.block_postings - 1) /
                         options_.block_postings);
        if (disks_->CachePeek(c.range.disk, c.range.start, data_blocks) ==
            data_blocks) {
          ++loc.cached_chunks;
        }
      }
    }
  } else if (const PostingList* list = buckets_.Find(word)) {
    loc.exists = true;
    loc.is_long = false;
    loc.chunks = 1;  // one bucket read fetches the whole short list
    loc.postings = list->size();
  }
  return loc;
}

Result<std::vector<DocId>> InvertedIndex::GetPostings(WordId word) const {
  if (!options_.materialize) {
    return Status::FailedPrecondition("index is not materialized");
  }
  if (long_lists_->Contains(word)) return long_lists_->ReadPostings(word);
  if (const PostingList* list = buckets_.Find(word)) return list->docs();
  return Status::NotFound("word has no inverted list");
}

void InvertedIndex::ForEachWord(
    const std::function<void(WordId)>& fn) const {
  // A word lives in exactly one on-disk structure (directory or bucket),
  // so the two walks never repeat a word.
  for (const auto& [word, list] : long_lists_->directory().lists()) {
    fn(word);
  }
  for (uint32_t b = 0; b < buckets_.options().num_buckets; ++b) {
    for (const auto& [word, list] : buckets_.bucket(b).entries()) {
      fn(word);
    }
  }
}

Status InvertedIndex::SweepDeletions(
    const std::unordered_set<DocId>& deleted) {
  if (!options_.materialize) {
    return Status::FailedPrecondition("sweep requires a materialized index");
  }
  if (deleted.empty()) return Status::OK();
  // Long lists: rewrite each list without the deleted documents. The
  // paper describes this as a background process sweeping one list at a
  // time.
  std::vector<WordId> long_words;
  long_words.reserve(long_lists_->directory().word_count());
  for (const auto& [word, list] : long_lists_->directory().lists()) {
    long_words.push_back(word);
  }
  std::sort(long_words.begin(), long_words.end());
  uint64_t removed = 0;
  for (const WordId word : long_words) {
    Result<std::vector<DocId>> docs = long_lists_->ReadPostings(word);
    if (!docs.ok()) return docs.status();
    std::vector<DocId> kept;
    kept.reserve(docs->size());
    for (const DocId d : *docs) {
      if (!deleted.contains(d)) kept.push_back(d);
    }
    if (kept.size() == docs->size()) continue;
    removed += docs->size() - kept.size();
    DUPLEX_RETURN_IF_ERROR(long_lists_->Drop(word));
    if (!kept.empty()) {
      DUPLEX_RETURN_IF_ERROR(long_lists_->Append(
          word, PostingList::Materialized(std::move(kept))));
    }
  }
  removed += buckets_.FilterPostings(
      [&](DocId d) { return deleted.contains(d); });
  total_postings_ -= removed;
  return Status::OK();
}

Status InvertedIndex::RewriteLongList(WordId word, std::vector<DocId> docs) {
  if (!options_.materialize) {
    return Status::FailedPrecondition("rewrite requires a materialized index");
  }
  const LongList* list = long_lists_->directory().Find(word);
  if (list == nullptr) {
    return Status::NotFound("word has no long list to rewrite");
  }
  const uint64_t before = list->total_postings;
  DUPLEX_RETURN_IF_ERROR(long_lists_->Drop(word));
  total_postings_ -= before;
  if (!docs.empty()) {
    const uint64_t after = docs.size();
    DUPLEX_RETURN_IF_ERROR(long_lists_->Append(
        word, PostingList::Materialized(std::move(docs))));
    total_postings_ += after;
  }
  return Status::OK();
}

Status InvertedIndex::VerifyIntegrity() const {
  std::map<std::pair<storage::DiskId, storage::BlockId>, storage::BlockId>
      ranges;
  for (const auto& [word, list] : long_lists_->directory().lists()) {
    uint64_t postings = 0;
    for (const ChunkRef& c : list.chunks) {
      if (c.range.length == 0 || c.postings == 0) {
        return Status::Corruption("empty chunk for word " +
                                  std::to_string(word));
      }
      if (c.postings > c.range.length * options_.block_postings) {
        return Status::Corruption("overfull chunk for word " +
                                  std::to_string(word));
      }
      postings += c.postings;
      if (!ranges
               .emplace(std::make_pair(c.range.disk, c.range.start),
                        c.range.end())
               .second) {
        return Status::Corruption("duplicate chunk start for word " +
                                  std::to_string(word));
      }
    }
    if (postings != list.total_postings) {
      return Status::Corruption("chunk postings do not sum for word " +
                                std::to_string(word));
    }
  }
  storage::DiskId prev_disk = 0;
  storage::BlockId prev_end = 0;
  bool first = true;
  for (const auto& [key, end] : ranges) {
    if (!first && key.first == prev_disk && key.second < prev_end) {
      return Status::Corruption("overlapping chunks on disk " +
                                std::to_string(key.first));
    }
    prev_disk = key.first;
    prev_end = end;
    first = false;
  }
  const IndexStats s = Stats();
  if (s.bucket_postings + s.long_postings != s.total_postings) {
    return Status::Corruption("posting totals inconsistent");
  }
  return Status::OK();
}

IndexStats InvertedIndex::Stats() const {
  IndexStats s;
  s.updates_applied = updates_applied_;
  s.total_postings = total_postings_;
  s.bucket_words = buckets_.TotalWords();
  s.bucket_postings = buckets_.TotalPostings();
  const Directory& dir = long_lists_->directory();
  s.long_words = dir.word_count();
  s.long_postings = dir.TotalPostings();
  s.long_chunks = dir.TotalChunks();
  s.long_blocks = dir.TotalBlocks();
  s.long_utilization = dir.Utilization(options_.block_postings);
  s.avg_reads_per_list = dir.AvgReadsPerList();
  s.bucket_occupancy = buckets_.Occupancy();
  s.io_ops = trace_.event_count();
  s.in_place_updates = long_lists_->counters().in_place_updates;
  s.append_opportunities = long_lists_->counters().appends_to_existing;
  const storage::CacheStats cache = disks_->cache_stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_evictions = cache.evictions;
  s.cache_dirty_writebacks = cache.dirty_writebacks;
  s.cache_pinned_peak = cache.pinned_peak;
  s.cache_physical_reads = cache.physical_reads;
  s.cache_physical_writes = cache.physical_writes;
  return s;
}

Status InvertedIndex::FlushCaches() { return disks_->FlushCache(); }

}  // namespace duplex::core
