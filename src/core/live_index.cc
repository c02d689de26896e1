#include "core/live_index.h"

#include <algorithm>

#include "util/logging.h"

namespace duplex::core {

LiveIndex::LiveIndex(ShardedIndex* index, BatchLog* wal, Options options)
    : index_(index),
      wal_(wal),
      options_(options),
      active_(std::make_shared<DeltaIndex>(1)) {
  DUPLEX_CHECK(index_ != nullptr);
  m_delta_docs_ = GlobalGauge("duplex_core_delta_docs",
                              "Documents in the live delta tiers");
  m_delta_postings_ = GlobalGauge("duplex_core_delta_postings",
                                  "Postings in the live delta tiers");
  m_live_submits_ = GlobalCounter("duplex_core_live_submits",
                                  "Accepted live submit batches");
  m_busy_ = GlobalCounter("duplex_core_live_busy",
                          "Live submits rejected by the delta cap");
  m_drain_rounds_ = GlobalCounter("duplex_core_delta_drain_rounds",
                                  "Completed delta drain rounds");
  m_drain_ns_ = GlobalLatency("duplex_core_delta_drain_ns",
                              "Delta drain round wall-clock");
  m_submit_ns_ = GlobalLatency("duplex_core_live_submit_ns",
                               "Live submit wall-clock (invert + WAL "
                               "append + delta insert)");
}

LiveIndex::~LiveIndex() { StopDrainer(); }

Result<LiveIndex::SubmitReceipt> LiveIndex::SubmitLive(
    const std::vector<std::string>& documents) {
  ScopedLatency timer(m_submit_ns_);
  std::lock_guard<std::mutex> submit(submit_mutex_);
  std::shared_ptr<DeltaIndex> tier, draining;
  uint64_t depth = 0;
  {
    std::shared_lock tiers(tiers_mutex_);
    tier = active_;
    draining = draining_;
  }
  depth = tier->document_count() +
          (draining ? draining->document_count() : 0);
  if (options_.delta_cap_docs > 0 &&
      depth + documents.size() > options_.delta_cap_docs) {
    {
      std::lock_guard<std::mutex> state(state_mutex_);
      ++busy_rejections_;
    }
    if (m_busy_ != nullptr) m_busy_->Inc();
    return Status::ResourceExhausted(
        "live delta full (" + std::to_string(depth) + " of " +
        std::to_string(options_.delta_cap_docs) +
        " docs undrained); back off and retry");
  }
  Result<ShardedIndex::LiveBatch> batch = index_->BuildLiveBatch(documents);
  if (!batch.ok()) return batch.status();
  uint64_t wal_batch_id = 0;
  if (wal_ != nullptr) {
    // The ack promise: durable before visible. On failure the documents
    // are never inserted (their doc ids are burned, nothing more); if
    // the record reached the kernel before the sync failed, recovery may
    // replay it — the standard ambiguous outcome of an unacked write.
    std::lock_guard<std::mutex> wal(wal_mutex_);
    Result<uint64_t> appended = wal_->AppendBatch(batch->batch, batch->words);
    if (!appended.ok()) return appended.status();
    wal_batch_id = *appended;
  }
  tier->Insert(batch->batch, batch->words, batch->first_doc,
               batch->documents, /*logged=*/wal_ != nullptr, wal_batch_id);
  if (m_live_submits_ != nullptr) m_live_submits_->Inc();
  if (m_delta_docs_ != nullptr) {
    m_delta_docs_->Set(static_cast<double>(depth + documents.size()));
  }
  if (m_delta_postings_ != nullptr) {
    m_delta_postings_->Set(static_cast<double>(
        tier->total_postings() +
        (draining ? draining->total_postings() : 0)));
  }
  SubmitReceipt receipt;
  receipt.first_doc = batch->first_doc;
  receipt.accepted = batch->documents;
  receipt.wal_batch_id = wal_batch_id;
  receipt.epoch = tier->epoch();
  receipt.delta_docs = depth + documents.size();
  return receipt;
}

Result<LiveIndex::SubmitReceipt> LiveIndex::SubmitBatch(
    const std::vector<std::string>& documents) {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  std::lock_guard<std::mutex> submit(submit_mutex_);
  // Posting lists are append-only in doc-id order, and this path writes
  // to the disk index directly — so any younger doc ids still buffered
  // in the delta must land first. Quiesce the delta, then apply.
  DUPLEX_RETURN_IF_ERROR(DrainAllLocked(/*submit_held=*/true));
  // One live batch, applied straight through the commit protocol
  // instead of entering the delta.
  Result<ShardedIndex::LiveBatch> batch = index_->BuildLiveBatch(documents);
  if (!batch.ok()) return batch.status();
  SubmitReceipt receipt;
  receipt.first_doc = batch->first_doc;
  receipt.accepted = batch->documents;
  if (wal_ == nullptr) {
    DUPLEX_RETURN_IF_ERROR(index_->ApplyInvertedBatch(batch->batch));
    return receipt;
  }
  std::lock_guard<std::mutex> wal(wal_mutex_);
  Result<uint64_t> id = index_->ApplyLogged(wal_, batch->batch, batch->words);
  if (!id.ok()) return id.status();
  receipt.wal_batch_id = *id;
  return receipt;
}

void LiveIndex::DeleteDocument(DocId doc) {
  // Disk first, then the tiers: a doc mid-drain is filtered wherever the
  // racing reader finds it.
  index_->DeleteDocument(doc);
  std::shared_ptr<DeltaIndex> active, draining;
  {
    std::shared_lock tiers(tiers_mutex_);
    active = active_;
    draining = draining_;
  }
  active->MarkDeleted(doc);
  if (draining) draining->MarkDeleted(doc);
}

LiveIndex::ReadView LiveIndex::AcquireView() const {
  ReadView view;
  {
    std::shared_lock tiers(tiers_mutex_);
    // Both tiers empty: the disk index alone answers, with no overlay. A
    // submit acked after this check inserts into a tier this view never
    // pinned, which is exactly a view acquired before that ack.
    if (draining_ == nullptr && active_->empty()) {
      view.reader_ = index_;
      return view;
    }
    // The tier pointers have not moved since the last view, so the
    // memoized MergingReader is still exactly right — share it.
    if (cached_merged_ != nullptr && cached_active_ == active_ &&
        cached_draining_ == draining_) {
      view.active_ = active_;
      view.draining_ = draining_;
      view.merged_ = cached_merged_;
      view.reader_ = view.merged_.get();
      return view;
    }
  }
  // A submit or drain swapped a tier: rebuild under the exclusive lock
  // (rare — once per epoch handoff, not per query).
  std::unique_lock tiers(tiers_mutex_);
  view.active_ = active_;
  view.draining_ = draining_;
  std::vector<const IndexReader*> readers;
  readers.push_back(index_);
  if (view.draining_) readers.push_back(view.draining_.get());
  readers.push_back(view.active_.get());
  auto merged = std::make_shared<const MergingReader>(std::move(readers));
  cached_merged_ = merged;
  cached_active_ = view.active_;
  cached_draining_ = view.draining_;
  view.merged_ = std::move(merged);
  view.reader_ = view.merged_.get();
  return view;
}

bool LiveIndex::DeltaEmpty() const {
  std::shared_lock tiers(tiers_mutex_);
  return active_->empty() && draining_ == nullptr;
}

Status LiveIndex::DrainOnce() {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  return DrainLocked(/*submit_held=*/false);
}

Status LiveIndex::DrainAll() {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  return DrainAllLocked(/*submit_held=*/false);
}

Status LiveIndex::DrainAllLocked(bool submit_held) {
  while (!DeltaEmpty()) {
    DUPLEX_RETURN_IF_ERROR(DrainLocked(submit_held));
  }
  return Status::OK();
}

Status LiveIndex::DrainLocked(bool submit_held) {
  {
    std::lock_guard<std::mutex> state(state_mutex_);
    if (!drain_error_.ok()) return drain_error_;
  }
  // Epoch handoff: one pointer swap under the submit + tier locks. A
  // submit serialized before us inserted into the tier we seal (its
  // documents drain now); one serialized after inserts into the fresh
  // tier. Readers pinning pointers before the swap see the sealed tier
  // as `active`, after it as `draining` — both contain every acked doc.
  std::shared_ptr<DeltaIndex> sealed;
  const auto seal = [&] {
    std::unique_lock tiers(tiers_mutex_);
    if (active_->empty()) return;
    sealed = active_;
    draining_ = sealed;
    active_ = std::make_shared<DeltaIndex>(++epoch_);
    cached_merged_.reset();
    cached_active_.reset();
    cached_draining_.reset();
  };
  if (submit_held) {
    seal();
  } else {
    std::lock_guard<std::mutex> submit(submit_mutex_);
    seal();
  }
  if (!sealed) return Status::OK();

  ScopedLatency timer(m_drain_ns_);
  const auto started = std::chrono::steady_clock::now();
  const DeltaIndex::DrainSnapshot snap = sealed->Snapshot();
  Status status = index_->ApplyInvertedBatch(snap.batch);
  if (status.ok()) status = index_->FlushCaches();
  if (status.ok() && wal_ != nullptr) {
    std::lock_guard<std::mutex> wal(wal_mutex_);
    for (const uint64_t id : snap.wal_batch_ids) {
      status = wal_->MarkApplied(id);
      if (!status.ok()) break;
    }
  }
  if (!status.ok()) {
    // A half-applied batch must never re-apply (postings would
    // duplicate), so the sealed tier stays pinned in draining_ — every
    // acked document remains visible — and the error latches. Restart
    // recovers: the WAL replays these batches into fresh structures.
    std::lock_guard<std::mutex> state(state_mutex_);
    if (drain_error_.ok()) drain_error_ = status;
    return status;
  }
  {
    std::unique_lock tiers(tiers_mutex_);
    draining_.reset();
    // Drop the memoized view too: it pins the sealed tier, whose
    // postings are now on disk.
    cached_merged_.reset();
    cached_active_.reset();
    cached_draining_.reset();
  }
  const uint64_t elapsed_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  {
    std::lock_guard<std::mutex> state(state_mutex_);
    ++drain_rounds_;
    last_drain_ns_ = elapsed_ns;
  }
  if (m_drain_rounds_ != nullptr) m_drain_rounds_->Inc();
  if (m_delta_docs_ != nullptr) {
    std::shared_lock tiers(tiers_mutex_);
    m_delta_docs_->Set(static_cast<double>(active_->document_count()));
    if (m_delta_postings_ != nullptr) {
      m_delta_postings_->Set(
          static_cast<double>(active_->total_postings()));
    }
  }
  return Status::OK();
}

void LiveIndex::StartDrainer() {
  std::lock_guard<std::mutex> state(state_mutex_);
  if (drainer_.joinable()) return;  // already running
  drainer_stop_ = false;
  drainer_ = std::thread([this] {
    while (true) {
      {
        std::unique_lock<std::mutex> state(state_mutex_);
        if (drainer_cv_.wait_for(state, options_.drain_interval,
                                 [this] { return drainer_stop_; })) {
          return;
        }
        // Sticky failure: stop ticking (every round would return the
        // same latched error); the status stays visible in
        // GetDeltaStatus and the sealed tier stays queryable.
        if (!drain_error_.ok()) return;
      }
      DrainOnce();
    }
  });
}

void LiveIndex::StopDrainer() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> state(state_mutex_);
    if (!drainer_.joinable()) return;
    drainer_stop_ = true;
    worker = std::move(drainer_);
  }
  drainer_cv_.notify_all();
  worker.join();
}

bool LiveIndex::drainer_running() const {
  std::lock_guard<std::mutex> state(state_mutex_);
  return drainer_.joinable();
}

Result<CheckpointInfo> LiveIndex::CheckpointNow(Checkpointer* checkpointer) {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  std::lock_guard<std::mutex> submit(submit_mutex_);
  // A checkpoint covers only committed work (the Checkpointer refuses
  // unapplied WAL batches), so quiesce: no new submits, delta fully
  // drained, then cut the image with the WAL frozen.
  DUPLEX_RETURN_IF_ERROR(DrainAllLocked(/*submit_held=*/true));
  std::lock_guard<std::mutex> wal(wal_mutex_);
  return checkpointer->Checkpoint(*index_, wal_);
}

Status LiveIndex::Flush() {
  std::lock_guard<std::mutex> drain(drain_mutex_);
  std::lock_guard<std::mutex> submit(submit_mutex_);
  DUPLEX_RETURN_IF_ERROR(DrainAllLocked(/*submit_held=*/true));
  return index_->FlushCaches();
}

LiveIndex::WalStatus LiveIndex::GetWalStatus() const {
  std::lock_guard<std::mutex> submit(submit_mutex_);
  std::lock_guard<std::mutex> wal(wal_mutex_);
  WalStatus status;
  if (wal_ != nullptr) {
    status.attached = true;
    status.tail_batches = wal_->batches_logged();
    status.base_epoch = wal_->base_epoch();
    status.next_id = wal_->next_id();
    status.unapplied = wal_->batches_unapplied();
  }
  return status;
}

LiveIndex::DeltaStatus LiveIndex::GetDeltaStatus() const {
  DeltaStatus status;
  std::shared_ptr<DeltaIndex> active, draining;
  {
    std::shared_lock tiers(tiers_mutex_);
    active = active_;
    draining = draining_;
    status.epoch = epoch_;
  }
  status.active_docs = active->document_count();
  status.postings = active->total_postings();
  auto oldest = std::chrono::steady_clock::time_point::max();
  if (!active->empty()) oldest = active->oldest_insert();
  if (draining) {
    status.draining_docs = draining->document_count();
    status.postings += draining->total_postings();
    if (!draining->empty()) {
      oldest = std::min(oldest, draining->oldest_insert());
    }
  }
  if (oldest != std::chrono::steady_clock::time_point::max()) {
    status.oldest_age_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - oldest)
            .count());
  }
  {
    std::lock_guard<std::mutex> state(state_mutex_);
    status.drain_rounds = drain_rounds_;
    status.last_drain_ns = last_drain_ns_;
    status.busy_rejections = busy_rejections_;
    status.drainer_running = drainer_.joinable();
    status.drain_status = drain_error_;
  }
  return status;
}

}  // namespace duplex::core
