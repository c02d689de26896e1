#ifndef DUPLEX_CORE_INDEX_SHARD_H_
#define DUPLEX_CORE_INDEX_SHARD_H_

#include <mutex>
#include <shared_mutex>
#include <utility>

#include "core/inverted_index.h"

namespace duplex::core {

// One shard of the sharded dual-structure index: an InvertedIndex (which
// already encapsulates exactly the per-shard state — bucket store,
// long-list store, directory, disk array, trace) paired with its own
// reader-writer lock. ShardedIndex composes N of these, and one shard is
// the degenerate case. The lock lives here rather than in ShardedIndex so
// that "a batch applying on shard 2 never blocks queries hitting shard 0"
// is a structural property, not a locking convention.
class IndexShard {
 public:
  explicit IndexShard(const IndexOptions& options) : index_(options) {}

  IndexShard(const IndexShard&) = delete;
  IndexShard& operator=(const IndexShard&) = delete;

  // Runs `fn(const InvertedIndex&)` under this shard's shared lock.
  template <typename Fn>
  auto WithRead(Fn&& fn) const {
    std::shared_lock lock(mutex_);
    return std::forward<Fn>(fn)(
        static_cast<const InvertedIndex&>(index_));
  }

  // Runs `fn(InvertedIndex&)` under this shard's exclusive lock.
  template <typename Fn>
  auto WithWrite(Fn&& fn) {
    std::unique_lock lock(mutex_);
    return std::forward<Fn>(fn)(index_);
  }

  // The shard's lock, for callers that must hold several shards at once
  // (e.g. a consistent multi-shard snapshot); lock in ascending shard
  // order to stay deadlock-free.
  std::shared_mutex& mutex() const { return mutex_; }

  // Unlocked access; the caller must hold mutex() appropriately.
  const InvertedIndex& index_unlocked() const { return index_; }
  InvertedIndex& index_unlocked() { return index_; }

 private:
  mutable std::shared_mutex mutex_;
  InvertedIndex index_;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_INDEX_SHARD_H_
