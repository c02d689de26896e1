#ifndef DUPLEX_CORE_LONG_LIST_STORE_H_
#define DUPLEX_CORE_LONG_LIST_STORE_H_

#include <cstdint>
#include <vector>

#include "core/chunk_format.h"
#include "core/codec_family.h"
#include "core/directory.h"
#include "core/policy.h"
#include "core/posting.h"
#include "storage/disk_array.h"
#include "storage/io_trace.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/types.h"

namespace duplex::core {

struct LongListStoreOptions {
  Policy policy;
  // Postings per disk block — the paper's BlockPosting parameter, which
  // "implicitly models the efficiency of the compression algorithm".
  uint64_t block_postings = 512;
  // When true, posting payloads are gap-encoded with `codec` and stored in
  // the disk array's block devices (required for queries). The array must
  // have materialize_payloads enabled.
  bool materialize = false;
  // Codec for materialized chunk payloads. Bitwise codecs (the Elias pair)
  // pad their final byte, so appended segments cannot be decoded as one
  // stream — in-place updates are automatically disabled for them and
  // every append rewrites through the whole/new/fill styles instead.
  CodecKind codec = CodecKind::kVByte;
  // On-device chunk framing (core/chunk_format.h): kChunkFormatV1 writes
  // the 16-byte versioned header ahead of each chunk payload;
  // kChunkFormatLegacy reproduces the pre-versioning headerless layout
  // (kept so indexes built before the header existed keep reading, and so
  // compatibility tests can write exact v0 bytes). Counted mode writes no
  // payloads, so the format only matters when `materialize` is set.
  uint8_t chunk_format = kChunkFormatV1;
};

// The long-list half of the dual-structure index. Implements the update
// algorithm of paper Figure 2 verbatim:
//
//   1  if y <= Limit then UPDATE(M)                   -- in-place append
//   3  else
//   4    if Style = whole then
//   5      b := READ(L)                               -- 1 read per chunk
//   6      WRITE_RESERVED(M and b)                    -- rewrite elsewhere
//   7    if Style = fill then
//   8      WHILE (M not empty)
//   9        WRITE(M, M)                              -- fill e-block extents
//  10    if Style = new then
//  11      WRITE_RESERVED(M)                          -- append a new chunk
//
// with Limit = 0 (never in-place) or z (free tail space of the last
// chunk). READ places freed chunks on the RELEASE list, which is returned
// to free space at the end of each batch (FlushEpoch), matching the
// paper's deferred deallocation.
//
// Error contract: a failed Append (e.g. disks full mid-move) may leave
// the affected word's list partially written; the store's structural
// invariants still hold, and recovery follows the paper's restartable-
// batch protocol — replay the batch from the write-ahead BatchLog
// against the last checkpoint (see core/batch_log.h).
class LongListStore {
 public:
  struct Counters {
    uint64_t appends_to_existing = 0;  // in-place opportunities (Tables 5/6)
    uint64_t in_place_updates = 0;
    uint64_t lists_created = 0;
    uint64_t read_ops = 0;
    uint64_t write_ops = 0;
    uint64_t postings_moved = 0;  // rewritten by whole-style moves

    void Merge(const Counters& other) {
      appends_to_existing += other.appends_to_existing;
      in_place_updates += other.in_place_updates;
      lists_created += other.lists_created;
      read_ops += other.read_ops;
      write_ops += other.write_ops;
      postings_moved += other.postings_moved;
    }
  };

  // `disks` must outlive the store. `trace` may be null (no trace
  // recording, e.g. for pure library use).
  LongListStore(const LongListStoreOptions& options,
                storage::DiskArray* disks, storage::IoTrace* trace);

  LongListStore(const LongListStore&) = delete;
  LongListStore& operator=(const LongListStore&) = delete;

  // Appends the in-memory list `m` to the long list of `word`, creating
  // the long list if this word has none (bucket-overflow promotion).
  Status Append(WordId word, const PostingList& m);

  // End-of-batch housekeeping: returns RELEASE-list chunks to free space.
  Status FlushEpoch();

  // Reads and decodes the full posting list (materialized mode only).
  // Does not record trace events; query-cost accounting is the query
  // layer's job.
  Result<std::vector<DocId>> ReadPostings(WordId word) const;

  // Drops the long list for `word`, freeing its chunks immediately.
  // Returns NotFound if absent. Used by the deletion sweep.
  Status Drop(WordId word);

  // Merges the word's chunks into one right-sized chunk (exactly the
  // blocks its postings need, no policy reserve), freeing the old chunks
  // onto the RELEASE list. Works in both counted and materialized modes —
  // compaction moves postings, it never interprets them. A list already
  // occupying one minimal chunk is left untouched. NotFound when the word
  // has no long list.
  Status Compact(WordId word);

  bool Contains(WordId word) const { return directory_.Contains(word); }
  const Directory& directory() const { return directory_; }
  const Counters& counters() const { return counters_; }
  const LongListStoreOptions& options() const { return options_; }

  // Free tail space z (in postings) of the last chunk of `word`'s list;
  // 0 when the word has no long list.
  uint64_t TailSpace(WordId word) const;

 private:
  uint64_t BlocksFor(uint64_t postings) const {
    return (postings + options_.block_postings - 1) / options_.block_postings;
  }
  uint64_t ChunkCapacity(const ChunkRef& c) const {
    return c.range.length * options_.block_postings;
  }

  void Record(storage::IoOp op, WordId word, uint64_t postings,
              const storage::BlockRange& range, uint64_t nblocks);

  // UPDATE(M): in-place append into the last chunk of `list`.
  Status UpdateInPlace(WordId word, LongList* list, const PostingList& m);

  // READ(L): reads all chunks, pushes them on the RELEASE list, clears the
  // entry, and returns the full list.
  Result<PostingList> ReadAndRelease(WordId word, LongList* list);

  // WRITE_RESERVED(a): writes `a` as one new chunk with f(x) reserved.
  Status WriteReserved(WordId word, LongList* list, const PostingList& a);

  // Writes `a` as one new chunk of exactly `alloc_blocks` blocks (the
  // shared tail of WRITE_RESERVED and the compactor's right-sized write).
  Status WriteChunk(WordId word, LongList* list, const PostingList& a,
                    uint64_t alloc_blocks);

  // WRITE(a, b): fill style; writes up to extent-size postings, returns
  // the remainder through `a`.
  Status WriteExtents(WordId word, LongList* list, PostingList m);

  // Encodes `docs` with the configured codec and writes (v1 header +)
  // payload at the front of `chunk`'s range; fills chunk->byte_length,
  // chunk->format, and chunk->codec.
  Status WriteChunkPayload(ChunkRef* chunk, const std::vector<DocId>& docs,
                           DocId base);

  // Reads one chunk back: fetches the (header +) payload bytes, validates
  // the v1 header against the ChunkRef — magic, version, flags, reserved
  // bytes, and codec must all agree with the directory's metadata; any
  // disagreement is kCorruption — then decodes `chunk.postings` doc ids.
  Result<std::vector<DocId>> DecodeChunk(const ChunkRef& chunk) const;

  // Whether the configured codec can decode appended segments as one
  // stream (byte-aligned varints can; bit-padded Elias codes cannot).
  bool CodecSupportsInPlaceAppend() const {
    return options_.codec == CodecKind::kVByte;
  }

  LongListStoreOptions options_;
  storage::DiskArray* disks_;
  storage::IoTrace* trace_;
  Directory directory_;
  std::vector<storage::BlockRange> release_;
  Counters counters_;

  // Registry mirrors of the decision counters (null = recording off).
  Counter* m_in_place_ = nullptr;
  Counter* m_new_chunks_ = nullptr;
  Counter* m_lists_created_ = nullptr;
  Counter* m_postings_moved_ = nullptr;
};

}  // namespace duplex::core

#endif  // DUPLEX_CORE_LONG_LIST_STORE_H_
