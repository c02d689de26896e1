#ifndef DUPLEX_CORE_SCRUB_H_
#define DUPLEX_CORE_SCRUB_H_

#include <string>
#include <vector>

#include "core/batch_log.h"
#include "core/inverted_index.h"
#include "util/status.h"
#include "util/types.h"

namespace duplex::core {

// Offline integrity scrub: walks every long-list chunk in the directory
// and verifies its blocks against the ChecksumBlockDevice layer, reading
// BELOW the buffer pool so a clean cached copy cannot mask on-device rot
// (and so the scrub itself never "repairs" damage by flushing over it).
//
// Coverage map: in this reproduction only long-list payloads are ever
// physically written to the block devices — the bucket and directory
// regions are shadow-paged allocations whose writes are trace events, and
// their contents live in BucketStore/Directory memory, checkpoint-protected.
// The long-list chunks therefore ARE the entire on-device checksum
// surface, and a scrub that walks the directory walks everything.
//
// Repair: a word whose chunks fail verification is quarantined. When a
// BatchLog with materialized history is supplied and its accumulated
// postings for the word account for exactly the directory's posting total,
// the list is rewritten from the WAL through the normal write path (fresh
// chunks, fresh checksums) and re-verified. Words the WAL cannot fully
// reconstruct stay quarantined for a restore from a checkpoint. Repair reads
// the WAL back one record at a time; a record damaged on disk fails the
// scrub with Corruption rather than feeding it wrong postings.
struct ScrubOptions {
  // Attempt WAL-based repair of quarantined words (needs `wal`).
  bool repair = true;
};

struct ScrubReport {
  uint64_t words_scanned = 0;
  uint64_t chunks_scanned = 0;
  uint64_t blocks_scanned = 0;
  uint64_t corrupt_blocks = 0;
  uint64_t corrupt_chunks = 0;
  std::vector<WordId> repaired;     // rewritten from the WAL and re-verified
  std::vector<WordId> quarantined;  // still damaged after the scrub

  bool clean() const { return corrupt_blocks == 0; }
  std::string ToString() const;
  // Adds another scrub's counts and word lists (e.g. another shard's).
  void Merge(const ScrubReport& other);
};

// `wal` may be null (verification only). The index must be materialized
// and built with disks.checksums = true.
Result<ScrubReport> ScrubIndex(InvertedIndex* index, BatchLog* wal,
                               const ScrubOptions& options = {});

}  // namespace duplex::core

#endif  // DUPLEX_CORE_SCRUB_H_
