#include "core/scrub.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "core/directory.h"
#include "core/long_list_store.h"
#include "storage/checksum_device.h"
#include "storage/disk_array.h"

namespace duplex::core {
namespace {

// All postings the WAL has logged for each of `words`, in append order,
// read back one record at a time. Only materialized batch records
// contribute; the result is a word's full flushed history when the log
// covers the index's lifetime.
Result<std::unordered_map<WordId, std::vector<DocId>>> AccumulateWalPostings(
    const BatchLog& wal, const std::vector<WordId>& words) {
  const std::unordered_set<WordId> wanted(words.begin(), words.end());
  std::unordered_map<WordId, std::vector<DocId>> postings;
  DUPLEX_RETURN_IF_ERROR(wal.ForEachBatch(
      wal.base_epoch(), [&](const BatchLog::LoggedBatch& batch) {
        for (const auto& entry : batch.docs.entries) {
          if (wanted.count(entry.word) == 0) continue;
          auto& docs = postings[entry.word];
          docs.insert(docs.end(), entry.docs.begin(), entry.docs.end());
        }
        return Status::OK();
      }));
  return postings;
}

// Verifies every chunk of `list` below the cache; returns the number of
// bad blocks and counts scanned chunks/blocks into the report.
uint64_t VerifyList(storage::DiskArray& disks, const LongList& list,
                    ScrubReport* report) {
  uint64_t bad_blocks = 0;
  for (const ChunkRef& chunk : list.chunks) {
    ++report->chunks_scanned;
    report->blocks_scanned += chunk.range.length;
    storage::ChecksumBlockDevice* dev = disks.checksum_device(chunk.range.disk);
    std::vector<storage::BlockId> bad;
    // VerifyBlocks scans the whole chunk even past the first failure, so
    // one pass sees all damage; non-corruption read errors abort the scrub.
    DUPLEX_CHECK_OK(dev->VerifyBlocks(chunk.range.start, chunk.range.length,
                                      &bad));
    if (!bad.empty()) {
      ++report->corrupt_chunks;
      bad_blocks += bad.size();
    }
  }
  return bad_blocks;
}

}  // namespace

std::string ScrubReport::ToString() const {
  std::string out = "scrub: " + std::to_string(words_scanned) + " words, " +
                    std::to_string(chunks_scanned) + " chunks, " +
                    std::to_string(blocks_scanned) + " blocks; " +
                    std::to_string(corrupt_blocks) + " corrupt blocks in " +
                    std::to_string(corrupt_chunks) + " chunks";
  out += "; repaired " + std::to_string(repaired.size());
  out += ", quarantined " + std::to_string(quarantined.size());
  return out;
}

Result<ScrubReport> ScrubIndex(InvertedIndex* index, BatchLog* wal,
                               const ScrubOptions& options) {
  DUPLEX_CHECK(index != nullptr);
  if (!index->options().materialize) {
    return Status::FailedPrecondition("scrub requires a materialized index");
  }
  storage::DiskArray& disks = index->disks();
  for (storage::DiskId d = 0; d < disks.num_disks(); ++d) {
    if (disks.checksum_device(d) == nullptr) {
      return Status::FailedPrecondition(
          "scrub requires device checksums (IndexOptions::disks.checksums)");
    }
  }

  ScrubReport report;
  // Deterministic word order regardless of hash-map iteration.
  const auto& lists = index->long_list_store().directory().lists();
  std::vector<WordId> words;
  words.reserve(lists.size());
  for (const auto& [word, list] : lists) words.push_back(word);
  std::sort(words.begin(), words.end());

  std::vector<WordId> damaged;
  for (const WordId word : words) {
    ++report.words_scanned;
    const uint64_t bad = VerifyList(disks, lists.at(word), &report);
    if (bad > 0) {
      report.corrupt_blocks += bad;
      damaged.push_back(word);
    }
  }

  std::unordered_map<WordId, std::vector<DocId>> wal_postings;
  if (options.repair && wal != nullptr && !damaged.empty()) {
    Result<std::unordered_map<WordId, std::vector<DocId>>> logged =
        AccumulateWalPostings(*wal, damaged);
    if (!logged.ok()) return logged.status();
    wal_postings = std::move(*logged);
  }
  std::vector<WordId> rewritten;
  for (const WordId word : damaged) {
    const LongList* list = index->long_list_store().directory().Find(word);
    const auto it = wal_postings.find(word);
    // Repair only when the WAL accounts for the word's entire list —
    // partial history would silently shrink the index.
    if (list == nullptr || it == wal_postings.end() ||
        it->second.size() != list->total_postings) {
      report.quarantined.push_back(word);
      continue;
    }
    DUPLEX_RETURN_IF_ERROR(index->RewriteLongList(word, it->second));
    rewritten.push_back(word);
  }
  if (!rewritten.empty()) {
    // Push the rewrites through any write-back pool so the below-cache
    // re-verification judges the device image, not a vacuously-clean set
    // of not-yet-written blocks.
    DUPLEX_RETURN_IF_ERROR(index->FlushCaches());
  }
  for (const WordId word : rewritten) {
    ScrubReport recheck;
    const LongList* list = index->long_list_store().directory().Find(word);
    if (list == nullptr || VerifyList(disks, *list, &recheck) > 0) {
      report.quarantined.push_back(word);
    } else {
      report.repaired.push_back(word);
    }
  }
  std::sort(report.quarantined.begin(), report.quarantined.end());
  return report;
}

}  // namespace duplex::core
