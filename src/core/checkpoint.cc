#include "core/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "core/posting_codec.h"
#include "core/sharded_index.h"
#include "util/hash.h"
#include "util/logging.h"

namespace duplex::core {
namespace {

constexpr char kImageMagic[8] = {'D', 'P', 'X', 'C', 'K', 'P', 'T', '1'};
constexpr char kManifestMagic[8] = {'D', 'P', 'X', 'M', 'A', 'N', 'I', '1'};
constexpr uint64_t kFormatVersion = 1;
constexpr uint64_t kFlagMaterialized = 1;

void PutFixed64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

uint64_t GetFixed64(const std::string& bytes, size_t pos) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, 8);
  return v;
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

// Writes `bytes` to `path` in 4 KiB fault-aware chunks plus one sync op,
// so a crash sweep can stop the payload write at any chunk boundary. A
// failed attempt removes the partial file (the name may be reused by the
// retry that follows the "crash").
Status WriteFileWithFaults(const std::string& path, const std::string& bytes,
                           storage::FaultSchedule* fault) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  Status s = Status::OK();
  constexpr size_t kChunk = 4096;
  for (size_t off = 0; s.ok() && off < bytes.size(); off += kChunk) {
    const size_t len = std::min(kChunk, bytes.size() - off);
    s = storage::FaultyPWrite(
        fd, path, off, reinterpret_cast<const uint8_t*>(bytes.data()) + off,
        len, fault);
  }
  if (s.ok()) s = storage::FaultySync(fd, path, fault);
  ::close(fd);
  if (!s.ok()) ::unlink(path.c_str());
  return s;
}

// Fully decoded checkpoint image, staged before any of it touches an
// index: a candidate must parse end-to-end (under its checksum) before
// restore begins, so a rejected candidate leaves the index untouched for
// the next one.
struct WordEntry {
  WordId word = 0;
  uint64_t count = 0;
  std::vector<DocId> docs;  // materialized images only
};

struct CheckpointImage {
  bool materialized = false;
  uint64_t wal_epoch = 0;
  uint64_t num_disks = 0;
  uint64_t blocks_per_disk = 0;
  uint64_t block_size_bytes = 0;
  uint64_t num_buckets = 0;
  uint64_t bucket_capacity = 0;
  std::vector<WordEntry> long_words;
  std::vector<WordEntry> bucket_words;
  std::vector<std::string> vocabulary;
  DocId next_doc_id = 0;
  std::vector<DocId> deleted;
  CompactionStats totals;
};

void EncodeWordSection(const std::vector<WordEntry>& words,
                       bool materialized, std::string* out) {
  PutVarint64(words.size(), out);
  for (const WordEntry& entry : words) {
    PutVarint64(entry.word, out);
    PutVarint64(entry.count, out);
    if (materialized) EncodePostings(entry.docs, 0, out);
  }
}

Status DecodeWordSection(const std::string& bytes, size_t* pos,
                         bool materialized, std::vector<WordEntry>* out) {
  Result<uint64_t> count = GetVarint64(bytes, pos);
  if (!count.ok()) return count.status();
  out->reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    WordEntry entry;
    Result<uint64_t> word = GetVarint64(bytes, pos);
    if (!word.ok()) return word.status();
    entry.word = static_cast<WordId>(*word);
    Result<uint64_t> postings = GetVarint64(bytes, pos);
    if (!postings.ok()) return postings.status();
    entry.count = *postings;
    if (materialized) {
      entry.docs.reserve(entry.count);
      DUPLEX_RETURN_IF_ERROR(
          DecodePostings(bytes, pos, entry.count, 0, &entry.docs));
    }
    out->push_back(std::move(entry));
  }
  return Status::OK();
}

void EncodeCompactionTotals(const CompactionStats& t, std::string* out) {
  PutVarint64(t.rounds, out);
  PutVarint64(t.lists_examined, out);
  PutVarint64(t.candidates, out);
  PutVarint64(t.lists_compacted, out);
  PutVarint64(t.chunks_before, out);
  PutVarint64(t.chunks_after, out);
  PutVarint64(t.blocks_before, out);
  PutVarint64(t.blocks_after, out);
  PutVarint64(t.postings_rewritten, out);
  PutVarint64(t.read_ops, out);
  PutVarint64(t.write_ops, out);
  PutVarint64(t.more_pending ? 1 : 0, out);
}

Status DecodeCompactionTotals(const std::string& bytes, size_t* pos,
                              CompactionStats* t) {
  uint64_t* fields[] = {&t->rounds,        &t->lists_examined,
                        &t->candidates,    &t->lists_compacted,
                        &t->chunks_before, &t->chunks_after,
                        &t->blocks_before, &t->blocks_after,
                        &t->postings_rewritten, &t->read_ops,
                        &t->write_ops};
  for (uint64_t* field : fields) {
    Result<uint64_t> v = GetVarint64(bytes, pos);
    if (!v.ok()) return v.status();
    *field = *v;
  }
  Result<uint64_t> pending = GetVarint64(bytes, pos);
  if (!pending.ok()) return pending.status();
  t->more_pending = *pending != 0;
  return Status::OK();
}

void EncodeVocabulary(const text::Vocabulary& vocabulary, std::string* out) {
  PutVarint64(vocabulary.size(), out);
  for (WordId id = 0; id < vocabulary.size(); ++id) {
    const std::string& word = vocabulary.WordFor(id);
    PutVarint64(word.size(), out);
    out->append(word);
  }
}

Status DecodeVocabulary(const std::string& bytes, size_t* pos,
                        std::vector<std::string>* out) {
  Result<uint64_t> size = GetVarint64(bytes, pos);
  if (!size.ok()) return size.status();
  out->reserve(*size);
  for (uint64_t i = 0; i < *size; ++i) {
    Result<uint64_t> len = GetVarint64(bytes, pos);
    if (!len.ok()) return len.status();
    if (*pos + *len > bytes.size()) {
      return Status::Corruption("checkpoint: truncated vocabulary");
    }
    out->push_back(bytes.substr(*pos, *len));
    *pos += *len;
  }
  return Status::OK();
}

void EncodeDocState(DocId next_doc_id, const std::vector<DocId>& deleted,
                    std::string* out) {
  PutVarint64(next_doc_id, out);
  PutVarint64(deleted.size(), out);
  EncodePostings(deleted, 0, out);
}

Status DecodeDocState(const std::string& bytes, size_t* pos,
                      DocId* next_doc_id, std::vector<DocId>* deleted) {
  Result<uint64_t> next_doc = GetVarint64(bytes, pos);
  if (!next_doc.ok()) return next_doc.status();
  *next_doc_id = static_cast<DocId>(*next_doc);
  Result<uint64_t> n_deleted = GetVarint64(bytes, pos);
  if (!n_deleted.ok()) return n_deleted.status();
  return DecodePostings(bytes, pos, *n_deleted, 0, deleted);
}

// Serializes the LOGICAL state of one index: every posting list with its
// home structure, vocabulary, doc state, compaction totals — but no block
// addresses. Restore re-derives physical placement through the ordinary
// policy path, so the image is geometry-checked but layout-free.
Result<std::string> EncodeImage(const InvertedIndex& index,
                                uint64_t wal_epoch) {
  const bool materialized = index.options().materialize;
  std::string stream;
  stream.append(kImageMagic, sizeof(kImageMagic));
  PutVarint64(kFormatVersion, &stream);
  PutVarint64(materialized ? kFlagMaterialized : 0, &stream);
  PutVarint64(wal_epoch, &stream);

  // Geometry, validated at restore: an image can only restore into an
  // index configured like the one it was taken from.
  const IndexOptions& options = index.options();
  PutVarint64(options.disks.num_disks, &stream);
  PutVarint64(options.disks.blocks_per_disk, &stream);
  PutVarint64(options.disks.block_size_bytes, &stream);
  PutVarint64(options.buckets.num_buckets, &stream);
  PutVarint64(options.buckets.bucket_capacity, &stream);

  std::vector<WordEntry> long_words;
  for (const auto& [word, list] :
       index.long_list_store().directory().lists()) {
    WordEntry entry;
    entry.word = word;
    entry.count = list.total_postings;
    if (materialized) {
      Result<std::vector<DocId>> docs =
          index.long_list_store().ReadPostings(word);
      if (!docs.ok()) return docs.status();
      entry.docs = std::move(*docs);
    }
    long_words.push_back(std::move(entry));
  }
  std::vector<WordEntry> bucket_words;
  const BucketStore& buckets = index.bucket_store();
  for (uint32_t b = 0; b < buckets.options().num_buckets; ++b) {
    for (const auto& [word, list] : buckets.bucket(b).entries()) {
      WordEntry entry;
      entry.word = word;
      entry.count = list.size();
      if (materialized) {
        DUPLEX_CHECK(list.materialized());
        entry.docs = list.docs();
      }
      bucket_words.push_back(std::move(entry));
    }
  }
  const auto by_word = [](const WordEntry& a, const WordEntry& b) {
    return a.word < b.word;
  };
  std::sort(long_words.begin(), long_words.end(), by_word);
  std::sort(bucket_words.begin(), bucket_words.end(), by_word);
  EncodeWordSection(long_words, materialized, &stream);
  EncodeWordSection(bucket_words, materialized, &stream);

  EncodeVocabulary(index.vocabulary(), &stream);
  std::vector<DocId> deleted = index.deleted_docs();
  std::sort(deleted.begin(), deleted.end());
  EncodeDocState(index.next_doc_id(), deleted, &stream);
  EncodeCompactionTotals(index.compaction_totals(), &stream);

  PutFixed64(Fnv1a64(stream.data(), stream.size()), &stream);
  return stream;
}

Result<CheckpointImage> ParseImage(const std::string& bytes) {
  if (bytes.size() < sizeof(kImageMagic) + 8) {
    return Status::Corruption("checkpoint image too short");
  }
  const uint64_t stored = GetFixed64(bytes, bytes.size() - 8);
  if (stored != Fnv1a64(bytes.data(), bytes.size() - 8)) {
    return Status::Corruption("checkpoint image checksum mismatch");
  }
  if (std::memcmp(bytes.data(), kImageMagic, sizeof(kImageMagic)) != 0) {
    return Status::Corruption("checkpoint image has bad magic");
  }
  size_t pos = sizeof(kImageMagic);
  CheckpointImage image;
  Result<uint64_t> version = GetVarint64(bytes, &pos);
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::Corruption("checkpoint image has unknown version " +
                              std::to_string(*version));
  }
  Result<uint64_t> flags = GetVarint64(bytes, &pos);
  if (!flags.ok()) return flags.status();
  image.materialized = (*flags & kFlagMaterialized) != 0;
  Result<uint64_t> epoch = GetVarint64(bytes, &pos);
  if (!epoch.ok()) return epoch.status();
  image.wal_epoch = *epoch;
  uint64_t* geometry[] = {&image.num_disks, &image.blocks_per_disk,
                          &image.block_size_bytes, &image.num_buckets,
                          &image.bucket_capacity};
  for (uint64_t* field : geometry) {
    Result<uint64_t> v = GetVarint64(bytes, &pos);
    if (!v.ok()) return v.status();
    *field = *v;
  }
  DUPLEX_RETURN_IF_ERROR(DecodeWordSection(bytes, &pos, image.materialized,
                                           &image.long_words));
  DUPLEX_RETURN_IF_ERROR(DecodeWordSection(bytes, &pos, image.materialized,
                                           &image.bucket_words));
  DUPLEX_RETURN_IF_ERROR(DecodeVocabulary(bytes, &pos, &image.vocabulary));
  DUPLEX_RETURN_IF_ERROR(
      DecodeDocState(bytes, &pos, &image.next_doc_id, &image.deleted));
  DUPLEX_RETURN_IF_ERROR(DecodeCompactionTotals(bytes, &pos, &image.totals));
  if (pos != bytes.size() - 8) {
    return Status::Corruption("checkpoint image has trailing bytes");
  }
  return image;
}

Status ValidateGeometry(const CheckpointImage& image,
                        const IndexOptions& options) {
  const auto mismatch = [](const std::string& what, uint64_t image_v,
                           uint64_t index_v) {
    return Status::FailedPrecondition(
        "checkpoint geometry mismatch: " + what + " is " +
        std::to_string(image_v) + " in the image but " +
        std::to_string(index_v) + " in the index options");
  };
  if (image.materialized != options.materialize) {
    return Status::FailedPrecondition(
        "checkpoint materialization mode does not match index options");
  }
  if (image.num_disks != options.disks.num_disks) {
    return mismatch("num_disks", image.num_disks, options.disks.num_disks);
  }
  if (image.blocks_per_disk != options.disks.blocks_per_disk) {
    return mismatch("blocks_per_disk", image.blocks_per_disk,
                    options.disks.blocks_per_disk);
  }
  if (image.block_size_bytes != options.disks.block_size_bytes) {
    return mismatch("block_size_bytes", image.block_size_bytes,
                    options.disks.block_size_bytes);
  }
  if (image.num_buckets != options.buckets.num_buckets) {
    return mismatch("num_buckets", image.num_buckets,
                    options.buckets.num_buckets);
  }
  if (image.bucket_capacity != options.buckets.bucket_capacity) {
    return mismatch("bucket_capacity", image.bucket_capacity,
                    options.buckets.bucket_capacity);
  }
  return Status::OK();
}

// Applies a fully validated image to a freshly constructed index. Long
// lists first (policy path re-derives chunk placement), then bucket
// lists, then vocabulary/doc state/compaction totals, then a cache flush
// so the restored state is on the devices, not hostage in dirty frames.
Status RestoreImage(const CheckpointImage& image, InvertedIndex* index) {
  DUPLEX_RETURN_IF_ERROR(ValidateGeometry(image, index->options()));
  for (const WordEntry& entry : image.long_words) {
    const PostingList list =
        image.materialized
            ? PostingList::Materialized(entry.docs)
            : PostingList::Counted(entry.count);
    DUPLEX_RETURN_IF_ERROR(index->RestoreWord(entry.word, list, true));
  }
  for (const WordEntry& entry : image.bucket_words) {
    const PostingList list =
        image.materialized
            ? PostingList::Materialized(entry.docs)
            : PostingList::Counted(entry.count);
    DUPLEX_RETURN_IF_ERROR(index->RestoreWord(entry.word, list, false));
  }
  for (size_t i = 0; i < image.vocabulary.size(); ++i) {
    if (index->vocabulary().GetOrAdd(image.vocabulary[i]) != i) {
      return Status::Corruption(
          "checkpoint vocabulary must restore densely in order");
    }
  }
  index->RestoreDocState(image.next_doc_id, image.deleted);
  index->RestoreCompactionTotals(image.totals);
  return index->FlushCaches();
}

// Fully decoded sharded-checkpoint manifest.
struct ManifestShard {
  std::string name;  // bare file name, same directory as the manifest
  uint64_t bytes = 0;
  uint64_t checksum = 0;
};

struct Manifest {
  bool materialized = false;
  uint64_t wal_epoch = 0;
  std::vector<ManifestShard> shards;
  std::vector<std::string> vocabulary;
  DocId next_doc_id = 0;
  std::vector<DocId> deleted;
};

std::string EncodeManifest(const Manifest& manifest,
                           const text::Vocabulary& vocabulary) {
  std::string stream;
  stream.append(kManifestMagic, sizeof(kManifestMagic));
  PutVarint64(kFormatVersion, &stream);
  PutVarint64(manifest.materialized ? kFlagMaterialized : 0, &stream);
  PutVarint64(manifest.wal_epoch, &stream);
  PutVarint64(manifest.shards.size(), &stream);
  for (const ManifestShard& shard : manifest.shards) {
    PutVarint64(shard.name.size(), &stream);
    stream.append(shard.name);
    PutVarint64(shard.bytes, &stream);
    PutFixed64(shard.checksum, &stream);
  }
  EncodeVocabulary(vocabulary, &stream);
  EncodeDocState(manifest.next_doc_id, manifest.deleted, &stream);
  PutFixed64(Fnv1a64(stream.data(), stream.size()), &stream);
  return stream;
}

Result<Manifest> ParseManifest(const std::string& bytes) {
  if (bytes.size() < sizeof(kManifestMagic) + 8) {
    return Status::Corruption("checkpoint manifest too short");
  }
  const uint64_t stored = GetFixed64(bytes, bytes.size() - 8);
  if (stored != Fnv1a64(bytes.data(), bytes.size() - 8)) {
    return Status::Corruption("checkpoint manifest checksum mismatch");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
      0) {
    return Status::Corruption("checkpoint manifest has bad magic");
  }
  size_t pos = sizeof(kManifestMagic);
  Manifest manifest;
  Result<uint64_t> version = GetVarint64(bytes, &pos);
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::Corruption("checkpoint manifest has unknown version " +
                              std::to_string(*version));
  }
  Result<uint64_t> flags = GetVarint64(bytes, &pos);
  if (!flags.ok()) return flags.status();
  manifest.materialized = (*flags & kFlagMaterialized) != 0;
  Result<uint64_t> epoch = GetVarint64(bytes, &pos);
  if (!epoch.ok()) return epoch.status();
  manifest.wal_epoch = *epoch;
  Result<uint64_t> num_shards = GetVarint64(bytes, &pos);
  if (!num_shards.ok()) return num_shards.status();
  for (uint64_t s = 0; s < *num_shards; ++s) {
    ManifestShard shard;
    Result<uint64_t> name_len = GetVarint64(bytes, &pos);
    if (!name_len.ok()) return name_len.status();
    if (pos + *name_len > bytes.size()) {
      return Status::Corruption("checkpoint manifest truncated");
    }
    shard.name = bytes.substr(pos, *name_len);
    pos += *name_len;
    Result<uint64_t> shard_bytes = GetVarint64(bytes, &pos);
    if (!shard_bytes.ok()) return shard_bytes.status();
    shard.bytes = *shard_bytes;
    if (pos + 8 > bytes.size()) {
      return Status::Corruption("checkpoint manifest truncated");
    }
    shard.checksum = GetFixed64(bytes, pos);
    pos += 8;
    manifest.shards.push_back(std::move(shard));
  }
  DUPLEX_RETURN_IF_ERROR(
      DecodeVocabulary(bytes, &pos, &manifest.vocabulary));
  DUPLEX_RETURN_IF_ERROR(
      DecodeDocState(bytes, &pos, &manifest.next_doc_id,
                     &manifest.deleted));
  if (pos != bytes.size() - 8) {
    return Status::Corruption("checkpoint manifest has trailing bytes");
  }
  return manifest;
}

// Reads <dir>/<name> and proves it matches the superblock/manifest
// record before anything parses it: exact length, then whole-file FNV.
Status ReadVerifiedPayload(const std::string& dir, const std::string& name,
                           uint64_t expect_bytes, uint64_t expect_checksum,
                           std::string* out) {
  DUPLEX_RETURN_IF_ERROR(ReadWholeFile(dir + "/" + name, out));
  if (out->size() != expect_bytes) {
    return Status::Corruption(
        name + ": payload is " + std::to_string(out->size()) +
        " bytes, record says " + std::to_string(expect_bytes));
  }
  if (Fnv1a64(out->data(), out->size()) != expect_checksum) {
    return Status::Corruption(name + ": payload checksum mismatch");
  }
  return Status::OK();
}

uint64_t NextSeq(const storage::Superblock& sb) {
  const std::vector<storage::SuperblockRecord> records = sb.ValidRecords();
  return records.empty() ? 1 : records.front().install_seq + 1;
}

}  // namespace

Checkpointer::Checkpointer(CheckpointOptions options)
    : options_(std::move(options)) {
  const size_t slash = options_.prefix.find_last_of('/');
  if (slash == std::string::npos) {
    dir_ = ".";
    base_ = options_.prefix;
  } else {
    dir_ = options_.prefix.substr(0, slash);
    base_ = options_.prefix.substr(slash + 1);
  }
}

Result<std::unique_ptr<storage::Superblock>> Checkpointer::OpenSuperblock() {
  Result<std::unique_ptr<storage::Superblock>> sb =
      storage::Superblock::Open(superblock_path());
  if (sb.ok()) (*sb)->set_fault_schedule(options_.fault);
  return sb;
}

Result<CheckpointInfo> Checkpointer::FinishInstall(storage::Superblock* sb,
                                                   const std::string& name,
                                                   const std::string& payload,
                                                   uint64_t epoch,
                                                   BatchLog* log) {
  DUPLEX_RETURN_IF_ERROR(
      WriteFileWithFaults(dir_ + "/" + name, payload, options_.fault.get()));
  storage::SuperblockRecord record;
  record.wal_epoch = epoch;
  record.payload_bytes = payload.size();
  record.payload_checksum = Fnv1a64(payload.data(), payload.size());
  record.payload_path = name;
  Result<storage::SuperblockRecord> installed = sb->Install(record);
  if (!installed.ok()) return installed.status();
  if (log != nullptr && options_.truncate_wal) {
    log->set_fault_schedule(options_.fault);
    DUPLEX_RETURN_IF_ERROR(log->TruncateTo(epoch));
  }
  RemoveStaleCheckpoints(*sb);
  CheckpointInfo info;
  info.install_seq = installed->install_seq;
  info.wal_epoch = epoch;
  info.payload_bytes = payload.size();
  info.payload_path = dir_ + "/" + name;
  return info;
}

Result<CheckpointInfo> Checkpointer::Checkpoint(const InvertedIndex& index,
                                                BatchLog* log) {
  uint64_t epoch = 0;
  if (log != nullptr) {
    if (log->batches_unapplied() != 0) {
      return Status::FailedPrecondition(
          "cannot checkpoint with unapplied WAL batches: a checkpoint "
          "covers only committed work");
    }
    epoch = log->next_id();
  }
  Result<std::unique_ptr<storage::Superblock>> sb = OpenSuperblock();
  if (!sb.ok()) return sb.status();
  Result<std::string> image = EncodeImage(index, epoch);
  if (!image.ok()) return image.status();
  const std::string name =
      base_ + ".ckpt-" + std::to_string(NextSeq(**sb));
  return FinishInstall(sb->get(), name, *image, epoch, log);
}

Result<CheckpointInfo> Checkpointer::Checkpoint(const ShardedIndex& index,
                                                BatchLog* log) {
  CheckpointInfo out;
  const Status s = index.WithCheckpointView(
      [&](const ShardedIndex::CheckpointView& view) -> Status {
        uint64_t epoch = 0;
        if (log != nullptr) {
          if (log->batches_unapplied() != 0) {
            return Status::FailedPrecondition(
                "cannot checkpoint with unapplied WAL batches: a "
                "checkpoint covers only committed work");
          }
          epoch = log->next_id();
        }
        Result<std::unique_ptr<storage::Superblock>> sb = OpenSuperblock();
        if (!sb.ok()) return sb.status();
        const uint64_t seq = NextSeq(**sb);
        const std::string manifest_name =
            base_ + ".ckpt-" + std::to_string(seq);
        Manifest manifest;
        manifest.materialized =
            view.shards.front()->options().materialize;
        manifest.wal_epoch = epoch;
        manifest.next_doc_id = view.next_doc_id;
        manifest.deleted = view.deleted;
        // Shard images land on disk before the manifest that references
        // them; the manifest lands before the slot flip that makes it
        // current. Same discipline at every level: referent first.
        for (size_t k = 0; k < view.shards.size(); ++k) {
          Result<std::string> image = EncodeImage(*view.shards[k], epoch);
          if (!image.ok()) return image.status();
          ManifestShard shard;
          shard.name = manifest_name + "-shard" + std::to_string(k);
          shard.bytes = image->size();
          shard.checksum = Fnv1a64(image->data(), image->size());
          DUPLEX_RETURN_IF_ERROR(WriteFileWithFaults(
              dir_ + "/" + shard.name, *image, options_.fault.get()));
          manifest.shards.push_back(std::move(shard));
        }
        Result<CheckpointInfo> installed = FinishInstall(
            sb->get(), manifest_name,
            EncodeManifest(manifest, *view.vocabulary), epoch, log);
        if (!installed.ok()) return installed.status();
        out = *installed;
        return Status::OK();
      });
  if (!s.ok()) return s;
  return out;
}

const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kEmpty:
      return "empty";
    case RecoveryMode::kCheckpointTail:
      return "checkpoint+tail";
    case RecoveryMode::kFullRebuild:
      return "full-rebuild";
  }
  return "unknown";
}

Result<RecoveryInfo> Checkpointer::RecoverWithoutCheckpoint(
    BatchLog* log, const storage::Superblock& sb, std::string detail,
    const std::function<Status(uint64_t* replayed)>& replay) {
  RecoveryInfo info;
  info.detail = std::move(detail);
  // Callers get here only after rejecting every intact install record.
  const bool installs_rejected = !sb.ValidRecords().empty();
  if (log == nullptr ||
      (log->batches_logged() == 0 && log->base_epoch() == 0)) {
    if (installs_rejected) {
      // A checkpoint was installed, so the index held documents; with no
      // WAL history to rebuild them from, an empty index would silently
      // drop every one of them.
      return Status::Corruption(
          "every installed checkpoint was rejected and no WAL history "
          "exists to rebuild from (" + info.detail + ")");
    }
    info.mode = RecoveryMode::kEmpty;
    if (info.detail.empty()) info.detail = "nothing to recover";
    return info;
  }
  if (log->base_epoch() != 0) {
    // The WAL tail was truncated after some checkpoint installed, yet no
    // checkpoint is usable now: batches [0, base_epoch) exist nowhere.
    // Rebuilding would silently drop them — refuse with a typed status.
    return Status::Corruption(
        "no usable checkpoint and the WAL is tail-truncated at epoch " +
        std::to_string(log->base_epoch()) +
        "; full history is unrecoverable (" + info.detail + ")");
  }
  info.mode = RecoveryMode::kFullRebuild;
  DUPLEX_RETURN_IF_ERROR(replay(&info.batches_replayed));
  if (installs_rejected || sb.slot_damage() > 0) {
    info.detail += (info.detail.empty() ? "" : "; ");
    info.detail += "fell back to full WAL rebuild";
  } else if (info.detail.empty()) {
    info.detail = "no checkpoint installed; full WAL rebuild";
  }
  return info;
}

Result<RecoveryInfo> Checkpointer::Recover(InvertedIndex* index,
                                           BatchLog* log) {
  DUPLEX_CHECK(index != nullptr);
  Result<std::unique_ptr<storage::Superblock>> sb = OpenSuperblock();
  if (!sb.ok()) return sb.status();
  const std::vector<storage::SuperblockRecord> records =
      (*sb)->ValidRecords();
  std::string detail;
  if ((*sb)->slot_damage() > 0) {
    detail = std::to_string((*sb)->slot_damage()) +
             " damaged superblock slot(s)";
  }
  for (const storage::SuperblockRecord& record : records) {
    const auto reject = [&](const Status& why) {
      if (!detail.empty()) detail += "; ";
      detail += "install " + std::to_string(record.install_seq) +
                " rejected: " + why.ToString();
    };
    std::string bytes;
    Status read = ReadVerifiedPayload(dir_, record.payload_path,
                                      record.payload_bytes,
                                      record.payload_checksum, &bytes);
    if (!read.ok()) {
      reject(read);
      continue;
    }
    Result<CheckpointImage> image = ParseImage(bytes);
    if (!image.ok()) {
      reject(image.status());
      continue;
    }
    // The candidate is intact. Geometry mismatch is a configuration
    // error, not rot — surface it instead of quietly rebuilding.
    DUPLEX_RETURN_IF_ERROR(ValidateGeometry(*image, index->options()));
    DUPLEX_RETURN_IF_ERROR(RestoreImage(*image, index));
    RecoveryInfo info;
    info.mode = RecoveryMode::kCheckpointTail;
    info.checkpoint_epoch = image->wal_epoch;
    if (log != nullptr) {
      DUPLEX_RETURN_IF_ERROR(log->ReplayFrom(image->wal_epoch, index));
      info.batches_replayed = log->next_id() - image->wal_epoch;
    }
    info.detail = "restored install " + std::to_string(record.install_seq) +
                  " (epoch " + std::to_string(image->wal_epoch) + ")";
    if (!detail.empty()) info.detail += "; " + detail;
    return info;
  }
  return RecoverWithoutCheckpoint(
      log, **sb, std::move(detail), [&](uint64_t* replayed) {
        DUPLEX_RETURN_IF_ERROR(log->ReplayInto(index));
        *replayed = log->batches_logged();
        return Status::OK();
      });
}

Result<RecoveryInfo> Checkpointer::Recover(ShardedIndex* index,
                                           BatchLog* log) {
  DUPLEX_CHECK(index != nullptr);
  Result<std::unique_ptr<storage::Superblock>> sb = OpenSuperblock();
  if (!sb.ok()) return sb.status();
  const std::vector<storage::SuperblockRecord> records =
      (*sb)->ValidRecords();
  std::string detail;
  if ((*sb)->slot_damage() > 0) {
    detail = std::to_string((*sb)->slot_damage()) +
             " damaged superblock slot(s)";
  }
  // Replays one logged batch through the sharded index with the same
  // per-batch discipline as ApplyLogged: apply, then flush dirty frames.
  // Word strings recorded with the batch are reinstated first — the
  // checkpoint image covers only the vocabulary as of its epoch, so words
  // first seen in the replayed tail exist nowhere else.
  const auto apply_batch = [index](const BatchLog::LoggedBatch& batch) {
    DUPLEX_RETURN_IF_ERROR(
        index->RestoreBatchWords(batch.docs, batch.words));
    Status applied =
        batch.materialized
            ? index->ApplyInvertedBatch(batch.docs)
            : index->ApplyBatchUpdate(batch.counts);
    if (!applied.ok()) return applied;
    return index->FlushCaches();
  };
  for (const storage::SuperblockRecord& record : records) {
    const auto reject = [&](const Status& why) {
      if (!detail.empty()) detail += "; ";
      detail += "install " + std::to_string(record.install_seq) +
                " rejected: " + why.ToString();
    };
    std::string bytes;
    Status read = ReadVerifiedPayload(dir_, record.payload_path,
                                      record.payload_bytes,
                                      record.payload_checksum, &bytes);
    if (!read.ok()) {
      reject(read);
      continue;
    }
    Result<Manifest> manifest = ParseManifest(bytes);
    if (!manifest.ok()) {
      reject(manifest.status());
      continue;
    }
    // Stage EVERY shard image (verified + parsed) before restoring any,
    // so a damaged shard file rejects the whole candidate with the index
    // still untouched.
    std::vector<CheckpointImage> images;
    Status staged = Status::OK();
    for (const ManifestShard& shard : manifest->shards) {
      std::string shard_bytes;
      staged = ReadVerifiedPayload(dir_, shard.name, shard.bytes,
                                   shard.checksum, &shard_bytes);
      if (!staged.ok()) break;
      Result<CheckpointImage> image = ParseImage(shard_bytes);
      if (!image.ok()) {
        staged = image.status();
        break;
      }
      images.push_back(std::move(*image));
    }
    if (!staged.ok()) {
      reject(staged);
      continue;
    }
    if (images.size() != index->num_shards()) {
      return Status::FailedPrecondition(
          "checkpoint has " + std::to_string(images.size()) +
          " shard(s), index is configured with " +
          std::to_string(index->num_shards()));
    }
    for (uint32_t k = 0; k < index->num_shards(); ++k) {
      DUPLEX_RETURN_IF_ERROR(index->shard(k).WithWrite(
          [&](InvertedIndex& shard_index) {
            return RestoreImage(images[k], &shard_index);
          }));
    }
    DUPLEX_RETURN_IF_ERROR(index->RestoreDocState(manifest->next_doc_id,
                                                  manifest->deleted,
                                                  manifest->vocabulary));
    RecoveryInfo info;
    info.mode = RecoveryMode::kCheckpointTail;
    info.checkpoint_epoch = manifest->wal_epoch;
    if (log != nullptr) {
      DUPLEX_RETURN_IF_ERROR(
          log->ReplayFrom(manifest->wal_epoch, apply_batch));
      info.batches_replayed = log->next_id() - manifest->wal_epoch;
    }
    info.detail = "restored install " + std::to_string(record.install_seq) +
                  " (epoch " + std::to_string(manifest->wal_epoch) + ", " +
                  std::to_string(images.size()) + " shards)";
    if (!detail.empty()) info.detail += "; " + detail;
    return info;
  }
  return RecoverWithoutCheckpoint(
      log, **sb, std::move(detail), [&](uint64_t* replayed) {
        uint64_t count = 0;
        DUPLEX_RETURN_IF_ERROR(
            log->ReplayFrom(0, [&](const BatchLog::LoggedBatch& batch) {
              ++count;
              return apply_batch(batch);
            }));
        *replayed = count;
        return Status::OK();
      });
}

void Checkpointer::RemoveStaleCheckpoints(const storage::Superblock& sb) {
  const std::vector<storage::SuperblockRecord> records = sb.ValidRecords();
  DIR* dir = ::opendir(dir_.c_str());
  if (dir == nullptr) return;
  const std::string prefix = base_ + ".ckpt-";
  std::vector<std::string> stale;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    bool referenced = false;
    for (const storage::SuperblockRecord& record : records) {
      // A slot references its payload file and, for a sharded manifest,
      // every "<payload>-shard<k>" satellite. BOTH slots' files must
      // survive: the older install is the fallback if the newer payload
      // turns out damaged.
      if (name == record.payload_path ||
          name.compare(0, record.payload_path.size() + 1,
                       record.payload_path + "-") == 0) {
        referenced = true;
        break;
      }
    }
    if (!referenced) stale.push_back(name);
  }
  ::closedir(dir);
  for (const std::string& name : stale) {
    ::unlink((dir_ + "/" + name).c_str());
  }
}

}  // namespace duplex::core
