#include "core/batch_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/posting_codec.h"
#include "storage/superblock.h"
#include "util/hash.h"
#include "util/log.h"
#include "util/logging.h"

namespace duplex::core {
namespace {

constexpr char kBatchRecord = 'B';
constexpr char kAppliedRecord = 'A';
constexpr char kCompactionRecord = 'C';
// Base-epoch record: first record of a tail-truncated log, carrying the
// id of the oldest batch the log still holds. Everything below that id
// lives only in the checkpoint the truncation followed.
constexpr char kEpochRecord = 'E';
constexpr uint64_t kFlagMaterialized = 1;
// The record carries a trailing word-string section (one length-prefixed
// string per entry). Added after materialized records shipped without
// strings; decode treats its absence as "no strings recorded", so older
// logs stay readable.
constexpr uint64_t kFlagWords = 2;

// Frames one record: type byte, varint payload length, payload, FNV-64
// over (type, payload). AppendRecord and TruncateTo's rewrite both frame
// through here.
void AppendRecordBytes(char type, const std::string& payload,
                       std::string* out) {
  out->push_back(type);
  PutVarint64(payload.size(), out);
  *out += payload;
  const uint64_t checksum =
      Fnv1a64(payload.data(), payload.size(), Fnv1a64(&type, 1));
  out->append(reinterpret_cast<const char*>(&checksum), 8);
}

std::string EncodeBatchPayload(uint64_t id, bool materialized,
                               const text::BatchUpdate& counts,
                               const text::InvertedBatch& docs,
                               const std::vector<std::string>& words) {
  DUPLEX_CHECK(words.empty() || words.size() == docs.entries.size());
  const bool with_words = materialized && !words.empty();
  std::string payload;
  PutVarint64(id, &payload);
  PutVarint64((materialized ? kFlagMaterialized : 0) |
                  (with_words ? kFlagWords : 0),
              &payload);
  if (materialized) {
    PutVarint64(docs.entries.size(), &payload);
    for (const auto& entry : docs.entries) {
      PutVarint64(entry.word, &payload);
      PutVarint64(entry.docs.size(), &payload);
      EncodePostings(entry.docs, 0, &payload);
    }
    if (with_words) {
      for (const std::string& word : words) {
        PutVarint64(word.size(), &payload);
        payload += word;
      }
    }
  } else {
    PutVarint64(counts.pairs.size(), &payload);
    for (const auto& pair : counts.pairs) {
      PutVarint64(pair.word, &payload);
      PutVarint64(pair.count, &payload);
    }
  }
  return payload;
}

Status DecodeBatchPayload(const std::string& payload,
                          BatchLog::LoggedBatch* batch) {
  size_t pos = 0;
  Result<uint64_t> id = GetVarint64(payload, &pos);
  if (!id.ok()) return id.status();
  batch->id = *id;
  Result<uint64_t> flags = GetVarint64(payload, &pos);
  if (!flags.ok()) return flags.status();
  batch->materialized = (*flags & kFlagMaterialized) != 0;
  Result<uint64_t> entries = GetVarint64(payload, &pos);
  if (!entries.ok()) return entries.status();
  for (uint64_t i = 0; i < *entries; ++i) {
    Result<uint64_t> word = GetVarint64(payload, &pos);
    if (!word.ok()) return word.status();
    Result<uint64_t> count = GetVarint64(payload, &pos);
    if (!count.ok()) return count.status();
    batch->counts.pairs.push_back(
        {static_cast<WordId>(*word), static_cast<uint32_t>(*count)});
    if (batch->materialized) {
      std::vector<DocId> doc_ids;
      doc_ids.reserve(*count);
      DUPLEX_RETURN_IF_ERROR(
          DecodePostings(payload, &pos, *count, 0, &doc_ids));
      batch->docs.entries.push_back(
          {static_cast<WordId>(*word), std::move(doc_ids)});
    }
  }
  if ((*flags & kFlagWords) != 0) {
    if (!batch->materialized) {
      return Status::Corruption(
          "batch-log word strings on a count-only record");
    }
    batch->words.reserve(*entries);
    for (uint64_t i = 0; i < *entries; ++i) {
      Result<uint64_t> len = GetVarint64(payload, &pos);
      if (!len.ok()) return len.status();
      if (pos + *len > payload.size()) {
        return Status::Corruption("batch-log word string truncated");
      }
      batch->words.emplace_back(payload, pos, *len);
      pos += *len;
    }
  }
  if (pos != payload.size()) {
    return Status::Corruption("batch-log payload has trailing bytes");
  }
  return Status::OK();
}

// pread until `len` bytes arrive; a short count means the file ended.
Result<size_t> ReadAt(int fd, uint64_t offset, char* out, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, out + done, len - done,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("batch log read: ") +
                             std::strerror(errno));
    }
    if (n == 0) break;
    done += static_cast<size_t>(n);
  }
  return done;
}

// One record as framed on disk (see AppendRecordBytes).
struct FramedRecord {
  char type = 0;
  std::string payload;
  uint64_t length = 0;  // framing + payload + checksum
  bool checksum_ok = false;
};

// Reads the record at `offset` of a file whose valid bytes end at
// `limit`. OutOfRange when the record runs past `limit` (a torn tail
// during Scan); `checksum_ok` reports the FNV-64 check.
Status ReadFramed(int fd, uint64_t offset, uint64_t limit,
                  FramedRecord* record) {
  constexpr size_t kMaxHeader = 11;  // type byte + longest varint
  char header[kMaxHeader] = {};
  const size_t want =
      static_cast<size_t>(std::min<uint64_t>(kMaxHeader, limit - offset));
  Result<size_t> got = ReadAt(fd, offset, header, want);
  if (!got.ok()) return got.status();
  if (*got == 0) return Status::OutOfRange("batch log record truncated");
  record->type = header[0];
  size_t pos = 0;
  Result<uint64_t> len = GetVarint64(
      reinterpret_cast<const uint8_t*>(header) + 1, *got - 1, &pos);
  if (!len.ok()) return Status::OutOfRange("batch log record truncated");
  const uint64_t body = offset + 1 + pos;
  if (limit - body < 8 || *len > limit - body - 8) {
    return Status::OutOfRange("batch log record truncated");
  }
  // Payload and checksum in one read; the checksum is then cut off.
  std::string& payload = record->payload;
  payload.resize(*len + 8);
  got = ReadAt(fd, body, payload.data(), payload.size());
  if (!got.ok()) return got.status();
  if (*got != payload.size()) {
    return Status::OutOfRange("batch log record truncated");
  }
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, payload.data() + *len, 8);
  payload.resize(*len);
  record->length = 1 + pos + *len + 8;
  record->checksum_ok =
      stored_checksum ==
      Fnv1a64(payload.data(), payload.size(), Fnv1a64(&record->type, 1));
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<BatchLog>> BatchLog::Open(const std::string& path) {
  std::unique_ptr<BatchLog> log(new BatchLog(path));
  DUPLEX_RETURN_IF_ERROR(log->OpenFiles());
  DUPLEX_RETURN_IF_ERROR(log->Scan());
  return log;
}

BatchLog::~BatchLog() {
  if (file_ != nullptr) std::fclose(file_);
  if (read_fd_ >= 0) ::close(read_fd_);
}

Status BatchLog::OpenFiles() {
  if (file_ != nullptr) std::fclose(file_);
  if (read_fd_ >= 0) ::close(read_fd_);
  read_fd_ = -1;
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open batch log " + path_);
  }
  // Reads go through a descriptor held for the log's lifetime, so they
  // see this log's file even if its path is later unlinked or reused.
  read_fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (read_fd_ < 0) {
    return Status::IoError("open(" + path_ + "): " + std::strerror(errno));
  }
  return Status::OK();
}

Status BatchLog::Scan() {
  struct stat st {};
  if (::fstat(read_fd_, &st) != 0) {
    return Status::IoError("fstat(" + path_ + "): " + std::strerror(errno));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  // Every record is decoded and checked here, once; only its place in the
  // file is kept. Replays read the batch back when they need it.
  Status status = Status::OK();
  FramedRecord record;
  uint64_t pos = 0;
  while (pos < file_size) {
    const uint64_t record_start = pos;
    const Status read = ReadFramed(read_fd_, pos, file_size, &record);
    if (read.code() == StatusCode::kOutOfRange) break;  // torn tail
    if (!read.ok()) {
      status = read;
      break;
    }
    pos += record.length;
    const std::string& payload = record.payload;
    // Damage in the FINAL record is a torn tail by another name — the
    // crash hit mid-append, the record was never durable, and recovery's
    // contract is to drop it (with a warning) and carry on. Damage with
    // intact records after it means the file rotted in place: fatal.
    const bool is_final_record = pos == file_size;
    const auto tail_or_fatal = [&](Status damage) {
      if (!is_final_record) return damage;
      if (GlobalLog() != nullptr) {
        LogWarn("core.wal.torn_tail")
            .Str("path", path_)
            .U64("offset", record_start)
            .Str("damage", damage.ToString());
      } else {
        std::cerr << "batch log " << path_ << ": dropping damaged final "
                  << "record at offset " << record_start << " ("
                  << damage.ToString() << ")\n";
      }
      return Status::OK();
    };
    Status decoded = Status::OK();
    if (!record.checksum_ok) {
      decoded = Status::Corruption("batch log checksum mismatch at offset " +
                                   std::to_string(record_start));
    } else if (record.type == kBatchRecord) {
      LoggedBatch batch;
      decoded = DecodeBatchPayload(payload, &batch);
      if (decoded.ok() && batch.id != base_epoch_ + records_.size()) {
        decoded = Status::Corruption("batch log ids out of sequence");
      }
      if (decoded.ok()) {
        records_.push_back({batch.id, record_start, record.length, false});
      }
    } else if (record.type == kAppliedRecord) {
      size_t id_pos = 0;
      Result<uint64_t> id = GetVarint64(payload, &id_pos);
      decoded = id.ok() ? Status::OK() : id.status();
      if (decoded.ok() &&
          (*id < base_epoch_ || *id - base_epoch_ >= records_.size())) {
        decoded = Status::Corruption("applied record for unknown batch");
      }
      if (decoded.ok() && !records_[*id - base_epoch_].applied) {
        records_[*id - base_epoch_].applied = true;
        ++applied_count_;
      }
    } else if (record.type == kEpochRecord) {
      size_t e_pos = 0;
      Result<uint64_t> base = GetVarint64(payload, &e_pos);
      decoded = base.ok() ? Status::OK() : base.status();
      if (decoded.ok() && e_pos != payload.size()) {
        decoded = Status::Corruption("epoch record has trailing bytes");
      }
      if (decoded.ok() && record_start != 0) {
        // TruncateTo writes the whole file in one rename; an epoch record
        // anywhere but the head means the file was stitched together.
        decoded = Status::Corruption("epoch record not at log head");
      }
      if (decoded.ok()) base_epoch_ = *base;
    } else if (record.type == kCompactionRecord) {
      // Earlier releases logged each compaction round. Replay never needed
      // them: past its checksum, the record is skipped.
    } else {
      decoded = Status::Corruption("unknown batch-log record type");
    }
    if (!decoded.ok()) {
      status = tail_or_fatal(std::move(decoded));
      break;
    }
    end_offset_ = pos;
  }
  DUPLEX_RETURN_IF_ERROR(status);
  next_id_ = base_epoch_ + records_.size();
  if (end_offset_ < file_size) {
    // Drop the torn tail so the next append starts at a record boundary.
    if (::truncate(path_.c_str(), static_cast<off_t>(end_offset_)) != 0) {
      return Status::Internal("cannot truncate torn batch-log tail");
    }
  }
  return Status::OK();
}

Status BatchLog::AppendRecord(char type, const std::string& payload) {
  DUPLEX_CHECK(file_ != nullptr);
  ScopedLatency timer(m_append_ns_);
  std::string record;
  AppendRecordBytes(type, payload, &record);
  if (std::fwrite(record.data(), 1, record.size(), file_) !=
          record.size() ||
      std::fflush(file_) != 0) {
    // Some prefix of the record may have reached the file; resynchronise
    // the append offset with what is actually there.
    struct stat st {};
    if (::fstat(::fileno(file_), &st) == 0) {
      end_offset_ = static_cast<uint64_t>(st.st_size);
    }
    return Status::Internal("batch log write failed");
  }
  end_offset_ += record.size();
  if (fail_next_syncs_ > 0) {
    // Injected durability failure: the bytes reached the kernel (fflush
    // succeeded) but the platter sync "failed". The record may or may not
    // survive a crash — exactly the ambiguity real fsync failures leave.
    --fail_next_syncs_;
    return Status::IoError("injected fdatasync failure on batch log " +
                           path_);
  }
  if (fsync_enabled_) {
    // fflush only moved the bytes into the kernel; "durable before any
    // index I/O" needs them on the platter. fdatasync skips the inode
    // timestamp update — record boundaries are self-describing, so file
    // length metadata is not load-bearing.
    ScopedLatency sync_timer(m_fsync_ns_);
    if (::fdatasync(::fileno(file_)) != 0) {
      // Same ambiguity as the injected failure above: the bytes are in
      // the kernel, the platter promise failed. Typed IoError so callers
      // (and AppendBatchRecord) can distinguish this from a torn write.
      return Status::IoError("batch log fdatasync failed");
    }
    ++syncs_;
  }
  return Status::OK();
}

Result<uint64_t> BatchLog::AppendBatchRecord(const std::string& payload) {
  const uint64_t id = next_id_;
  const uint64_t offset = end_offset_;
  const Status appended = AppendRecord(kBatchRecord, payload);
  if (!appended.ok() && !appended.IsIoError()) return appended;
  // On IoError the record bytes reached the kernel but the durability
  // barrier failed: whether they survive a crash is unknowable here. Keep
  // the batch as an unapplied entry — exactly what a reopen of this file
  // would reconstruct — so later appends continue the dense id sequence
  // instead of reusing this id and turning the next record into
  // out-of-sequence damage that recovery would drop.
  records_.push_back({id, offset, end_offset_ - offset, false});
  ++next_id_;
  if (!appended.ok()) return appended;
  return id;
}

Result<uint64_t> BatchLog::AppendBatch(const text::BatchUpdate& batch) {
  return AppendBatchRecord(
      EncodeBatchPayload(next_id_, false, batch, {}, {}));
}

Result<uint64_t> BatchLog::AppendBatch(const text::InvertedBatch& batch) {
  return AppendBatch(batch, {});
}

Result<uint64_t> BatchLog::AppendBatch(
    const text::InvertedBatch& batch, const std::vector<std::string>& words) {
  return AppendBatchRecord(
      EncodeBatchPayload(next_id_, true, {}, batch, words));
}

Status BatchLog::MarkApplied(uint64_t batch_id) {
  if (batch_id < base_epoch_ ||
      batch_id - base_epoch_ >= records_.size()) {
    return Status::InvalidArgument("unknown batch id");
  }
  Record& record = records_[batch_id - base_epoch_];
  if (record.applied) return Status::OK();
  std::string payload;
  PutVarint64(batch_id, &payload);
  DUPLEX_RETURN_IF_ERROR(AppendRecord(kAppliedRecord, payload));
  record.applied = true;
  ++applied_count_;
  return Status::OK();
}

std::vector<uint64_t> BatchLog::UnappliedBatches() const {
  std::vector<uint64_t> ids;
  for (const Record& record : records_) {
    if (!record.applied) ids.push_back(record.id);
  }
  return ids;
}

Status BatchLog::ReadPayload(const Record& record,
                             std::string* payload) const {
  FramedRecord framed;
  Status read = ReadFramed(read_fd_, record.offset,
                           record.offset + record.length, &framed);
  if (read.ok() && (!framed.checksum_ok || framed.type != kBatchRecord ||
                    framed.length != record.length)) {
    read = Status::Corruption("checksum mismatch");
  }
  if (read.IsIoError()) return read;
  if (!read.ok()) {
    // Open verified this record, so a mismatch now means the file changed
    // underneath the log.
    return Status::Corruption("batch log record for batch " +
                              std::to_string(record.id) + " at offset " +
                              std::to_string(record.offset) +
                              " is damaged on disk: " + read.message());
  }
  *payload = std::move(framed.payload);
  return Status::OK();
}

Status BatchLog::ReadBatch(const Record& record, std::string* scratch,
                           LoggedBatch* batch) const {
  DUPLEX_RETURN_IF_ERROR(ReadPayload(record, scratch));
  *batch = LoggedBatch{};
  Status decoded = DecodeBatchPayload(*scratch, batch);
  if (decoded.ok() && batch->id != record.id) {
    decoded = Status::Corruption("carries batch id " +
                                 std::to_string(batch->id));
  }
  if (decoded.ok()) return decoded;
  return Status::Corruption("batch log record for batch " +
                            std::to_string(record.id) + " at offset " +
                            std::to_string(record.offset) +
                            " does not decode: " + decoded.message());
}

Status BatchLog::ForEachBatch(
    uint64_t from_id,
    const std::function<Status(const LoggedBatch&)>& fn) const {
  const uint64_t first = std::max(from_id, base_epoch_) - base_epoch_;
  std::string scratch;
  LoggedBatch batch;
  for (size_t i = first; i < records_.size(); ++i) {
    DUPLEX_RETURN_IF_ERROR(ReadBatch(records_[i], &scratch, &batch));
    DUPLEX_RETURN_IF_ERROR(fn(batch));
  }
  return Status::OK();
}

Status BatchLog::ReplayFrom(
    uint64_t epoch, const std::function<Status(const LoggedBatch&)>& apply) {
  if (epoch < base_epoch_) {
    return Status::FailedPrecondition(
        "replay from batch " + std::to_string(epoch) + " needs history " +
        path_ + " no longer holds: a checkpoint truncated it at batch " +
        std::to_string(base_epoch_) +
        ", so recover from that checkpoint (duplexd --checkpoint <prefix>)");
  }
  if (epoch > next_id_) {
    // The log would hand out ids the checkpoint already covers, and the
    // next restart's replay would pass over them as covered.
    return Status::Corruption(
        "replay from batch " + std::to_string(epoch) + " but " + path_ +
        " ends before it (next id " + std::to_string(next_id_) +
        "): the log lost records the checkpoint covers");
  }
  ScopedLatency timer(m_replay_ns_);
  Span span = TraceSpan("core.wal_replay");
  for (const Record& record : records_) {
    if (record.id >= epoch) break;
    if (!record.applied) {
      return Status::Corruption(
          "batch " + std::to_string(record.id) +
          " is unapplied but below replay epoch " + std::to_string(epoch) +
          "; the checkpoint claims coverage the log contradicts");
    }
  }
  DUPLEX_RETURN_IF_ERROR(ForEachBatch(epoch, apply));
  return MarkAppliedFrom(epoch);
}

Status BatchLog::MarkAppliedFrom(uint64_t epoch) {
  for (const Record& record : records_) {
    if (record.id >= epoch && !record.applied) {
      DUPLEX_RETURN_IF_ERROR(MarkApplied(record.id));
    }
  }
  return Status::OK();
}

Status BatchLog::TruncateTo(uint64_t new_base) {
  if (new_base <= base_epoch_) return Status::OK();  // already truncated
  if (new_base > next_id_) {
    return Status::InvalidArgument(
        "truncation epoch " + std::to_string(new_base) +
        " is beyond the log's next id " + std::to_string(next_id_));
  }
  const size_t keep_from = new_base - base_epoch_;
  for (size_t i = 0; i < keep_from; ++i) {
    if (!records_[i].applied) {
      return Status::FailedPrecondition(
          "batch " + std::to_string(records_[i].id) +
          " is not applied; a checkpoint cannot cover uncommitted work");
    }
  }
  // Build the replacement log image: epoch base record, then the
  // surviving tail's batch records, then commit records for the applied
  // ones; compaction records are not copied. Each batch record's payload
  // is copied verbatim (checksum re-verified on the way), so the framed
  // bytes are the ones appended originally.
  std::string image;
  {
    std::string payload;
    PutVarint64(new_base, &payload);
    AppendRecordBytes(kEpochRecord, payload, &image);
  }
  std::vector<uint64_t> tail_offsets;
  tail_offsets.reserve(records_.size() - keep_from);
  std::string payload;
  for (size_t i = keep_from; i < records_.size(); ++i) {
    DUPLEX_RETURN_IF_ERROR(ReadPayload(records_[i], &payload));
    tail_offsets.push_back(image.size());
    AppendRecordBytes(kBatchRecord, payload, &image);
  }
  for (size_t i = keep_from; i < records_.size(); ++i) {
    if (!records_[i].applied) continue;
    std::string payload;
    PutVarint64(records_[i].id, &payload);
    AppendRecordBytes(kAppliedRecord, payload, &image);
  }
  // Write the image to <path>.tmp (fault-aware, chunked), sync it, then
  // rename over the live log. The rename is the atomic flip: a crash
  // before it leaves the old log (checkpoint + old tail still recover);
  // after it, the new log is complete and synced.
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + tmp + "): " + std::strerror(errno));
  }
  Status s = Status::OK();
  constexpr size_t kChunk = 4096;
  for (size_t off = 0; s.ok() && off < image.size(); off += kChunk) {
    const size_t len = std::min(kChunk, image.size() - off);
    s = storage::FaultyPWrite(
        fd, tmp, off, reinterpret_cast<const uint8_t*>(image.data()) + off,
        len, fault_.get());
  }
  if (s.ok()) s = storage::FaultySync(fd, tmp, fault_.get());
  ::close(fd);
  if (s.ok() && fault_ != nullptr) {
    // The rename counts as one physical op too, so crash sweeps can stop
    // the protocol between "tail written" and "tail installed".
    const storage::FaultSchedule::Decision d =
        fault_->NextOp(/*is_write=*/true, 0);
    if (d.fault == storage::FaultSchedule::Fault::kCrash ||
        d.fault == storage::FaultSchedule::Fault::kTransientError) {
      s = Status::IoError("injected fault: rename frozen at op " +
                          std::to_string(d.op) + " (" + tmp + ")");
    }
  }
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    const Status rename_status = Status::IoError(
        "rename(" + tmp + ", " + path_ + "): " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return rename_status;
  }
  DUPLEX_RETURN_IF_ERROR(OpenFiles());
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<ptrdiff_t>(keep_from));
  applied_count_ = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    records_[i].offset = tail_offsets[i];
    applied_count_ += records_[i].applied ? 1 : 0;
  }
  base_epoch_ = new_base;
  end_offset_ = image.size();
  return Status::OK();
}

}  // namespace duplex::core
