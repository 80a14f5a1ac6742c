#include "mapred/job_journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/strings.h"
#include "io/byte_buffer.h"
#include "io/checksum.h"

namespace mrmb {

namespace {

enum RecordType : uint8_t {
  kRunStart = 1,
  kAttemptStart = 2,
  kAttemptFail = 3,
  kMapCommit = 4,
  kReduceCommit = 5,
  kJobCommit = 6,
};

// Upper bound on a single record's payload — anything larger in a length
// prefix is torn-tail garbage, not a record.
constexpr uint32_t kMaxPayloadBytes = 64u << 20;

std::string ErrnoMessage(const char* op, const std::string& path) {
  return StringPrintf("%s %s: %s", op, path.c_str(), std::strerror(errno));
}

Status WriteFully(int fd, const std::string& bytes, const std::string& path) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("write", path));
    }
    if (n == 0) {
      return Status::IOError("journal write made no progress: " + path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string FrameRecord(const std::string& payload) {
  std::string framed;
  BufferWriter writer(&framed);
  writer.AppendFixed32(static_cast<uint32_t>(payload.size()));
  writer.AppendFixed32(Crc32c(payload));
  writer.AppendRaw(payload);
  return framed;
}

std::string EncodeRunStart(const JournalRunStart& start) {
  std::string payload;
  BufferWriter writer(&payload);
  writer.AppendByte(kRunStart);
  writer.AppendFixed64(start.digest);
  writer.AppendVarint64(start.num_maps);
  writer.AppendVarint64(start.num_reduces);
  writer.AppendVarint64(start.run);
  return payload;
}

std::string EncodeAttempt(RecordType type, bool is_map, int task,
                          int attempt) {
  std::string payload;
  BufferWriter writer(&payload);
  writer.AppendByte(type);
  writer.AppendByte(is_map ? 1 : 0);
  writer.AppendVarint64(task);
  writer.AppendVarint64(attempt);
  return payload;
}

std::string EncodeMapCommit(const JournalMapCommit& commit) {
  std::string payload;
  BufferWriter writer(&payload);
  writer.AppendByte(kMapCommit);
  writer.AppendVarint64(commit.task);
  writer.AppendVarint64(commit.attempt);
  writer.AppendVarint64(commit.stats.input_records);
  writer.AppendVarint64(commit.stats.output_records);
  writer.AppendVarint64(commit.stats.spill_count);
  writer.AppendVarint64(commit.stats.combine_removed);
  writer.AppendVarint64(commit.stats.output_bytes);
  writer.AppendVarint64(commit.stats.wire_bytes);
  writer.AppendVarint64(commit.stats.spilled_bytes);
  writer.AppendVarint64(commit.stats.spill_extents);
  writer.AppendVarint64(commit.stats.spill_degradations);
  writer.AppendVarint64(commit.stats.combine.spill_input_records);
  writer.AppendVarint64(commit.stats.combine.spill_output_records);
  writer.AppendVarint64(commit.stats.combine.spill_input_bytes);
  writer.AppendVarint64(commit.stats.combine.spill_output_bytes);
  writer.AppendVarint64(commit.stats.combine.merge_input_records);
  writer.AppendVarint64(commit.stats.combine.merge_output_records);
  writer.AppendVarint64(commit.stats.combine.merge_input_bytes);
  writer.AppendVarint64(commit.stats.combine.merge_output_bytes);
  writer.AppendVarint64(commit.stats.combine.combine_micros);
  writer.AppendByte(commit.has_extent ? 1 : 0);
  if (commit.has_extent) {
    writer.AppendVarint64(static_cast<int64_t>(commit.extent.file_name.size()));
    writer.AppendRaw(commit.extent.file_name);
    writer.AppendVarint64(commit.extent.file_bytes);
    writer.AppendVarint64(commit.extent.logical_bytes);
    writer.AppendVarint64(
        static_cast<int64_t>(commit.extent.partitions.size()));
    for (const SpillSegment::PartitionRange& range :
         commit.extent.partitions) {
      writer.AppendVarint64(range.offset);
      writer.AppendVarint64(range.length);
      writer.AppendVarint64(range.records);
      writer.AppendVarint64(range.raw_length);
      writer.AppendFixed32(range.crc);
    }
  }
  return payload;
}

std::string EncodeReduceCommit(const JournalReduceCommit& commit) {
  std::string payload;
  BufferWriter writer(&payload);
  writer.AppendByte(kReduceCommit);
  writer.AppendVarint64(commit.task);
  writer.AppendVarint64(commit.attempt);
  writer.AppendVarint64(commit.groups);
  writer.AppendVarint64(commit.output_records);
  writer.AppendVarint64(commit.output_bytes);
  writer.AppendVarint64(commit.input_records);
  writer.AppendVarint64(commit.input_bytes);
  writer.AppendVarint64(commit.part_bytes);
  writer.AppendFixed32(commit.part_crc);
  return payload;
}

Status ReadVarintInt(BufferReader* reader, int* out) {
  int64_t v = 0;
  MRMB_RETURN_IF_ERROR(reader->ReadVarint64(&v));
  *out = static_cast<int>(v);
  return Status::OK();
}

Status DecodeRecord(std::string_view payload, JournalReplay* replay) {
  BufferReader reader(payload);
  uint8_t type = 0;
  MRMB_RETURN_IF_ERROR(reader.ReadByte(&type));
  switch (type) {
    case kRunStart: {
      uint64_t digest = 0;
      int num_maps = 0, num_reduces = 0, run = 0;
      MRMB_RETURN_IF_ERROR(reader.ReadFixed64(&digest));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &num_maps));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &num_reduces));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &run));
      if (replay->runs > 0 && (digest != replay->digest ||
                               num_maps != replay->num_maps ||
                               num_reduces != replay->num_reduces)) {
        return Status::DataLoss(
            "journal run-start records disagree about the job");
      }
      replay->digest = digest;
      replay->num_maps = num_maps;
      replay->num_reduces = num_reduces;
      ++replay->runs;
      break;
    }
    case kAttemptStart:
    case kAttemptFail: {
      uint8_t is_map = 0;
      int task = 0, attempt = 0;
      MRMB_RETURN_IF_ERROR(reader.ReadByte(&is_map));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &task));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &attempt));
      if (type == kAttemptStart) {
        std::map<int, int>& attempts =
            is_map ? replay->map_attempts : replay->reduce_attempts;
        int& started = attempts[task];
        started = std::max(started, attempt + 1);
      }
      break;
    }
    case kMapCommit: {
      JournalMapCommit commit;
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &commit.task));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &commit.attempt));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.input_records));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.output_records));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.spill_count));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.combine_removed));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.output_bytes));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.wire_bytes));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.spilled_bytes));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.stats.spill_extents));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.spill_degradations));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.spill_input_records));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.spill_output_records));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.spill_input_bytes));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.spill_output_bytes));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.merge_input_records));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.merge_output_records));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.merge_input_bytes));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.merge_output_bytes));
      MRMB_RETURN_IF_ERROR(
          reader.ReadVarint64(&commit.stats.combine.combine_micros));
      uint8_t has_extent = 0;
      MRMB_RETURN_IF_ERROR(reader.ReadByte(&has_extent));
      commit.has_extent = has_extent != 0;
      if (commit.has_extent) {
        int64_t name_len = 0;
        MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&name_len));
        if (name_len < 0 ||
            static_cast<size_t>(name_len) > reader.remaining()) {
          return Status::DataLoss("map-commit extent name overruns record");
        }
        std::string_view name;
        MRMB_RETURN_IF_ERROR(
            reader.ReadRaw(static_cast<size_t>(name_len), &name));
        commit.extent.file_name.assign(name);
        MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.extent.file_bytes));
        MRMB_RETURN_IF_ERROR(
            reader.ReadVarint64(&commit.extent.logical_bytes));
        int64_t num_partitions = 0;
        MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&num_partitions));
        if (num_partitions < 0 ||
            static_cast<size_t>(num_partitions) > reader.remaining()) {
          return Status::DataLoss("map-commit partition count overruns record");
        }
        commit.extent.partitions.resize(static_cast<size_t>(num_partitions));
        for (SpillSegment::PartitionRange& range : commit.extent.partitions) {
          MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&range.offset));
          MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&range.length));
          MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&range.records));
          MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&range.raw_length));
          MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&range.crc));
        }
      }
      replay->map_commits[commit.task] = std::move(commit);
      break;
    }
    case kReduceCommit: {
      JournalReduceCommit commit;
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &commit.task));
      MRMB_RETURN_IF_ERROR(ReadVarintInt(&reader, &commit.attempt));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.groups));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.output_records));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.output_bytes));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.input_records));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.input_bytes));
      MRMB_RETURN_IF_ERROR(reader.ReadVarint64(&commit.part_bytes));
      MRMB_RETURN_IF_ERROR(reader.ReadFixed32(&commit.part_crc));
      replay->reduce_commits[commit.task] = commit;
      break;
    }
    case kJobCommit:
      replay->job_committed = true;
      break;
    default:
      return Status::DataLoss(
          StringPrintf("unknown journal record type %d", type));
  }
  return Status::OK();
}

// Walks the journal's frames, decoding each valid record into `replay`.
// Returns the byte offset of the valid prefix; everything past it is torn.
Result<int64_t> ReplayContents(const std::string& contents,
                               JournalReplay* replay) {
  const std::string_view view(contents);
  size_t offset = 0;
  while (offset + 8 <= view.size()) {
    BufferReader header(view.substr(offset, 8));
    uint32_t payload_len = 0;
    uint32_t crc = 0;
    if (!header.ReadFixed32(&payload_len).ok() ||
        !header.ReadFixed32(&crc).ok()) {
      break;
    }
    if (payload_len == 0 || payload_len > kMaxPayloadBytes ||
        offset + 8 + payload_len > view.size()) {
      break;
    }
    const std::string_view payload = view.substr(offset + 8, payload_len);
    if (Crc32c(payload) != crc) break;
    // The frame is intact; a decode failure now means a genuinely corrupt
    // record body, not a torn tail — surface it.
    MRMB_RETURN_IF_ERROR(DecodeRecord(payload, replay));
    ++replay->records_replayed;
    offset += 8 + payload_len;
  }
  replay->truncated_bytes = static_cast<int64_t>(view.size() - offset);
  return static_cast<int64_t>(offset);
}

Result<std::string> ReadWholeFile(int fd, const std::string& path) {
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("read", path));
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  return contents;
}

}  // namespace

JobJournal::JobJournal(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<JobJournal>> JobJournal::Create(
    const std::string& path, const JournalRunStart& start) {
  // Born atomic: the first record goes to a temp file that is fsynced and
  // renamed into place, so no reader ever sees a journal without a valid
  // run-start header.
  const std::string tmp_path = path + ".tmp";
  const int tmp_fd = ::open(tmp_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    return Status::IOError(ErrnoMessage("open", tmp_path));
  }
  const std::string framed = FrameRecord(EncodeRunStart(start));
  Status status = WriteFully(tmp_fd, framed, tmp_path);
  if (status.ok() && ::fsync(tmp_fd) != 0) {
    status = Status::IOError(ErrnoMessage("fsync", tmp_path));
  }
  ::close(tmp_fd);
  if (status.ok() && ::rename(tmp_path.c_str(), path.c_str()) != 0) {
    status = Status::IOError(ErrnoMessage("rename", tmp_path));
  }
  if (!status.ok()) {
    ::unlink(tmp_path.c_str());
    return status;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("open", path));
  }
  std::unique_ptr<JobJournal> journal(new JobJournal(path, fd));
  journal->records_appended_ = 1;  // the run-start
  return journal;
}

Result<std::unique_ptr<JobJournal>> JobJournal::OpenForResume(
    const std::string& path, const JournalRunStart& start,
    JournalReplay* replay) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(ErrnoMessage("open", path));
  }
  Result<std::string> contents = ReadWholeFile(fd, path);
  if (!contents.ok()) {
    ::close(fd);
    return contents.status();
  }
  *replay = JournalReplay();
  Result<int64_t> valid_prefix = ReplayContents(*contents, replay);
  if (!valid_prefix.ok()) {
    ::close(fd);
    return valid_prefix.status();
  }
  if (replay->runs == 0) {
    ::close(fd);
    return Status::DataLoss("journal has no intact run-start record: " + path);
  }
  if (replay->digest != start.digest) {
    ::close(fd);
    return Status::InvalidArgument(StringPrintf(
        "journal %s belongs to a different job (digest %016llx, resume "
        "expects %016llx) — the output-shaping configuration must match",
        path.c_str(),
        static_cast<unsigned long long>(replay->digest),
        static_cast<unsigned long long>(start.digest)));
  }
  // Drop the torn tail so this run's appends extend the valid prefix.
  if (replay->truncated_bytes > 0 &&
      ::ftruncate(fd, static_cast<off_t>(*valid_prefix)) != 0) {
    const Status status = Status::IOError(ErrnoMessage("ftruncate", path));
    ::close(fd);
    return status;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status status = Status::IOError(ErrnoMessage("lseek", path));
    ::close(fd);
    return status;
  }
  std::unique_ptr<JobJournal> journal(new JobJournal(path, fd));
  JournalRunStart this_run = start;
  this_run.run = replay->runs;
  MRMB_RETURN_IF_ERROR(
      journal->AppendRecord(EncodeRunStart(this_run)));
  return journal;
}

Result<JournalReplay> JobJournal::Replay(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(ErrnoMessage("open", path));
  }
  Result<std::string> contents = ReadWholeFile(fd, path);
  ::close(fd);
  MRMB_RETURN_IF_ERROR(contents.status());
  JournalReplay replay;
  MRMB_RETURN_IF_ERROR(ReplayContents(*contents, &replay).status());
  return replay;
}

Status JobJournal::AppendRecord(const std::string& payload) {
  const std::string framed = FrameRecord(payload);
  std::lock_guard<std::mutex> lock(mu_);
  MRMB_RETURN_IF_ERROR(WriteFully(fd_, framed, path_));
  // fdatasync, not fsync: the record must be durable before the state
  // transition it describes takes effect, but the inode mtime need not be.
  if (::fdatasync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync", path_));
  }
  ++records_appended_;
  return Status::OK();
}

Status JobJournal::AppendAttemptStart(bool is_map, int task, int attempt) {
  return AppendRecord(EncodeAttempt(kAttemptStart, is_map, task, attempt));
}

Status JobJournal::AppendAttemptFail(bool is_map, int task, int attempt) {
  return AppendRecord(EncodeAttempt(kAttemptFail, is_map, task, attempt));
}

Status JobJournal::AppendMapCommit(const JournalMapCommit& commit) {
  return AppendRecord(EncodeMapCommit(commit));
}

Status JobJournal::AppendReduceCommit(const JournalReduceCommit& commit) {
  return AppendRecord(EncodeReduceCommit(commit));
}

Status JobJournal::AppendJobCommit() {
  std::string payload;
  BufferWriter writer(&payload);
  writer.AppendByte(kJobCommit);
  return AppendRecord(payload);
}

int64_t JobJournal::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_appended_;
}

}  // namespace mrmb
