// Write-ahead job journal: the crash-recovery log under LocalJobRunner.
//
// A journaled job appends one CRC32C-framed record per state transition —
// run start (with a JobConf digest), task-attempt start/fail, map commit
// (carrying the durable spill extent's manifest), reduce commit (carrying
// the committed part file's size and checksum), and finally job commit —
// each fdatasync'd before the transition is allowed to take effect. The
// journal file itself is born atomically (first record written to a temp
// file, fsync, rename), so a crash at any instant leaves either no journal
// or a journal whose valid prefix describes exactly the durable state on
// disk.
//
// Record framing mirrors the spill extent format:
//
//   [fixed32 payload_len][fixed32 crc32c(payload)][payload]*
//   payload = [u8 record_type][type-specific body]
//
// Replay walks frames front to back and stops at the first torn or
// corrupt frame — the RecoverExtentFile idiom — so a crash mid-append
// costs at most the record being written, never the log. OpenForResume
// additionally truncates the torn tail and appends a fresh run-start, so
// each process run is visible in the record stream.
//
// Thread safety: Append* calls serialize on an internal mutex; replay is
// single-threaded (done before the job's pool spins up).

#ifndef MRMB_MAPRED_JOB_JOURNAL_H_
#define MRMB_MAPRED_JOB_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/kv_buffer.h"

namespace mrmb {

// The run-start record: identifies which job this journal belongs to.
// `digest` is JobConf::Digest() — a resume with a different digest would
// adopt extents that encode different bytes, so it is refused.
struct JournalRunStart {
  uint64_t digest = 0;
  int num_maps = 0;
  int num_reduces = 0;
  int run = 0;  // 0 for the original run, incremented per resume
};

// Manifest of the durable spill extent holding one committed map output —
// everything SpillStore::Adopt needs to rebuild a read handle.
struct JournalExtentManifest {
  std::string file_name;  // basename within the job's extent directory
  int64_t file_bytes = 0;
  int64_t logical_bytes = 0;
  std::vector<SpillSegment::PartitionRange> partitions;
};

// Per-stage combine accounting for one map attempt. Bytes are logical
// (decompressed) framed bytes; micros is wall time spent in the per-spill
// and merge-time combine passes, the map-side share of the
// combine_cpu_per_record calibration source.
struct MapCombineStats {
  int64_t spill_input_records = 0;
  int64_t spill_output_records = 0;
  int64_t spill_input_bytes = 0;
  int64_t spill_output_bytes = 0;
  int64_t merge_input_records = 0;
  int64_t merge_output_records = 0;
  int64_t merge_input_bytes = 0;
  int64_t merge_output_bytes = 0;
  int64_t combine_micros = 0;
};

// Map-side counters of one committed attempt, carried through the journal
// so a resumed run reports adopted tasks' work as if it had run them.
struct JournalMapStats {
  int64_t input_records = 0;
  int64_t output_records = 0;
  int64_t spill_count = 0;
  int64_t combine_removed = 0;
  int64_t output_bytes = 0;  // logical (uncompressed) framed bytes
  int64_t wire_bytes = 0;    // bytes as published (codec frames when on)
  // Disk spill engine, this attempt only: physical extent bytes written,
  // extent count (spills + final output), and writes that degraded to RAM
  // residency on ENOSPC/EIO.
  int64_t spilled_bytes = 0;
  int64_t spill_extents = 0;
  int64_t spill_degradations = 0;
  // Per-stage combine accounting (zeros without a combiner), so an adopted
  // task's wire savings survive resume.
  MapCombineStats combine;
};

struct JournalMapCommit {
  int task = 0;
  int attempt = 0;
  JournalMapStats stats;
  // False when the commit degraded to RAM residency (ENOSPC/EIO): the
  // output died with the process, so resume re-runs the task.
  bool has_extent = false;
  JournalExtentManifest extent;
};

struct JournalReduceCommit {
  int task = 0;
  int attempt = 0;
  int64_t groups = 0;
  int64_t output_records = 0;
  int64_t output_bytes = 0;
  int64_t input_records = 0;
  int64_t input_bytes = 0;
  // Size and CRC32C of the committed part file, verified when resume loads
  // the pairs back.
  int64_t part_bytes = 0;
  uint32_t part_crc = 0;
};

// Everything a replay recovers from the valid prefix of a journal.
struct JournalReplay {
  uint64_t digest = 0;
  int num_maps = 0;
  int num_reduces = 0;
  int runs = 0;  // run-start records seen (1 = never resumed)
  bool job_committed = false;
  // Latest commit per task; a re-executed task's newer commit supersedes.
  std::map<int, JournalMapCommit> map_commits;
  std::map<int, JournalReduceCommit> reduce_commits;
  // Highest attempt number started per task, +1 — i.e. attempts_started,
  // so a resumed task's attempt ids continue where the crash left off.
  std::map<int, int> map_attempts;
  std::map<int, int> reduce_attempts;
  int64_t records_replayed = 0;
  int64_t truncated_bytes = 0;  // torn tail dropped by OpenForResume
};

class JobJournal {
 public:
  // Creates a fresh journal at `path` (replacing any predecessor): writes
  // the run-start record to a temp file, fsyncs, renames into place, then
  // holds the file open for appends.
  static Result<std::unique_ptr<JobJournal>> Create(
      const std::string& path, const JournalRunStart& start);

  // Replays the journal at `path`, truncates any torn tail, verifies the
  // digest matches `start.digest` (InvalidArgument otherwise — the journal
  // belongs to a different job), fills `*replay`, and appends a run-start
  // for this run with `run` = number of prior runs.
  static Result<std::unique_ptr<JobJournal>> OpenForResume(
      const std::string& path, const JournalRunStart& start,
      JournalReplay* replay);

  // Read-only replay: walks the valid prefix without modifying the file.
  // Torn tails are reported in `truncated_bytes`, never an error.
  static Result<JournalReplay> Replay(const std::string& path);

  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  Status AppendAttemptStart(bool is_map, int task, int attempt);
  Status AppendAttemptFail(bool is_map, int task, int attempt);
  Status AppendMapCommit(const JournalMapCommit& commit);
  Status AppendReduceCommit(const JournalReduceCommit& commit);
  Status AppendJobCommit();

  int64_t records_appended() const;
  const std::string& path() const { return path_; }

 private:
  JobJournal(std::string path, int fd);

  Status AppendRecord(const std::string& payload);

  const std::string path_;
  mutable std::mutex mu_;
  int fd_ = -1;
  int64_t records_appended_ = 0;
};

}  // namespace mrmb

#endif  // MRMB_MAPRED_JOB_JOURNAL_H_
