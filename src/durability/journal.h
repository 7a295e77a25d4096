#ifndef DEXA_DURABILITY_JOURNAL_H_
#define DEXA_DURABILITY_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"
#include "engine/metrics.h"

namespace dexa {

/// Configuration of a RunJournal.
struct JournalOptions {
  /// Soft cap on segment size: a segment whose payload bytes exceed this is
  /// sealed and the next record opens a fresh segment file. Small values
  /// exercise multi-segment recovery; the default keeps a 252-module
  /// annotation run in a handful of segments.
  size_t segment_bytes = 64 * 1024;
  /// Every Append writes its frame through the env before it returns; this
  /// decides only when the fsync follows. False (the default) is group
  /// commit: each segment is fsynced once, at its Seal (a roll, an explicit
  /// Seal(), or the end of a completed SubmitRun), so a commit is durable
  /// at its segment's seal and a power cut mid-run takes at most the open
  /// segment, which a resume regenerates byte-identically. True fsyncs
  /// every record before Append returns. The on-disk bytes are identical
  /// either way, and a process that dies loses nothing Append returned in
  /// either mode.
  bool sync_each_record = false;
};

/// The on-disk framing of the journal (see docs/DURABILITY.md):
///
///   segment file  wal-<index>.seg :=  "DEXAWAL1" record*
///   record        :=  'D' 'R'  length:u32le  crc32:u32le  payload
///
/// `crc32` is the IEEE CRC-32 of the payload alone; `length` is the payload
/// byte count. A record is valid iff its magic, length and checksum all
/// check out; the first invalid byte ends the journal — everything after it
/// is a damaged tail, discarded by recovery with Status kCorrupted.
inline constexpr char kJournalSegmentMagic[] = "DEXAWAL1";
inline constexpr size_t kJournalSegmentMagicLen = 8;
inline constexpr size_t kJournalFrameOverhead = 10;  // magic+length+crc.

/// A checksummed, segmented write-ahead journal for one annotation (or
/// enactment) run. Every committed unit of work is appended as one framed
/// record and written through the env before the commit is acknowledged,
/// so a process that dies mid-run loses at most the record being written;
/// each segment is fsynced at its seal (group commit, the default) or each
/// record at its append, so a power cut loses at most the unsealed
/// segment — and a torn or bit-flipped tail is detected, not trusted.
///
/// All bytes go through an IoEnv (default: IoEnv::Real()), so disk faults —
/// injected by a FaultyIoEnv or real — surface as the seam's typed codes:
/// Append returns kResourceExhausted when the disk fills (the journal on
/// disk stays a valid prefix; resume after space is freed replays it
/// byte-identically) and kCorrupted on EIO/fsync loss.
///
/// Not thread-safe: the engine's commit hook serializes appends (commits
/// happen on the sequential-commit phase only).
class RunJournal {
 public:
  /// Starts a fresh journal in `dir` (created if missing, its entry synced
  /// in the parent); any segments of a previous journal in the directory
  /// are removed. `metrics` (optional) counts journal_records and
  /// journal_segments_sealed. `io` (optional) carries every byte; nullptr
  /// means the real filesystem.
  [[nodiscard]] static Result<RunJournal> Create(const std::string& dir,
                                   JournalOptions options = {},
                                   EngineMetrics* metrics = nullptr,
                                   IoEnv* io = nullptr);

  /// Re-opens the journal in `dir` for appending after a crash: removes
  /// any segments past the damage identified by `recovery`
  /// (RecoverJournal) and syncs the directory, truncates the last segment
  /// that stays durably to its valid prefix (so every recovered record is
  /// durable when this returns, whatever the crashed run left unsynced),
  /// and directs new records into a fresh segment after it. The first
  /// Append creates that segment, so a resume that appends nothing adds no
  /// file.
  [[nodiscard]] static Result<RunJournal> Resume(const std::string& dir,
                                   const struct JournalRecovery& recovery,
                                   JournalOptions options = {},
                                   EngineMetrics* metrics = nullptr,
                                   IoEnv* io = nullptr);

  RunJournal(RunJournal&&) = default;
  RunJournal& operator=(RunJournal&&) = default;

  /// Appends one record (frame + CRC32) and writes it to the OS, fsyncing it
  /// when sync_each_record is set. Opens a new segment first when none is
  /// open (after a Seal or a Resume) and rolls to one when the current one
  /// is past the size cap; a new segment's directory entry is synced before
  /// any record lands in it. On a disk fault the typed seam
  /// status comes back verbatim (kResourceExhausted / kCorrupted) and the
  /// journal refuses further appends — the valid prefix on disk is the
  /// contract.
  [[nodiscard]] Status Append(std::string_view payload);

  /// Seals the current segment (fsyncing it first unless each record was
  /// synced) and closes it; every record appended so far is then durable.
  /// The next Append opens a new segment. Idempotent.
  [[nodiscard]] Status Seal();

  const std::string& dir() const { return dir_; }
  /// The env every byte of this journal goes through.
  IoEnv* io() const { return io_; }
  uint64_t records_appended() const { return records_appended_; }
  uint64_t segments_sealed() const { return segments_sealed_; }

 private:
  RunJournal() = default;

  /// Creates segment `next_segment_`, writes its header and syncs its
  /// directory entry.
  [[nodiscard]] Status OpenSegment();

  std::string dir_;
  JournalOptions options_;
  EngineMetrics* metrics_ = nullptr;
  IoEnv* io_ = nullptr;
  std::unique_ptr<WritableIoFile> out_;
  bool segment_open_ = false;
  bool failed_ = false;
  size_t next_segment_ = 0;  ///< Index of the segment OpenSegment creates.
  size_t segment_payload_bytes_ = 0;
  uint64_t records_appended_ = 0;
  uint64_t segments_sealed_ = 0;
};

/// What RecoverJournal salvaged from a journal directory.
struct JournalRecovery {
  /// Valid record payloads, in append order across all segments.
  std::vector<std::string> records;

  size_t segments_scanned = 0;

  /// OK when every byte of every segment parsed; kCorrupted when a torn or
  /// bit-flipped tail was discarded (detail in the message). Recovery never
  /// fails because of damage — the valid prefix is always returned.
  Status tail_status;

  bool tail_discarded() const { return !tail_status.ok(); }

  /// Bytes discarded as damaged tail (across the damaged segment and any
  /// segments after it).
  size_t bytes_discarded = 0;

  /// Index (into the sorted segment list) of the segment holding the first
  /// damaged byte, and the length of its valid prefix — the truncation
  /// point RunJournal::Resume applies. Meaningful only when
  /// tail_discarded().
  size_t damaged_segment = 0;
  size_t damaged_segment_valid_bytes = 0;
};

/// Scans the journal segments of `dir` in order, validates every record's
/// framing and CRC32, and returns the valid prefix. Damage (torn write,
/// flipped bytes, truncation) ends the journal at the first bad byte:
/// later records — even intact ones in later segments — are discarded,
/// because a WAL's contract is a valid prefix, not a valid subset.
/// Fails (as a Result error) only on environmental problems: missing or
/// unreadable directory.
[[nodiscard]] Result<JournalRecovery> RecoverJournal(const std::string& dir,
                                       EngineMetrics* metrics = nullptr,
                                       IoEnv* io = nullptr);

/// One segment's in-memory scan (exposed for fuzzing and tests): parses
/// `bytes` as a segment file image and returns the records of the valid
/// prefix plus where (and whether) it went bad.
struct SegmentScan {
  std::vector<std::string> records;
  size_t valid_bytes = 0;  ///< Length of the cleanly-parsed prefix.
  Status status;           ///< OK, or kCorrupted at the first bad byte.
};
SegmentScan ScanSegment(std::string_view bytes);

/// Deliberately damages the journal tail in `dir` — the in-process stand-in
/// for a crash landing mid-write: truncates `truncate_bytes` off the last
/// segment, then flips `flips` bytes near its end, positions drawn from
/// `seed`. Every byte goes through `io` (nullptr = the real filesystem), so
/// the damage lands on the file system the journal writes to. Used by
/// crash-point injection (kTornWrite) and the recovery tests.
[[nodiscard]] Status TearJournalTail(const std::string& dir, uint64_t seed,
                                     int flips, size_t truncate_bytes,
                                     IoEnv* io = nullptr);

}  // namespace dexa

#endif  // DEXA_DURABILITY_JOURNAL_H_
