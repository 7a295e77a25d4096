#include "durability/journal.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "common/crc32.h"

namespace dexa {

namespace {

constexpr char kRecordMagic0 = 'D';
constexpr char kRecordMagic1 = 'R';

std::string SegmentName(size_t index) {
  return "wal-" + ZeroPad(index, 5) + ".seg";
}

IoEnv& EnvOrReal(IoEnv* io) { return io != nullptr ? *io : IoEnv::Real(); }

/// Parses the numeric index out of a segment filename ("wal-00012.seg").
/// Returns false for names that do not follow the scheme.
bool ParseSegmentIndex(const std::string& name, size_t* index) {
  constexpr size_t kPrefixLen = 4;  // "wal-"
  constexpr size_t kSuffixLen = 4;  // ".seg"
  if (name.size() <= kPrefixLen + kSuffixLen) return false;
  uint64_t value = 0;
  if (!ParseU64(std::string_view(name).substr(
                    kPrefixLen, name.size() - kPrefixLen - kSuffixLen),
                &value)) {
    return false;
  }
  *index = static_cast<size_t>(value);
  return true;
}

/// max(filename index) + 1 over `segments` — the only collision-free next
/// index. Positions in the sorted list are not usable: recovery may have
/// removed a header-damaged segment whole, leaving a numbering gap, after
/// which `segments.size()` names a live segment.
size_t NextSegmentIndex(const std::vector<DirEntry>& segments) {
  size_t next = 0;
  for (const DirEntry& segment : segments) {
    size_t index = 0;
    if (ParseSegmentIndex(segment.name, &index) && index + 1 > next) {
      next = index + 1;
    }
  }
  return next;
}

/// The journal segments in `dir`, listed through `env` and sorted by name
/// (lexicographic order of the zero-padded names is append order).
Result<std::vector<DirEntry>> ListSegments(IoEnv& env,
                                           const std::string& dir) {
  auto entries = env.ListDir(dir);
  if (!entries.ok()) {
    if (entries.status().IsNotFound()) {
      return Status::NotFound("journal directory '" + dir +
                              "' does not exist");
    }
    return Status(entries.status().code(),
                  "cannot list journal directory '" + dir +
                      "': " + entries.status().message());
  }
  std::vector<DirEntry> segments;
  for (DirEntry& entry : *entries) {
    if (StartsWith(entry.name, "wal-") && EndsWith(entry.name, ".seg")) {
      segments.push_back(std::move(entry));
    }
  }
  return segments;
}

void PutU32Le(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32Le(std::string_view bytes, size_t at) {
  return static_cast<uint32_t>(static_cast<uint8_t>(bytes[at])) |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + 3])) << 24;
}

}  // namespace

SegmentScan ScanSegment(std::string_view bytes) {
  SegmentScan scan;
  if (bytes.size() < kJournalSegmentMagicLen ||
      bytes.substr(0, kJournalSegmentMagicLen) !=
          std::string_view(kJournalSegmentMagic, kJournalSegmentMagicLen)) {
    scan.status = Status::Corrupted("segment header magic missing or damaged");
    return scan;
  }
  size_t at = kJournalSegmentMagicLen;
  scan.valid_bytes = at;
  while (at < bytes.size()) {
    const size_t remaining = bytes.size() - at;
    if (remaining < kJournalFrameOverhead) {
      scan.status = Status::Corrupted(
          "torn record frame: " + std::to_string(remaining) +
          " trailing byte(s), frame needs " +
          std::to_string(kJournalFrameOverhead));
      return scan;
    }
    if (bytes[at] != kRecordMagic0 || bytes[at + 1] != kRecordMagic1) {
      scan.status = Status::Corrupted("record magic damaged at offset " +
                                      std::to_string(at));
      return scan;
    }
    const uint32_t length = GetU32Le(bytes, at + 2);
    const uint32_t crc = GetU32Le(bytes, at + 6);
    if (length > remaining - kJournalFrameOverhead) {
      scan.status = Status::Corrupted(
          "torn record at offset " + std::to_string(at) + ": length " +
          std::to_string(length) + " overruns the segment");
      return scan;
    }
    std::string_view payload =
        bytes.substr(at + kJournalFrameOverhead, length);
    if (Crc32(payload) != crc) {
      scan.status = Status::Corrupted("CRC32 mismatch at offset " +
                                      std::to_string(at));
      return scan;
    }
    scan.records.emplace_back(payload);
    at += kJournalFrameOverhead + length;
    scan.valid_bytes = at;
  }
  scan.status = Status::OK();
  return scan;
}

Result<JournalRecovery> RecoverJournal(const std::string& dir,
                                       EngineMetrics* metrics, IoEnv* io) {
  IoEnv& env = EnvOrReal(io);
  auto segments = ListSegments(env, dir);
  if (!segments.ok()) return segments.status();

  JournalRecovery recovery;
  for (size_t s = 0; s < segments->size(); ++s) {
    auto bytes = env.ReadFile(JoinPath(dir, (*segments)[s].name));
    if (!bytes.ok()) return bytes.status();
    ++recovery.segments_scanned;
    SegmentScan scan = ScanSegment(*bytes);
    for (std::string& record : scan.records) {
      recovery.records.push_back(std::move(record));
    }
    if (scan.status.ok()) continue;

    // Damage: everything from the first bad byte on — including any later
    // segments — is the discarded tail.
    recovery.tail_status = Status::Corrupted(
        "segment '" + (*segments)[s].name + "': " + scan.status.message());
    recovery.damaged_segment = s;
    recovery.damaged_segment_valid_bytes = scan.valid_bytes;
    recovery.bytes_discarded = bytes->size() - scan.valid_bytes;
    for (size_t later = s + 1; later < segments->size(); ++later) {
      recovery.bytes_discarded += (*segments)[later].size;
      ++recovery.segments_scanned;
    }
    if (metrics != nullptr) metrics->Add(EngineCounter::torn_tails_discarded);
    break;
  }
  return recovery;
}

Status RunJournal::OpenSegment() {
  auto file = io_->NewWritableFile(JoinPath(dir_, SegmentName(next_segment_)));
  if (!file.ok()) return file.status();
  out_ = std::move(*file);
  // The header is synced with the segment's first group; the directory
  // entry is synced now, so no group of this segment is acknowledged while
  // its name could still vanish in a power cut. The same sync makes the
  // removals Create and Resume made in `dir_` durable.
  Status header = out_->Append(
      std::string_view(kJournalSegmentMagic, kJournalSegmentMagicLen));
  if (header.ok()) header = io_->SyncDir(dir_);
  if (!header.ok()) {
    out_.reset();
    return header;
  }
  segment_open_ = true;
  ++next_segment_;
  segment_payload_bytes_ = 0;
  return Status::OK();
}

Result<RunJournal> RunJournal::Create(const std::string& dir,
                                      JournalOptions options,
                                      EngineMetrics* metrics, IoEnv* io) {
  IoEnv& env = EnvOrReal(io);
  DEXA_RETURN_IF_ERROR(CreateDurableDir(env, dir));
  // A fresh journal owns the directory's WAL namespace: stale segments of a
  // previous run would otherwise replay into this one. The first segment's
  // directory sync makes their removal durable.
  auto stale = ListSegments(env, dir);
  if (!stale.ok()) return stale.status();
  for (const DirEntry& segment : *stale) {
    DEXA_RETURN_IF_ERROR(env.RemoveFile(JoinPath(dir, segment.name)));
  }

  RunJournal journal;
  journal.dir_ = dir;
  journal.options_ = options;
  journal.metrics_ = metrics;
  journal.io_ = &env;
  DEXA_RETURN_IF_ERROR(journal.OpenSegment());
  return journal;
}

Result<RunJournal> RunJournal::Resume(const std::string& dir,
                                      const JournalRecovery& recovery,
                                      JournalOptions options,
                                      EngineMetrics* metrics, IoEnv* io) {
  IoEnv& env = EnvOrReal(io);
  auto segments = ListSegments(env, dir);
  if (!segments.ok()) return segments.status();
  if (segments->empty()) {
    return Status::NotFound("no journal segments in '" + dir + "' to resume");
  }

  // Opening a segment truncates, so a collision with a listed segment would
  // destroy committed records — refuse, before the journal is touched,
  // rather than trust the numbering.
  const size_t next_index = NextSegmentIndex(*segments);
  const std::string next_name = SegmentName(next_index);
  for (const DirEntry& segment : *segments) {
    if (segment.name == next_name) {
      return Status::Internal("refusing to resume: next segment '" +
                              JoinPath(dir, next_name) + "' already exists");
    }
  }

  // The last segment that stays, and the length of its valid prefix.
  std::string last = JoinPath(dir, segments->back().name);
  uint64_t last_valid_bytes = segments->back().size;
  if (recovery.tail_discarded()) {
    // Drop every segment after the damaged one, then cut the damaged one
    // back to its valid prefix — the journal must be a valid prefix before
    // new records land behind it. The removals are synced before the cut,
    // so no power cut can leave the cut segment followed by a later one
    // whose records no longer continue it.
    if (recovery.damaged_segment + 1 < segments->size()) {
      for (size_t s = recovery.damaged_segment + 1; s < segments->size();
           ++s) {
        DEXA_RETURN_IF_ERROR(
            env.RemoveFile(JoinPath(dir, (*segments)[s].name)));
      }
      DEXA_RETURN_IF_ERROR(env.SyncDir(dir));
    }
    last = JoinPath(dir, (*segments)[recovery.damaged_segment].name);
    last_valid_bytes = recovery.damaged_segment_valid_bytes;
    if (last_valid_bytes < kJournalSegmentMagicLen) {
      // Even the header is damaged: the segment holds no valid records, and
      // a truncated stub would read as damage forever. Drop it whole; the
      // segment before it was synced when its roll sealed it.
      DEXA_RETURN_IF_ERROR(env.RemoveFile(last));
      last.clear();
    }
  }
  if (!last.empty()) {
    // Truncate syncs: under group commit a killed run leaves its open
    // segment written but unsynced, and this run acknowledges those records
    // when it completes, perhaps without appending one of its own. Every
    // earlier segment was synced when it was sealed.
    DEXA_RETURN_IF_ERROR(env.Truncate(last, last_valid_bytes));
  }

  RunJournal journal;
  journal.dir_ = dir;
  journal.options_ = options;
  journal.metrics_ = metrics;
  journal.io_ = &env;
  // Appends of the resumed run go into a fresh segment after the last valid
  // one; the crashed run's segments are sealed history. The first Append
  // opens it, so a resume that appends nothing leaves the directory as it
  // found it.
  journal.next_segment_ = next_index;
  return journal;
}

Status RunJournal::Append(std::string_view payload) {
  if (failed_) {
    // A faulted journal stays faulted: appending past a torn tail would
    // bury damage behind valid-looking frames and break the valid-prefix
    // contract recovery depends on.
    return Status::Unavailable(
        "journal in '" + dir_ +
        "' is failed after a disk fault; resume to continue");
  }
  if (!segment_open_) {
    Status opened = OpenSegment();
    if (!opened.ok()) {
      failed_ = true;
      return opened;
    }
  } else if (segment_payload_bytes_ >= options_.segment_bytes) {
    Status rolled = Seal();
    if (rolled.ok()) rolled = OpenSegment();
    if (!rolled.ok()) {
      failed_ = true;
      return rolled;
    }
  }

  std::string frame;
  frame.reserve(kJournalFrameOverhead + payload.size());
  frame.push_back(kRecordMagic0);
  frame.push_back(kRecordMagic1);
  PutU32Le(frame, static_cast<uint32_t>(payload.size()));
  PutU32Le(frame, Crc32(payload));
  frame.append(payload);

  // Every frame reaches the env before Append returns, so a process that
  // dies loses nothing acknowledged; the fsync waits for the segment's Seal
  // unless the journal syncs each record.
  Status written = out_->Append(frame);
  if (written.ok() && options_.sync_each_record) written = out_->Sync();
  if (!written.ok()) {
    failed_ = true;
    return written;
  }
  segment_payload_bytes_ += frame.size();
  ++records_appended_;
  if (metrics_ != nullptr) metrics_->Add(EngineCounter::journal_records);
  return Status::OK();
}

Status RunJournal::Seal() {
  if (!segment_open_) return Status::OK();
  // The segment's group sync (a per-record journal synced each record
  // already); a failure is a disk fault like any other.
  Status sealed = options_.sync_each_record ? Status::OK() : out_->Sync();
  if (sealed.ok()) sealed = out_->Close();
  out_.reset();
  segment_open_ = false;
  if (!sealed.ok()) {
    failed_ = true;
    return sealed;
  }
  ++segments_sealed_;
  if (metrics_ != nullptr) {
    metrics_->Add(EngineCounter::journal_segments_sealed);
  }
  return Status::OK();
}

Status TearJournalTail(const std::string& dir, uint64_t seed, int flips,
                       size_t truncate_bytes, IoEnv* io) {
  IoEnv& env = EnvOrReal(io);
  auto segments = ListSegments(env, dir);
  if (!segments.ok()) return segments.status();
  if (segments->empty()) {
    return Status::NotFound("no journal segments in '" + dir + "' to tear");
  }
  const std::string last = JoinPath(dir, segments->back().name);

  auto bytes = env.ReadFile(last);
  if (!bytes.ok()) return bytes.status();
  std::string content = std::move(bytes).value();

  if (truncate_bytes > 0 && !content.empty()) {
    content.resize(content.size() - std::min(truncate_bytes, content.size()));
  }
  Rng rng(seed);
  for (int f = 0; f < flips && !content.empty(); ++f) {
    // Flip bytes near the tail — where a crashed writer would have landed.
    size_t span = std::min<size_t>(content.size(), 64);
    size_t pos = content.size() - 1 - rng.NextIndex(span);
    content[pos] = static_cast<char>(content[pos] ^ 0x5A);
  }

  auto out = env.NewWritableFile(last);
  if (!out.ok()) return out.status();
  Status written = (*out)->Append(content);
  if (written.ok()) written = (*out)->Close();
  return written;
}

}  // namespace dexa
