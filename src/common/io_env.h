#ifndef DEXA_COMMON_IO_ENV_H_
#define DEXA_COMMON_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dexa {

/// The injectable I/O seam. Every durable byte the system writes or maps —
/// journal segments, snapshots, KB images, run descriptors — and every
/// directory it lists goes through an `IoEnv` instead of calling
/// open/write/fsync/rename/mmap or std::filesystem directly (the `raw-io`
/// dexa-lint rule polices this). Production uses `IoEnv::Real()`;
/// tests and the chaos harness wrap it in a `FaultyIoEnv` whose seed-driven
/// profile injects ENOSPC, EIO, short writes, and fsync failures
/// deterministically, so "the disk filled up mid-journal" is a reproducible
/// unit test rather than an ops incident.
///
/// Durability: a byte is durable once a Sync of its file returns, and a
/// directory entry (a create, rename or remove) once a SyncDir of its
/// directory returns; until then a power cut may drop it. Callers sync
/// whatever their acknowledgements depend on (docs/DURABILITY.md).
///
/// Error taxonomy at the seam (both real errno and injected faults):
///   - ENOSPC/EDQUOT-class  → kResourceExhausted (bytes on disk are valid;
///                            free space and resume byte-identically)
///   - EIO-class, failed fsync → kCorrupted (the tail is untrustworthy;
///                            recovery re-validates the CRC'd prefix)
///   - missing file         → kNotFound
///   - anything else        → kInternal

/// A writable file handle produced by IoEnv::NewWritableFile. Appends go to
/// the end; Sync flushes through to the OS (the fsync stand-in the fault
/// profile can fail). Close is implied by destruction but returns no status
/// there — call Close explicitly when the outcome matters.
class WritableIoFile {
 public:
  virtual ~WritableIoFile() = default;
  [[nodiscard]] virtual Status Append(std::string_view data) = 0;
  [[nodiscard]] virtual Status Sync() = 0;
  [[nodiscard]] virtual Status Close() = 0;
};

/// A read-only memory mapping (RAII: unmaps on destruction). Movable so it
/// can live inside a Result and be stored by the mapping's consumer.
class MmapRegion {
 public:
  MmapRegion() = default;
  /// Takes ownership of `[data, data+size)`; `unmap` selects munmap (true)
  /// or heap delete[] (false, used by fault wrappers that copy).
  MmapRegion(void* data, size_t size, bool unmap);
  ~MmapRegion();
  MmapRegion(MmapRegion&& other) noexcept;
  MmapRegion& operator=(MmapRegion&& other) noexcept;
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  const void* data() const { return data_; }
  size_t size() const { return size_; }
  bool valid() const { return data_ != nullptr; }

 private:
  void Release();
  void* data_ = nullptr;
  size_t size_ = 0;
  bool unmap_ = false;
};

/// One entry of a directory listing (IoEnv::ListDir).
struct DirEntry {
  std::string name;     ///< The entry's name within the directory.
  bool is_dir = false;  ///< A directory, symlinks followed.
  uint64_t size = 0;    ///< Byte size of a file; 0 for a directory.
};

/// `dir/name`, joined as std::filesystem::path's operator/ joins a relative
/// name: no separator is added after an empty `dir` or a trailing '/'.
std::string JoinPath(std::string_view dir, std::string_view name);

/// The directory holding `path`: "." for a bare name, "/" for a top-level
/// entry. Trailing '/'s of `path` are ignored.
std::string ParentDir(std::string_view path);

/// The seam interface. All paths are plain filesystem paths; data bytes and
/// directory metadata both go through here, so an env that relocates or
/// rewrites the file system sees every access.
class IoEnv {
 public:
  virtual ~IoEnv() = default;

  /// Opens `path` truncated for writing.
  [[nodiscard]] virtual Result<std::unique_ptr<WritableIoFile>>
  NewWritableFile(const std::string& path) = 0;

  /// Reads `path` whole. kNotFound when missing.
  [[nodiscard]] virtual Result<std::string> ReadFile(
      const std::string& path) = 0;

  /// Maps `path` read-only. kNotFound when missing.
  [[nodiscard]] virtual Result<MmapRegion> MapReadOnly(
      const std::string& path) = 0;

  [[nodiscard]] virtual Status Rename(const std::string& from,
                                      const std::string& to) = 0;
  [[nodiscard]] virtual Status RemoveFile(const std::string& path) = 0;
  /// Shrinks `path` to `size` bytes and syncs it: the new length is
  /// durable when Truncate returns.
  [[nodiscard]] virtual Status Truncate(const std::string& path,
                                        uint64_t size) = 0;
  [[nodiscard]] virtual Status CreateDirs(const std::string& dir) = 0;

  /// Creates the one directory `dir`: kAlreadyExists when it exists as a
  /// directory, kNotFound when its parent does not. The default creates it
  /// on the real file system, as ListDir's lists it.
  [[nodiscard]] virtual Status CreateDir(const std::string& dir);

  /// The entries of `dir` ("." and ".." excluded), sorted by name. kNotFound
  /// when `dir` is missing or not a directory; an entry whose type cannot be
  /// read (a symlink loop) fails the listing with a status naming it. The
  /// default lists the real file system, so envs that only wrap the data
  /// calls keep working; an env that relocates paths must override it.
  [[nodiscard]] virtual Result<std::vector<DirEntry>> ListDir(
      const std::string& dir);

  /// Makes the entries of `dir` durable: every create, rename and remove
  /// in it that happened before the call survives a power cut once this
  /// returns (an fsync of the directory). kNotFound when `dir` is missing.
  /// The default syncs the real file system, as ListDir's lists it.
  [[nodiscard]] virtual Status SyncDir(const std::string& dir);

  /// The process-wide real (POSIX) environment.
  static IoEnv& Real();
};

/// Writes `content` to `path` atomically through `io`: bytes land in
/// `<path>.tmp`, are synced, the temp is renamed over the target and the
/// directory is synced — a crash (or injected fault) leaves the old file or
/// the new one, never a torn hybrid, and the new one is durable when this
/// returns OK. On failure the temp file is removed best-effort and the
/// typed seam status is returned.
[[nodiscard]] Status WriteFileAtomic(IoEnv& io, const std::string& path,
                                     const std::string& content);

/// Creates `dir` and any missing parents through `io`, one at a time,
/// syncing the parent of each directory it creates, so every one of them
/// is durable when this returns OK; a directory that existed is taken as
/// durable, except `dir`, whose parent is synced regardless (an earlier
/// call may have died between its create and its sync).
[[nodiscard]] Status CreateDurableDir(IoEnv& io, const std::string& dir);

/// A deterministic, seed-driven fault plan for a FaultyIoEnv. All counters
/// are 1-based and global across the env instance (each durable run owns
/// its own env, so profiles are per-run reproducible). Zero disables a
/// fault axis.
struct IoFaultProfile {
  uint64_t seed = 0x10E4;

  /// Total payload bytes the env accepts across all writes before the disk
  /// "fills": the write that crosses the cap lands a short prefix up to the
  /// cap (when short_writes) and fails kResourceExhausted, as real ENOSPC
  /// does.
  uint64_t enospc_after_bytes = 0;

  /// The Kth Append (across all files) fails kCorrupted — a flaky device
  /// returning EIO. With short_writes a seeded prefix lands first (a torn
  /// frame for the CRC scan to discard).
  uint64_t eio_write_at = 0;

  /// Per-write probability of a random EIO, drawn from `seed`.
  double write_fault_rate = 0.0;

  /// The Kth Sync, SyncDir or Truncate fails kCorrupted — fsync reporting
  /// lost writeback. File and directory syncs (and the sync a Truncate
  /// makes) share one count.
  uint64_t fsync_fail_at = 0;

  /// The Kth ReadFile/MapReadOnly fails kCorrupted.
  uint64_t eio_read_at = 0;

  /// The Kth Rename fails kResourceExhausted (metadata ENOSPC).
  uint64_t rename_fail_at = 0;

  /// When a write faults, land a deterministic prefix of the data first
  /// (true models torn writes; false fails cleanly at a record boundary).
  bool short_writes = true;

  bool armed() const {
    return enospc_after_bytes != 0 || eio_write_at != 0 ||
           write_fault_rate > 0.0 || fsync_fail_at != 0 || eio_read_at != 0 ||
           rename_fail_at != 0;
  }
};

/// Wraps a base env (default: Real) and injects the faults of `profile`
/// deterministically: the same profile over the same operation sequence
/// produces the same faults at the same byte offsets. Not thread-safe —
/// one FaultyIoEnv per (sequentially-committing) run.
class FaultyIoEnv final : public IoEnv {
 public:
  explicit FaultyIoEnv(IoFaultProfile profile, IoEnv* base = nullptr);

  [[nodiscard]] Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override;
  [[nodiscard]] Result<std::string> ReadFile(const std::string& path) override;
  [[nodiscard]] Result<MmapRegion> MapReadOnly(
      const std::string& path) override;
  [[nodiscard]] Status Rename(const std::string& from,
                              const std::string& to) override;
  [[nodiscard]] Status RemoveFile(const std::string& path) override;
  /// Consumes the fsync fault counter after the base truncate: Truncate
  /// syncs before it returns.
  [[nodiscard]] Status Truncate(const std::string& path,
                                uint64_t size) override;
  [[nodiscard]] Status CreateDirs(const std::string& dir) override;
  /// Forwarded to the base env; consumes no fault counter.
  [[nodiscard]] Status CreateDir(const std::string& dir) override;
  /// Forwarded to the base env; consumes no fault counter.
  [[nodiscard]] Result<std::vector<DirEntry>> ListDir(
      const std::string& dir) override;
  /// Consumes the fsync fault counter, as a file Sync does.
  [[nodiscard]] Status SyncDir(const std::string& dir) override;

  const IoFaultProfile& profile() const { return profile_; }
  uint64_t writes() const { return writes_; }
  /// File, directory and truncate syncs attempted, the fsync fault
  /// counter's count.
  uint64_t syncs() const { return syncs_; }
  uint64_t bytes_accepted() const { return bytes_accepted_; }
  uint64_t faults_injected() const { return faults_injected_; }

  // Fate machine, public for the file wrapper (implementation detail —
  // not part of the seam contract). Decides the fate of the next Append of
  // `size` bytes: OK to pass through, or the typed injected fault;
  // `*short_bytes` is how many leading bytes to land before failing
  // (0 = fail cleanly at the boundary).
  [[nodiscard]] Status NextWriteFate(size_t size, size_t* short_bytes);
  [[nodiscard]] Status NextSyncFate();
  [[nodiscard]] Status NextReadFate(const std::string& path);

 private:

  IoFaultProfile profile_;
  IoEnv* base_;
  uint64_t rng_state_;
  uint64_t writes_ = 0;
  uint64_t syncs_ = 0;
  uint64_t reads_ = 0;
  uint64_t renames_ = 0;
  uint64_t bytes_accepted_ = 0;
  uint64_t faults_injected_ = 0;
};

}  // namespace dexa

#endif  // DEXA_COMMON_IO_ENV_H_
