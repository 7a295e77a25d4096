#ifndef DEXA_TESTS_POWER_CUT_ENV_H_
#define DEXA_TESTS_POWER_CUT_ENV_H_

// An in-memory file system that models what a power cut may leave on disk,
// for the crash-consistency checker (tests/powercut_test.cc). The state
// space is the one ALICE enumerates (Pillai et al., "All File Systems Are
// Not Created Equal", OSDI 2014), and CrashMonkey after it (Mohan et al.,
// OSDI 2018): a file's bytes are durable once a Sync covers them, and a
// directory's entries once a SyncDir covers them; anything newer may or
// may not survive.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/io_env.h"

namespace dexa {

/// An IoEnv over an in-memory file system. Each file holds durable bytes
/// (what its last Sync covered) plus a volatile suffix; each directory holds
/// durable entries (what its last SyncDir covered) plus the creates, renames
/// and removes made since, in order. Truncate is durable when it returns, as
/// the IoEnv contract says. Paths are absolute ('/'-separated); renames stay
/// within one directory.
///
/// Every mutating seam call is logged, so a checker can replay a run one
/// operation at a time into a second env (Apply) and, after any prefix,
/// enumerate the bounded set of states a power cut may leave (CutChoices)
/// and build each one (Crash). Thread-safe.
class PowerCutIoEnv final : public IoEnv {
 public:
  /// One logged seam operation.
  struct Op {
    enum Kind {
      kCreateFile,  ///< NewWritableFile: create, or truncate an existing file.
      kAppend,
      kSync,
      kRename,
      kRemove,
      kTruncate,
      kCreateDirs,
      kCreateDir,
      kSyncDir,
    };
    Kind kind = kCreateFile;
    std::string path;  ///< The path (an Append's or Sync's file), or the
                       ///< rename source.
    std::string to;    ///< The rename target.
    int inode = -1;    ///< The file an Append or Sync went to.
    std::string data;  ///< Append bytes.
    uint64_t size = 0;  ///< Truncate length.

    /// "append 42 B to wal-00001.seg", for violation reports.
    std::string Describe() const;
  };

  /// One post-cut state: every file keeps its volatile suffix or loses it,
  /// every directory keeps its pending operations or loses them, except
  /// that one file may be cut at `cut_at` bytes and one pending directory
  /// operation (an index into the global pending order) may go the other
  /// way.
  struct CutChoice {
    bool files_durable = false;
    bool dirs_durable = false;
    int cut_inode = -1;
    size_t cut_at = 0;
    int toggled_op = -1;

    std::string Describe() const;
  };

  PowerCutIoEnv();

  /// Creates `dir` and its parents durably and outside the log: the file
  /// system a run starts on.
  void MakeDurableDirs(const std::string& dir);

  /// The seam operations so far, in call order.
  std::vector<Op> log() const;

  /// Replays one logged operation (of an env that started from the same
  /// durable directories).
  void Apply(const Op& op);

  /// The bounded set of post-cut states of the current state: the four
  /// corners (volatile file bytes and pending directory operations each all
  /// kept or all lost); each file with volatile bytes cut at every append
  /// boundary and at one byte inside its last append; and each pending
  /// directory operation alone dropped from the all-kept corner and alone
  /// applied to the all-lost one.
  std::vector<CutChoice> CutChoices() const;

  /// A key equal for two choices exactly when they build the same files
  /// and directories (content named by file, lineage and length).
  std::string Signature(const CutChoice& choice) const;

  /// The file system `choice` leaves after a power cut, all of it durable.
  std::unique_ptr<PowerCutIoEnv> Crash(const CutChoice& choice) const;

  /// Journal records of `dir` a returned Sync acknowledged: across its
  /// `wal-*.seg` files, the synced appends after each segment's header.
  size_t AcknowledgedRecords(const std::string& dir) const;

  // -- IoEnv --------------------------------------------------------------
  [[nodiscard]] Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override;
  [[nodiscard]] Result<std::string> ReadFile(const std::string& path) override;
  [[nodiscard]] Result<MmapRegion> MapReadOnly(
      const std::string& path) override;
  [[nodiscard]] Status Rename(const std::string& from,
                              const std::string& to) override;
  [[nodiscard]] Status RemoveFile(const std::string& path) override;
  [[nodiscard]] Status Truncate(const std::string& path,
                                uint64_t size) override;
  [[nodiscard]] Status CreateDirs(const std::string& dir) override;
  [[nodiscard]] Status CreateDir(const std::string& dir) override;
  [[nodiscard]] Result<std::vector<DirEntry>> ListDir(
      const std::string& dir) override;
  [[nodiscard]] Status SyncDir(const std::string& dir) override;

  /// Called by the file handles NewWritableFile returns; `path` is the
  /// name the file was opened under, for reports.
  Status AppendTo(int inode, const std::string& path, std::string_view data);
  Status SyncFile(int inode, const std::string& path);

 private:
  /// A pending directory operation.
  struct DirOp {
    enum Kind { kLink, kUnlink, kRename } kind = kLink;
    std::string name;
    std::string to;  ///< kRename's target.
    int inode = -1;  ///< kLink's file or directory.
  };

  struct Inode {
    bool is_dir = false;
    // -- Files. `data` is what reads see. Within one `epoch` it only grows,
    // so (inode, epoch, length) names a byte string; a truncation starts a
    // new epoch.
    std::string data;
    uint64_t epoch = 0;
    std::string durable;
    uint64_t durable_epoch = 0;
    /// Where the volatile suffix starts, and the end of each append since.
    size_t volatile_start = 0;
    std::vector<size_t> volatile_ends;
    /// The end of every append of this epoch (acknowledgement accounting).
    std::vector<size_t> append_ends;
    // -- Directories.
    std::map<std::string, int> entries;
    std::map<std::string, int> durable_entries;
    std::vector<DirOp> pending;
  };

  /// A resolved post-cut tree: directory paths, and each file path with
  /// its inode and the (epoch, length) of its content.
  struct FileRef {
    int inode = -1;
    uint64_t epoch = 0;
    size_t length = 0;
    bool from_durable = false;
  };
  struct Resolved {
    std::vector<std::string> dirs;
    std::map<std::string, FileRef> files;
  };

  // All below run with mu_ held.
  Status Perform(const Op& op, int* created = nullptr);
  Result<int> Lookup(const std::string& path) const;
  Status SplitParent(const std::string& path, int* dir,
                     std::string* name) const;
  int NewInode(bool is_dir);
  void Truncated(Inode& file, size_t size);
  Resolved Resolve(const CutChoice& choice) const;
  void ResolveDir(int dir, const std::string& path, const CutChoice& choice,
                  const std::vector<int>& op_base, Resolved* out) const;

  mutable std::mutex mu_;
  std::vector<Inode> inodes_;  ///< inodes_[0] is "/".
  std::vector<Op> log_;
};

}  // namespace dexa

#endif  // DEXA_TESTS_POWER_CUT_ENV_H_
