#include "common/io_env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/rng.h"

namespace dexa {

namespace fs = std::filesystem;

namespace {

/// Maps an errno from the data plane onto the typed taxonomy documented in
/// io_env.h. The journal and snapshot layers dispatch on these codes (never
/// on messages), so the mapping here is the contract.
Status StatusFromErrno(const char* op, const std::string& path, int err) {
  const std::string detail = std::string(op) + " '" + path +
                             "' failed: " + std::strerror(err);
  switch (err) {
    case ENOSPC:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return Status::ResourceExhausted(detail);
    case EIO:
      return Status::Corrupted(detail);
    case ENOENT:
      return Status::NotFound(detail);
    default:
      return Status::Internal(detail);
  }
}

/// POSIX-fd writable file. A short write(2) — real ENOSPC reports the
/// partial byte count before failing — surfaces as the typed error of the
/// *next* attempt's errno, with the prefix already durable on disk, which
/// is exactly the torn-tail shape the CRC'd journal recovery expects.
class RealWritableFile final : public WritableIoFile {
 public:
  RealWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~RealWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::Internal("append to closed file '" + path_ + "'");
    size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return StatusFromErrno("write", path_, errno);
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::Internal("sync of closed file '" + path_ + "'");
    if (::fsync(fd_) != 0) return StatusFromErrno("fsync", path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return StatusFromErrno("close", path_, errno);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class RealIoEnv final : public IoEnv {
 public:
  Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override {
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) return StatusFromErrno("open", path, errno);
    return std::unique_ptr<WritableIoFile>(
        std::make_unique<RealWritableFile>(fd, path));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return StatusFromErrno("open", path, errno);
    std::string out;
    char buffer[1 << 16];
    while (true) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        return StatusFromErrno("read", path, err);
      }
      if (n == 0) break;
      out.append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  Result<MmapRegion> MapReadOnly(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return StatusFromErrno("open", path, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return StatusFromErrno("fstat", path, err);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
      ::close(fd);
      return MmapRegion();  // mmap(0) is EINVAL; an empty region is valid.
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    const int err = errno;
    ::close(fd);
    if (map == MAP_FAILED) return StatusFromErrno("mmap", path, err);
    return MmapRegion(map, size, /*unmap=*/true);
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return StatusFromErrno("rename", from, errno);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return StatusFromErrno("unlink", path, errno);
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return StatusFromErrno("open", path, errno);
    const char* failed = nullptr;
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      failed = "truncate";
    } else if (::fsync(fd) != 0) {
      failed = "fsync";
    }
    const int err = errno;
    ::close(fd);
    if (failed != nullptr) return StatusFromErrno(failed, path, err);
    return Status::OK();
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("cannot create directory '" + dir +
                              "': " + ec.message());
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0777) == 0) return Status::OK();
    const int err = errno;
    struct stat st;
    if (err == EEXIST && ::stat(dir.c_str(), &st) == 0 &&
        S_ISDIR(st.st_mode)) {
      return Status::AlreadyExists("directory '" + dir + "' exists");
    }
    return StatusFromErrno("mkdir", dir, err);
  }

  Result<std::vector<DirEntry>> ListDir(const std::string& dir) override {
    DIR* handle = ::opendir(dir.c_str());
    if (handle == nullptr) {
      const int err = errno;
      if (err == ENOTDIR) {
        return Status::NotFound("'" + dir + "' is not a directory");
      }
      return StatusFromErrno("opendir", dir, err);
    }
    std::vector<DirEntry> entries;
    while (true) {
      errno = 0;
      const dirent* raw = ::readdir(handle);
      if (raw == nullptr) break;
      DirEntry entry;
      entry.name = raw->d_name;
      if (entry.name == "." || entry.name == "..") continue;
      struct stat st;
      if (::fstatat(::dirfd(handle), raw->d_name, &st, 0) == 0) {
        entry.is_dir = S_ISDIR(st.st_mode);
        if (!entry.is_dir) entry.size = static_cast<uint64_t>(st.st_size);
      } else if (errno != ENOENT) {
        // ENOENT is a dangling symlink (or an entry removed since readdir):
        // an empty non-directory, as std::filesystem classifies it.
        const int err = errno;
        ::closedir(handle);
        return StatusFromErrno("stat", JoinPath(dir, entry.name), err);
      }
      entries.push_back(std::move(entry));
    }
    const int err = errno;
    ::closedir(handle);
    if (err != 0) return StatusFromErrno("readdir", dir, err);
    std::sort(entries.begin(), entries.end(),
              [](const DirEntry& a, const DirEntry& b) {
                return a.name < b.name;
              });
    return entries;
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOTDIR) {
        return Status::NotFound("'" + dir + "' is not a directory");
      }
      return StatusFromErrno("open directory", dir, errno);
    }
    const int synced = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    if (synced != 0) return StatusFromErrno("fsync directory", dir, err);
    return Status::OK();
  }
};

/// Wraps a base WritableIoFile and routes every Append/Sync through the
/// owning FaultyIoEnv's fate machine. On a faulting write with short_writes
/// armed, the decided prefix lands (and is synced best-effort) before the
/// typed error returns — leaving the torn frame on disk for recovery to
/// find.
class FaultyWritableFile final : public WritableIoFile {
 public:
  FaultyWritableFile(FaultyIoEnv* parent,
                     std::unique_ptr<WritableIoFile> inner)
      : parent_(parent), inner_(std::move(inner)) {}

  Status Append(std::string_view data) override {
    size_t short_bytes = 0;
    Status fate = parent_->NextWriteFate(data.size(), &short_bytes);
    if (!fate.ok()) {
      if (short_bytes > 0) {
        // Land the torn prefix; its own failure is subsumed by the injected
        // fault already being returned.
        (void)inner_->Append(data.substr(0, short_bytes));
        (void)inner_->Sync();
      }
      return fate;
    }
    return inner_->Append(data);
  }

  Status Sync() override {
    DEXA_RETURN_IF_ERROR(parent_->NextSyncFate());
    return inner_->Sync();
  }

  Status Close() override { return inner_->Close(); }

 private:
  FaultyIoEnv* parent_;
  std::unique_ptr<WritableIoFile> inner_;
};

}  // namespace

// -- MmapRegion -------------------------------------------------------

MmapRegion::MmapRegion(void* data, size_t size, bool unmap)
    : data_(data), size_(size), unmap_(unmap) {}

MmapRegion::~MmapRegion() { Release(); }

MmapRegion::MmapRegion(MmapRegion&& other) noexcept
    : data_(other.data_), size_(other.size_), unmap_(other.unmap_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapRegion& MmapRegion::operator=(MmapRegion&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    unmap_ = other.unmap_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MmapRegion::Release() {
  if (data_ == nullptr) return;
  if (unmap_) {
    ::munmap(data_, size_);
  } else {
    delete[] static_cast<char*>(data_);
  }
  data_ = nullptr;
  size_ = 0;
}

// -- IoEnv ------------------------------------------------------------

std::string JoinPath(std::string_view dir, std::string_view name) {
  std::string path(dir);
  if (!path.empty() && path.back() != '/') path += '/';
  path += name;
  return path;
}

IoEnv& IoEnv::Real() {
  static RealIoEnv real;
  return real;
}

std::string ParentDir(std::string_view path) {
  while (path.size() > 1 && path.back() == '/') path.remove_suffix(1);
  const size_t slash = path.rfind('/');
  if (slash == std::string_view::npos) return ".";
  if (slash == 0) return "/";
  return std::string(path.substr(0, slash));
}

Result<std::vector<DirEntry>> IoEnv::ListDir(const std::string& dir) {
  return Real().ListDir(dir);
}

Status IoEnv::CreateDir(const std::string& dir) {
  return Real().CreateDir(dir);
}

Status IoEnv::SyncDir(const std::string& dir) { return Real().SyncDir(dir); }

Status WriteFileAtomic(IoEnv& io, const std::string& path,
                       const std::string& content) {
  const std::string tmp = path + ".tmp";
  auto file = io.NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  Status written = (*file)->Append(content);
  if (written.ok()) written = (*file)->Sync();
  if (written.ok()) written = (*file)->Close();
  if (!written.ok()) {
    (void)io.RemoveFile(tmp);  // best-effort: the typed write error wins.
    return written;
  }
  Status renamed = io.Rename(tmp, path);
  if (!renamed.ok()) {
    (void)io.RemoveFile(tmp);
    return renamed;
  }
  return io.SyncDir(ParentDir(path));
}

Status CreateDurableDir(IoEnv& io, const std::string& dir) {
  const std::string parent = ParentDir(dir);
  Status created = io.CreateDir(dir);
  if (created.IsNotFound() && parent != dir) {
    // A missing parent is created first, the same way, so its entry is
    // durable before `dir`'s lands in it.
    DEXA_RETURN_IF_ERROR(CreateDurableDir(io, parent));
    created = io.CreateDir(dir);
  }
  if (!created.ok() && !created.IsAlreadyExists()) return created;
  return io.SyncDir(parent);
}

// -- FaultyIoEnv ------------------------------------------------------

FaultyIoEnv::FaultyIoEnv(IoFaultProfile profile, IoEnv* base)
    : profile_(profile),
      base_(base != nullptr ? base : &IoEnv::Real()),
      rng_state_(profile.seed) {}

Status FaultyIoEnv::NextWriteFate(size_t size, size_t* short_bytes) {
  *short_bytes = 0;
  ++writes_;
  if (profile_.enospc_after_bytes != 0 &&
      bytes_accepted_ + size > profile_.enospc_after_bytes) {
    const size_t room = profile_.enospc_after_bytes > bytes_accepted_
                            ? profile_.enospc_after_bytes - bytes_accepted_
                            : 0;
    if (profile_.short_writes) *short_bytes = room;
    bytes_accepted_ += *short_bytes;
    ++faults_injected_;
    return Status::ResourceExhausted(
        "injected ENOSPC: disk full after " +
        std::to_string(profile_.enospc_after_bytes) + " bytes (write #" +
        std::to_string(writes_) + ")");
  }
  bool eio = profile_.eio_write_at != 0 && writes_ == profile_.eio_write_at;
  if (!eio && profile_.write_fault_rate > 0.0) {
    Rng draw(SplitMix64(rng_state_));
    eio = draw.NextBool(profile_.write_fault_rate);
  }
  if (eio) {
    if (profile_.short_writes && size > 0) {
      Rng draw(SplitMix64(rng_state_));
      *short_bytes = draw.NextIndex(size);
    }
    bytes_accepted_ += *short_bytes;
    ++faults_injected_;
    return Status::Corrupted("injected EIO on write #" +
                             std::to_string(writes_));
  }
  bytes_accepted_ += size;
  return Status::OK();
}

Status FaultyIoEnv::NextSyncFate() {
  ++syncs_;
  if (profile_.fsync_fail_at != 0 && syncs_ == profile_.fsync_fail_at) {
    ++faults_injected_;
    return Status::Corrupted("injected fsync failure on sync #" +
                             std::to_string(syncs_) +
                             ": buffered bytes in unknown state");
  }
  return Status::OK();
}

Status FaultyIoEnv::NextReadFate(const std::string& path) {
  ++reads_;
  if (profile_.eio_read_at != 0 && reads_ == profile_.eio_read_at) {
    ++faults_injected_;
    return Status::Corrupted("injected EIO reading '" + path + "' (read #" +
                             std::to_string(reads_) + ")");
  }
  return Status::OK();
}

Result<std::unique_ptr<WritableIoFile>> FaultyIoEnv::NewWritableFile(
    const std::string& path) {
  auto inner = base_->NewWritableFile(path);
  if (!inner.ok()) return inner.status();
  return std::unique_ptr<WritableIoFile>(
      std::make_unique<FaultyWritableFile>(this, std::move(*inner)));
}

Result<std::string> FaultyIoEnv::ReadFile(const std::string& path) {
  DEXA_RETURN_IF_ERROR(NextReadFate(path));
  return base_->ReadFile(path);
}

Result<MmapRegion> FaultyIoEnv::MapReadOnly(const std::string& path) {
  DEXA_RETURN_IF_ERROR(NextReadFate(path));
  return base_->MapReadOnly(path);
}

Status FaultyIoEnv::Rename(const std::string& from, const std::string& to) {
  ++renames_;
  if (profile_.rename_fail_at != 0 && renames_ == profile_.rename_fail_at) {
    ++faults_injected_;
    return Status::ResourceExhausted("injected ENOSPC renaming '" + from +
                                     "' over '" + to + "' (rename #" +
                                     std::to_string(renames_) + ")");
  }
  return base_->Rename(from, to);
}

Status FaultyIoEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status FaultyIoEnv::Truncate(const std::string& path, uint64_t size) {
  DEXA_RETURN_IF_ERROR(base_->Truncate(path, size));
  return NextSyncFate();
}

Status FaultyIoEnv::CreateDirs(const std::string& dir) {
  return base_->CreateDirs(dir);
}

Status FaultyIoEnv::CreateDir(const std::string& dir) {
  return base_->CreateDir(dir);
}

Result<std::vector<DirEntry>> FaultyIoEnv::ListDir(const std::string& dir) {
  return base_->ListDir(dir);
}

Status FaultyIoEnv::SyncDir(const std::string& dir) {
  DEXA_RETURN_IF_ERROR(NextSyncFate());
  return base_->SyncDir(dir);
}

}  // namespace dexa
