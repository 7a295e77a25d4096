#include "tests/power_cut_env.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/strings.h"

namespace dexa {

namespace {

/// The components of an absolute path; "" and "." components are skipped.
Result<std::vector<std::string>> Components(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("'" + path + "' is not an absolute path");
  }
  std::vector<std::string> parts;
  for (std::string& part : Split(path, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      return Status::InvalidArgument("'" + path + "' climbs with '..'");
    }
    parts.push_back(std::move(part));
  }
  return parts;
}

/// A handle NewWritableFile returns: appends and syncs go to its inode.
class PowerCutFile final : public WritableIoFile {
 public:
  PowerCutFile(PowerCutIoEnv* env, int inode, std::string path)
      : env_(env), inode_(inode), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    if (closed_) return Status::Internal("append to closed '" + path_ + "'");
    return env_->AppendTo(inode_, path_, data);
  }
  Status Sync() override {
    if (closed_) return Status::Internal("sync of closed '" + path_ + "'");
    return env_->SyncFile(inode_, path_);
  }
  Status Close() override {
    closed_ = true;
    return Status::OK();
  }

 private:
  PowerCutIoEnv* env_;
  int inode_;
  std::string path_;
  bool closed_ = false;
};

}  // namespace

std::string PowerCutIoEnv::Op::Describe() const {
  switch (kind) {
    case kCreateFile:
      return "create " + path;
    case kAppend:
      return "append " + std::to_string(data.size()) + " B to " + path;
    case kSync:
      return "sync " + path;
    case kRename:
      return "rename " + path + " -> " + to;
    case kRemove:
      return "remove " + path;
    case kTruncate:
      return "truncate " + path + " to " + std::to_string(size) + " B";
    case kCreateDirs:
      return "mkdir -p " + path;
    case kCreateDir:
      return "mkdir " + path;
    case kSyncDir:
      return "sync directory " + path;
  }
  return "?";
}

std::string PowerCutIoEnv::CutChoice::Describe() const {
  std::string out = std::string("file bytes ") +
                    (files_durable ? "synced only" : "all kept") +
                    ", directory entries " +
                    (dirs_durable ? "synced only" : "all kept");
  if (cut_inode >= 0) {
    out += ", inode " + std::to_string(cut_inode) + " cut at " +
           std::to_string(cut_at) + " B";
  }
  if (toggled_op >= 0) {
    out += ", pending directory op #" + std::to_string(toggled_op) +
           (dirs_durable ? " applied" : " dropped");
  }
  return out;
}

PowerCutIoEnv::PowerCutIoEnv() { NewInode(/*is_dir=*/true); }

int PowerCutIoEnv::NewInode(bool is_dir) {
  inodes_.emplace_back();
  inodes_.back().is_dir = is_dir;
  return static_cast<int>(inodes_.size()) - 1;
}

void PowerCutIoEnv::MakeDurableDirs(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  auto parts = Components(dir);
  if (!parts.ok()) return;
  int at = 0;
  for (const std::string& part : *parts) {
    auto found = inodes_[at].entries.find(part);
    int next = found == inodes_[at].entries.end() ? -1 : found->second;
    if (next < 0) {
      next = NewInode(/*is_dir=*/true);
      inodes_[at].entries[part] = next;
      inodes_[at].durable_entries[part] = next;
    }
    at = next;
  }
}

std::vector<PowerCutIoEnv::Op> PowerCutIoEnv::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

Result<int> PowerCutIoEnv::Lookup(const std::string& path) const {
  DEXA_ASSIGN_OR_RETURN(const std::vector<std::string> parts,
                        Components(path));
  int at = 0;
  for (const std::string& part : parts) {
    if (!inodes_[at].is_dir) {
      return Status::NotFound("'" + path + "': a component is a file");
    }
    auto found = inodes_[at].entries.find(part);
    if (found == inodes_[at].entries.end()) {
      return Status::NotFound("'" + path + "' does not exist");
    }
    at = found->second;
  }
  return at;
}

Status PowerCutIoEnv::SplitParent(const std::string& path, int* dir,
                                  std::string* name) const {
  DEXA_ASSIGN_OR_RETURN(std::vector<std::string> parts, Components(path));
  if (parts.empty()) return Status::InvalidArgument("'/' has no parent");
  *name = std::move(parts.back());
  parts.pop_back();
  std::string parent;
  for (const std::string& part : parts) parent += "/" + part;
  DEXA_ASSIGN_OR_RETURN(*dir, Lookup(parent.empty() ? "/" : parent));
  if (!inodes_[*dir].is_dir) {
    return Status::NotFound("parent of '" + path + "' is not a directory");
  }
  return Status::OK();
}

void PowerCutIoEnv::Truncated(Inode& file, size_t size) {
  file.data.resize(size);
  ++file.epoch;
  file.volatile_start = size;
  file.volatile_ends.clear();
  file.append_ends.erase(
      std::remove_if(file.append_ends.begin(), file.append_ends.end(),
                     [&](size_t end) { return end > size; }),
      file.append_ends.end());
}

Status PowerCutIoEnv::Perform(const Op& op, int* created) {
  switch (op.kind) {
    case Op::kCreateFile: {
      int dir = 0;
      std::string name;
      DEXA_RETURN_IF_ERROR(SplitParent(op.path, &dir, &name));
      auto found = inodes_[dir].entries.find(name);
      if (found != inodes_[dir].entries.end()) {
        Inode& file = inodes_[found->second];
        if (file.is_dir) {
          return Status::Internal("'" + op.path + "' is a directory");
        }
        Truncated(file, 0);  // O_TRUNC keeps the inode.
        if (created != nullptr) *created = found->second;
        return Status::OK();
      }
      const int inode = NewInode(/*is_dir=*/false);
      inodes_[dir].entries[name] = inode;
      inodes_[dir].pending.push_back({DirOp::kLink, name, "", inode});
      if (created != nullptr) *created = inode;
      return Status::OK();
    }
    case Op::kAppend: {
      Inode& file = inodes_[static_cast<size_t>(op.inode)];
      file.data += op.data;
      file.volatile_ends.push_back(file.data.size());
      file.append_ends.push_back(file.data.size());
      return Status::OK();
    }
    case Op::kSync: {
      Inode& file = inodes_[static_cast<size_t>(op.inode)];
      file.durable = file.data;
      file.durable_epoch = file.epoch;
      file.volatile_start = file.data.size();
      file.volatile_ends.clear();
      return Status::OK();
    }
    case Op::kRename: {
      int from_dir = 0, to_dir = 0;
      std::string from_name, to_name;
      DEXA_RETURN_IF_ERROR(SplitParent(op.path, &from_dir, &from_name));
      DEXA_RETURN_IF_ERROR(SplitParent(op.to, &to_dir, &to_name));
      if (from_dir != to_dir) {
        return Status::Internal("cross-directory rename of '" + op.path +
                                "' is not modelled");
      }
      Inode& dir = inodes_[from_dir];
      auto from = dir.entries.find(from_name);
      if (from == dir.entries.end()) {
        return Status::NotFound("rename source '" + op.path +
                                "' does not exist");
      }
      auto target = dir.entries.find(to_name);
      if (target != dir.entries.end() && inodes_[target->second].is_dir) {
        return Status::Internal("rename target '" + op.to +
                                "' is a directory");
      }
      const int inode = from->second;
      dir.entries.erase(from);
      dir.entries[to_name] = inode;
      dir.pending.push_back({DirOp::kRename, from_name, to_name, -1});
      return Status::OK();
    }
    case Op::kRemove: {
      int dir = 0;
      std::string name;
      DEXA_RETURN_IF_ERROR(SplitParent(op.path, &dir, &name));
      auto found = inodes_[dir].entries.find(name);
      if (found == inodes_[dir].entries.end()) return Status::OK();
      if (inodes_[found->second].is_dir) {
        return Status::Internal("'" + op.path + "' is a directory");
      }
      inodes_[dir].entries.erase(found);
      inodes_[dir].pending.push_back({DirOp::kUnlink, name, "", -1});
      return Status::OK();
    }
    case Op::kTruncate: {
      DEXA_ASSIGN_OR_RETURN(const int inode, Lookup(op.path));
      Inode& file = inodes_[inode];
      if (file.is_dir || op.size > file.data.size()) {
        return Status::Internal("cannot truncate '" + op.path + "' to " +
                                std::to_string(op.size) + " B");
      }
      Truncated(file, op.size);
      file.durable = file.data;  // Truncate syncs before it returns.
      file.durable_epoch = file.epoch;
      return Status::OK();
    }
    case Op::kCreateDirs: {
      DEXA_ASSIGN_OR_RETURN(const std::vector<std::string> parts,
                            Components(op.path));
      int at = 0;
      for (const std::string& part : parts) {
        auto found = inodes_[at].entries.find(part);
        if (found != inodes_[at].entries.end()) {
          if (!inodes_[found->second].is_dir) {
            return Status::Internal("cannot create directory '" + op.path +
                                    "': '" + part + "' is a file");
          }
          at = found->second;
          continue;
        }
        const int next = NewInode(/*is_dir=*/true);
        inodes_[at].entries[part] = next;
        inodes_[at].pending.push_back({DirOp::kLink, part, "", next});
        at = next;
      }
      return Status::OK();
    }
    case Op::kCreateDir: {
      int dir = 0;
      std::string name;
      DEXA_RETURN_IF_ERROR(SplitParent(op.path, &dir, &name));
      auto found = inodes_[dir].entries.find(name);
      if (found != inodes_[dir].entries.end()) {
        if (!inodes_[found->second].is_dir) {
          return Status::Internal("cannot create directory '" + op.path +
                                  "': it is a file");
        }
        return Status::AlreadyExists("'" + op.path + "' exists");
      }
      const int next = NewInode(/*is_dir=*/true);
      inodes_[dir].entries[name] = next;
      inodes_[dir].pending.push_back({DirOp::kLink, name, "", next});
      return Status::OK();
    }
    case Op::kSyncDir: {
      DEXA_ASSIGN_OR_RETURN(const int inode, Lookup(op.path));
      Inode& dir = inodes_[inode];
      if (!dir.is_dir) {
        return Status::NotFound("'" + op.path + "' is not a directory");
      }
      dir.durable_entries = dir.entries;
      dir.pending.clear();
      return Status::OK();
    }
  }
  return Status::Internal("unknown operation");
}

void PowerCutIoEnv::Apply(const Op& op) {
  std::lock_guard<std::mutex> lock(mu_);
  int created = -1;
  const Status applied = Perform(op, &created);
  if (!applied.ok() ||
      (op.kind == Op::kCreateFile && created != op.inode)) {
    // A replay diverged from the run it replays: the checker's own bug.
    std::abort();
  }
  log_.push_back(op);
}

// -- IoEnv --------------------------------------------------------------

Result<std::unique_ptr<WritableIoFile>> PowerCutIoEnv::NewWritableFile(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kCreateFile;
  op.path = path;
  DEXA_RETURN_IF_ERROR(Perform(op, &op.inode));
  const int inode = op.inode;
  log_.push_back(std::move(op));
  return std::unique_ptr<WritableIoFile>(
      std::make_unique<PowerCutFile>(this, inode, path));
}

Status PowerCutIoEnv::AppendTo(int inode, const std::string& path,
                               std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kAppend;
  op.path = path;
  op.inode = inode;
  op.data = std::string(data);
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Status PowerCutIoEnv::SyncFile(int inode, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kSync;
  op.path = path;
  op.inode = inode;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Result<std::string> PowerCutIoEnv::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  DEXA_ASSIGN_OR_RETURN(const int inode, Lookup(path));
  if (inodes_[inode].is_dir) {
    return Status::Internal("read '" + path + "': is a directory");
  }
  return inodes_[inode].data;
}

Result<MmapRegion> PowerCutIoEnv::MapReadOnly(const std::string& path) {
  DEXA_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(path));
  if (bytes.empty()) return MmapRegion();
  char* copy = new char[bytes.size()];
  std::memcpy(copy, bytes.data(), bytes.size());
  return MmapRegion(copy, bytes.size(), /*unmap=*/false);
}

Status PowerCutIoEnv::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kRename;
  op.path = from;
  op.to = to;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Status PowerCutIoEnv::RemoveFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kRemove;
  op.path = path;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Status PowerCutIoEnv::Truncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kTruncate;
  op.path = path;
  op.size = size;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Status PowerCutIoEnv::CreateDirs(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kCreateDirs;
  op.path = dir;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Status PowerCutIoEnv::CreateDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kCreateDir;
  op.path = dir;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

Result<std::vector<DirEntry>> PowerCutIoEnv::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  DEXA_ASSIGN_OR_RETURN(const int inode, Lookup(dir));
  if (!inodes_[inode].is_dir) {
    return Status::NotFound("'" + dir + "' is not a directory");
  }
  std::vector<DirEntry> entries;
  for (const auto& [name, child] : inodes_[inode].entries) {
    DirEntry entry;
    entry.name = name;
    entry.is_dir = inodes_[child].is_dir;
    if (!entry.is_dir) entry.size = inodes_[child].data.size();
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status PowerCutIoEnv::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  Op op;
  op.kind = Op::kSyncDir;
  op.path = dir;
  DEXA_RETURN_IF_ERROR(Perform(op));
  log_.push_back(std::move(op));
  return Status::OK();
}

// -- Power cuts -----------------------------------------------------------

std::vector<PowerCutIoEnv::CutChoice> PowerCutIoEnv::CutChoices() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CutChoice> choices;
  for (const bool files_durable : {false, true}) {
    for (const bool dirs_durable : {false, true}) {
      CutChoice corner;
      corner.files_durable = files_durable;
      corner.dirs_durable = dirs_durable;
      choices.push_back(corner);
    }
  }
  for (size_t i = 0; i < inodes_.size(); ++i) {
    const Inode& file = inodes_[i];
    if (file.is_dir || file.volatile_ends.empty()) continue;
    std::vector<size_t> points = {file.volatile_start};
    points.insert(points.end(), file.volatile_ends.begin(),
                  file.volatile_ends.end() - 1);
    const size_t last_start = file.volatile_ends.size() > 1
                                  ? file.volatile_ends[file.volatile_ends.size() - 2]
                                  : file.volatile_start;
    if (file.data.size() - last_start >= 2) {
      points.push_back(last_start + (file.data.size() - last_start) / 2);
    }
    for (const size_t at : points) {
      CutChoice cut;
      cut.cut_inode = static_cast<int>(i);
      cut.cut_at = at;
      choices.push_back(cut);
    }
  }
  int pending = 0;
  for (const Inode& dir : inodes_) pending += static_cast<int>(dir.pending.size());
  for (int g = 0; g < pending; ++g) {
    for (const bool dirs_durable : {false, true}) {
      CutChoice toggle;
      toggle.files_durable = dirs_durable;
      toggle.dirs_durable = dirs_durable;
      toggle.toggled_op = g;
      choices.push_back(toggle);
    }
  }
  return choices;
}

void PowerCutIoEnv::ResolveDir(int dir, const std::string& path,
                               const CutChoice& choice,
                               const std::vector<int>& op_base,
                               Resolved* out) const {
  out->dirs.push_back(path);
  const Inode& node = inodes_[dir];
  std::map<std::string, int> entries = node.durable_entries;
  for (size_t j = 0; j < node.pending.size(); ++j) {
    const bool toggled =
        op_base[dir] + static_cast<int>(j) == choice.toggled_op;
    if (choice.dirs_durable != toggled) continue;  // Not applied.
    const DirOp& op = node.pending[j];
    switch (op.kind) {
      case DirOp::kLink:
        entries[op.name] = op.inode;
        break;
      case DirOp::kUnlink:
        entries.erase(op.name);
        break;
      case DirOp::kRename: {
        auto from = entries.find(op.name);
        if (from == entries.end()) break;  // Its create did not survive.
        const int inode = from->second;
        entries.erase(from);
        entries[op.to] = inode;
        break;
      }
    }
  }
  for (const auto& [name, child] : entries) {
    const std::string child_path = JoinPath(path, name);
    const Inode& target = inodes_[child];
    if (target.is_dir) {
      ResolveDir(child, child_path, choice, op_base, out);
      continue;
    }
    FileRef ref;
    ref.inode = child;
    if (child == choice.cut_inode) {
      ref.epoch = target.epoch;
      ref.length = std::min(choice.cut_at, target.data.size());
    } else if (choice.files_durable) {
      ref.epoch = target.durable_epoch;
      ref.length = target.durable.size();
      ref.from_durable = true;
    } else {
      ref.epoch = target.epoch;
      ref.length = target.data.size();
    }
    out->files[child_path] = ref;
  }
}

PowerCutIoEnv::Resolved PowerCutIoEnv::Resolve(const CutChoice& choice) const {
  std::vector<int> op_base(inodes_.size(), 0);
  int next = 0;
  for (size_t i = 0; i < inodes_.size(); ++i) {
    op_base[i] = next;
    next += static_cast<int>(inodes_[i].pending.size());
  }
  Resolved resolved;
  ResolveDir(0, "/", choice, op_base, &resolved);
  return resolved;
}

std::string PowerCutIoEnv::Signature(const CutChoice& choice) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Resolved resolved = Resolve(choice);
  std::string key;
  for (const std::string& dir : resolved.dirs) key += "d " + dir + "\n";
  for (const auto& [path, ref] : resolved.files) {
    key += "f " + path + " " + std::to_string(ref.inode) + " " +
           std::to_string(ref.epoch) + " " + std::to_string(ref.length) +
           "\n";
  }
  return key;
}

std::unique_ptr<PowerCutIoEnv> PowerCutIoEnv::Crash(
    const CutChoice& choice) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Resolved resolved = Resolve(choice);
  auto crashed = std::make_unique<PowerCutIoEnv>();
  for (const std::string& dir : resolved.dirs) crashed->MakeDurableDirs(dir);
  for (const auto& [path, ref] : resolved.files) {
    const Inode& source = inodes_[ref.inode];
    const std::string& bytes = ref.from_durable ? source.durable : source.data;
    int dir = 0;
    std::string name;
    if (!crashed->SplitParent(path, &dir, &name).ok()) std::abort();
    const int inode = crashed->NewInode(/*is_dir=*/false);
    Inode& file = crashed->inodes_[inode];
    file.data = bytes.substr(0, ref.length);
    file.durable = file.data;
    file.volatile_start = file.data.size();
    crashed->inodes_[dir].entries[name] = inode;
    crashed->inodes_[dir].durable_entries[name] = inode;
  }
  return crashed;
}

size_t PowerCutIoEnv::AcknowledgedRecords(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto inode = Lookup(dir);
  if (!inode.ok() || !inodes_[*inode].is_dir) return 0;
  size_t records = 0;
  for (const auto& [name, child] : inodes_[*inode].entries) {
    const Inode& file = inodes_[child];
    if (file.is_dir || !StartsWith(name, "wal-") || !EndsWith(name, ".seg")) {
      continue;
    }
    const size_t synced =
        file.durable_epoch == file.epoch ? file.durable.size() : 0;
    const size_t appends = static_cast<size_t>(
        std::count_if(file.append_ends.begin(), file.append_ends.end(),
                      [&](size_t end) { return end <= synced; }));
    if (appends > 1) records += appends - 1;  // The first is the header.
  }
  return records;
}

}  // namespace dexa
