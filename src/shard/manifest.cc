#include "shard/manifest.h"

#include <limits>

#include "common/strings.h"

namespace dexa {

namespace {

constexpr char kMagic[] = "DEXASHARD1";

Status Corrupt(const std::string& what) {
  return Status::Corrupted("shard manifest: " + what);
}

/// Consumes the next lf-terminated line; false when the input is exhausted.
bool NextLine(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    line = rest;
    rest = std::string_view();
  } else {
    line = rest.substr(0, nl);
    rest.remove_prefix(nl + 1);
  }
  return true;
}

/// Parses a `<keyword> <u64>` line.
bool KeyedU64(std::string_view line, std::string_view keyword, uint64_t& out) {
  if (line.size() <= keyword.size() + 1) return false;
  if (line.substr(0, keyword.size()) != keyword) return false;
  if (line[keyword.size()] != ' ') return false;
  return ParseU64(line.substr(keyword.size() + 1), &out);
}

}  // namespace

std::string EncodeShardManifest(const ShardManifest& manifest) {
  std::string out;
  out += kMagic;
  out += '\n';
  out += "shards " + std::to_string(manifest.shards) + "\n";
  out += "modules " + std::to_string(manifest.modules_total) + "\n";
  out += "fingerprint " + std::to_string(manifest.fingerprint) + "\n";
  out += "kb_checksum " + std::to_string(manifest.kb_checksum) + "\n";
  out += "salt " + std::to_string(manifest.partition_salt) + "\n";
  out += "segment_bytes " + std::to_string(manifest.segment_bytes) + "\n";
  for (size_t k = 0; k < manifest.entries.size(); ++k) {
    out += "entry " + std::to_string(k) + " " +
           std::to_string(manifest.entries[k].modules) + " " +
           std::to_string(manifest.entries[k].fingerprint) + "\n";
  }
  out += "end\n";
  return out;
}

Result<ShardManifest> DecodeShardManifest(std::string_view text) {
  // Canonical form is lf-terminated through the final `end` line; a cut
  // manifest must never look complete, so a missing trailing newline is
  // corruption, not grace.
  if (text.empty() || text.back() != '\n') {
    return Corrupt("not lf-terminated");
  }
  std::string_view rest = text;
  std::string_view line;
  if (!NextLine(rest, line) || line != kMagic) {
    return Corrupt("bad magic line");
  }
  ShardManifest m;
  uint64_t shards = 0;
  if (!NextLine(rest, line) || !KeyedU64(line, "shards", shards) ||
      shards == 0 || shards > std::numeric_limits<uint32_t>::max()) {
    return Corrupt("bad shards line");
  }
  m.shards = static_cast<uint32_t>(shards);
  if (!NextLine(rest, line) || !KeyedU64(line, "modules", m.modules_total)) {
    return Corrupt("bad modules line");
  }
  if (!NextLine(rest, line) || !KeyedU64(line, "fingerprint", m.fingerprint)) {
    return Corrupt("bad fingerprint line");
  }
  if (!NextLine(rest, line) || !KeyedU64(line, "kb_checksum", m.kb_checksum)) {
    return Corrupt("bad kb_checksum line");
  }
  if (!NextLine(rest, line) || !KeyedU64(line, "salt", m.partition_salt)) {
    return Corrupt("bad salt line");
  }
  if (!NextLine(rest, line) ||
      !KeyedU64(line, "segment_bytes", m.segment_bytes)) {
    return Corrupt("bad segment_bytes line");
  }
  m.entries.reserve(m.shards);
  uint64_t sum = 0;
  for (uint32_t k = 0; k < m.shards; ++k) {
    if (!NextLine(rest, line)) return Corrupt("truncated entry list");
    const std::vector<std::string> parts = Split(std::string(line), ' ');
    uint64_t index = 0;
    ShardManifestEntry entry;
    if (parts.size() != 4 || parts[0] != "entry" ||
        !ParseU64(parts[1], &index) || index != k ||
        !ParseU64(parts[2], &entry.modules) ||
        !ParseU64(parts[3], &entry.fingerprint)) {
      return Corrupt("bad entry line for shard " + std::to_string(k));
    }
    sum += entry.modules;
    m.entries.push_back(entry);
  }
  if (!NextLine(rest, line) || line != "end") return Corrupt("missing end");
  if (!rest.empty()) return Corrupt("trailing bytes after end");
  if (sum != m.modules_total) {
    return Corrupt("entry module counts sum to " + std::to_string(sum) +
                   ", header says " + std::to_string(m.modules_total));
  }
  return m;
}

std::string ShardManifestPath(const std::string& root) {
  return root + "/MANIFEST";
}

std::string ShardDir(const std::string& root, uint32_t shard) {
  return root + "/shard-" + std::to_string(shard);
}

std::string MergedDir(const std::string& root) { return root + "/merged"; }

Status WriteShardManifest(const std::string& root,
                          const ShardManifest& manifest, IoEnv* io) {
  IoEnv& env = io != nullptr ? *io : IoEnv::Real();
  DEXA_RETURN_IF_ERROR(CreateDurableDir(env, root));
  return WriteFileAtomic(env, ShardManifestPath(root),
                         EncodeShardManifest(manifest));
}

Result<ShardManifest> ReadShardManifest(const std::string& root, IoEnv* io) {
  IoEnv& env = io != nullptr ? *io : IoEnv::Real();
  auto text = env.ReadFile(ShardManifestPath(root));
  if (!text.ok()) return text.status();
  return DecodeShardManifest(*text);
}

}  // namespace dexa
