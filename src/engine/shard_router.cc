#include "engine/shard_router.h"

#include <algorithm>
#include <cstdio>

namespace blsm::engine {

namespace {

// Two-digit shard directory names keep GetChildren listings sorted in
// shard order for up to 100 shards (cosmetic, but inspection tools walk
// these directories).
std::string ShardDir(const std::string& dir, int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "/shard-%02d", i);
  return dir + buf;
}

}  // namespace

Status ShardRouter::Open(const kv::CommonOptions& options,
                         const std::string& engine_spec,
                         const std::string& dir, int shards,
                         std::unique_ptr<ShardRouter>* out) {
  if (shards < 1 || shards > 64) {
    return Status::InvalidArgument("shard count must be in [1, 64]");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (!options.read_only) {
    Status s = env->CreateDir(dir);
    if (!s.ok() && !env->FileExists(dir)) return s;
  }
  std::vector<std::unique_ptr<kv::Engine>> children;
  children.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; i++) {
    std::unique_ptr<kv::Engine> child;
    Status s = kv::Open(engine_spec, options, ShardDir(dir, i), &child);
    if (!s.ok()) {
      if (s.IsNotFound()) return s;  // unknown engine spec, as-is
      return Status::IOError("shard " + std::to_string(i) + ": " +
                             s.ToString());
    }
    children.push_back(std::move(child));
  }
  *out = std::unique_ptr<ShardRouter>(new ShardRouter(std::move(children)));
  return Status::OK();
}

std::string ShardRouter::Name() const {
  return "sharded[" + std::to_string(shards_.size()) + " x " +
         shards_[0]->Name() + "]";
}

Status ShardRouter::Put(const Slice& key, const Slice& value) {
  return shards_[static_cast<size_t>(ShardOf(key))]->Put(key, value);
}

std::vector<kv::WriteBatch> ShardRouter::SplitBatch(
    const kv::WriteBatch& batch) const {
  std::vector<kv::WriteBatch> split(shards_.size());
  for (const auto& e : batch.entries()) {
    kv::WriteBatch& dst = split[static_cast<size_t>(ShardOf(e.key))];
    switch (e.type) {
      case RecordType::kBase:
        dst.Put(e.key, e.value);
        break;
      case RecordType::kTombstone:
        dst.Delete(e.key);
        break;
      default:
        dst.Merge(e.key, e.value);
        break;
    }
  }
  return split;
}

Status ShardRouter::Write(const kv::WriteBatch& batch) {
  std::vector<kv::WriteBatch> split = SplitBatch(batch);
  for (size_t i = 0; i < split.size(); i++) {
    if (split[i].Empty()) continue;
    Status s = shards_[i]->Write(split[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardRouter::Get(const Slice& key, std::string* value) {
  return shards_[static_cast<size_t>(ShardOf(key))]->Get(key, value);
}

std::vector<Status> ShardRouter::MultiGet(const std::vector<Slice>& keys,
                                          std::vector<std::string>* values) {
  // Split by shard, keep each key's position, reassemble in caller order so
  // every shard still gets one genuinely batched MultiGet.
  std::vector<std::vector<Slice>> shard_keys(shards_.size());
  std::vector<std::vector<size_t>> shard_pos(shards_.size());
  for (size_t i = 0; i < keys.size(); i++) {
    size_t sh = static_cast<size_t>(ShardOf(keys[i]));
    shard_keys[sh].push_back(keys[i]);
    shard_pos[sh].push_back(i);
  }
  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size());
  for (size_t sh = 0; sh < shards_.size(); sh++) {
    if (shard_keys[sh].empty()) continue;
    std::vector<std::string> vals;
    std::vector<Status> sts = shards_[sh]->MultiGet(shard_keys[sh], &vals);
    for (size_t j = 0; j < shard_pos[sh].size(); j++) {
      statuses[shard_pos[sh][j]] = sts[j];
      (*values)[shard_pos[sh][j]] = std::move(vals[j]);
    }
  }
  return statuses;
}

Status ShardRouter::Delete(const Slice& key) {
  return shards_[static_cast<size_t>(ShardOf(key))]->Delete(key);
}

Status ShardRouter::InsertIfNotExists(const Slice& key, const Slice& value) {
  return shards_[static_cast<size_t>(ShardOf(key))]->InsertIfNotExists(key,
                                                                       value);
}

Status ShardRouter::ReadModifyWrite(
    const Slice& key,
    const std::function<std::string(const std::string& old, bool absent)>&
        update) {
  return shards_[static_cast<size_t>(ShardOf(key))]->ReadModifyWrite(key,
                                                                     update);
}

Status ShardRouter::Scan(
    const kv::ReadOptions& options, const Slice& start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  // Hash partitioning scatters every key range across all shards, so a scan
  // is a fan-out: each shard returns its first `limit` keys >= start, and a
  // k-way merge of the (sorted) partial results keeps the global first
  // `limit`.
  out->clear();
  std::vector<std::vector<std::pair<std::string, std::string>>> parts(
      shards_.size());
  for (size_t sh = 0; sh < shards_.size(); sh++) {
    Status s = shards_[sh]->Scan(options, start, limit, &parts[sh]);
    if (!s.ok()) return s;
  }
  std::vector<size_t> cursor(shards_.size(), 0);
  while (out->size() < limit) {
    int best = -1;
    for (size_t sh = 0; sh < parts.size(); sh++) {
      if (cursor[sh] >= parts[sh].size()) continue;
      if (best < 0 || parts[sh][cursor[sh]].first <
                          parts[static_cast<size_t>(best)]
                               [cursor[static_cast<size_t>(best)]]
                                   .first) {
        best = static_cast<int>(sh);
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    out->push_back(std::move(parts[b][cursor[b]]));
    cursor[b]++;
  }
  return Status::OK();
}

Status ShardRouter::Flush() {
  for (auto& sh : shards_) {
    Status s = sh->Flush();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void ShardRouter::WaitIdle() {
  for (auto& sh : shards_) sh->WaitIdle();
}

Status ShardRouter::BackgroundError() const {
  for (const auto& sh : shards_) {
    Status s = sh->BackgroundError();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

std::map<std::string, uint64_t> ShardRouter::Stats() const {
  std::map<std::string, uint64_t> total;
  for (const auto& sh : shards_) {
    for (const auto& [key, value] : sh->Stats()) {
      if (key == "compaction.policy") {
        total[key] = value;  // identical across shards; summing would lie
      } else if (key == "write.max_stall_micros") {
        total[key] = std::max(total[key], value);  // longest single stall
      } else {
        total[key] += value;
      }
    }
  }
  total["shards"] = static_cast<uint64_t>(shards_.size());
  return total;
}

}  // namespace blsm::engine
