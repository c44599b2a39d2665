// Background work for the multilevel (LevelDB stand-in) tree: memtable
// flushes into L0 runs, plus execution of whatever the configured
// engine::CompactionPolicy picks. Every *decision* — trigger, data layout,
// granularity, data movement — lives in the policy layer
// (engine/compaction_policy.h); this file only snapshots the tree state into
// CompactionInputs and executes the returned pick. Under the default
// leveling policy this reproduces the paper's "partition scheduler" (§3.2,
// §4) bit for bit: merges proceed in small units, but nothing paces the
// application against merge backlog except the L0 slowdown/stop triggers, so
// saturating writers see throughput collapses and pauses (Figure 7 right).

#include <algorithm>
#include <chrono>

#include "lsm/collapse.h"
#include "lsm/merge_iterator.h"
#include "multilevel/multilevel_tree.h"
#include "sstree/tree_builder.h"

namespace blsm::multilevel {

namespace {

std::string TreeFileName(const std::string& dir, uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%06llu.run",
           static_cast<unsigned long long>(number));
  return dir + buf;
}

std::string ManifestName(const std::string& dir) { return dir + "/CURRENT"; }

// Sort key for non-overlapping levels.
bool BySmallest(const FileMetaPtr& a, const FileMetaPtr& b) {
  return Slice(a->smallest) < Slice(b->smallest);
}

// Tiered outputs are written as one run regardless of size (run == file,
// stacked newest first like L0); the same cap keeps a memtable flush to one
// L0 run.
constexpr size_t kSingleRunCap = ~size_t{0} >> 1;

}  // namespace

std::string MultilevelTree::BuildManifestLocked(uint64_t* version) {
  ManifestData data;
  data.next_file_number = next_file_number_;
  data.last_sequence = frontend_->LastSequence();
  data.layout = static_cast<uint8_t>(options_.compaction.layout);
  data.granularity = static_cast<uint8_t>(options_.compaction.granularity);
  data.tier_runs = options_.compaction.tier_runs;
  data.overlapping_mask = 0;
  for (int l = 0; l < kNumLevels; l++) {
    if (version_->overlapping[l]) data.overlapping_mask |= (1u << l);
    for (const auto& f : version_->levels[l]) {
      data.files.push_back({l, f->number, f->smallest, f->largest,
                            f->data_bytes});
    }
  }
  *version = ++manifest_build_version_;
  return EncodeManifest(data);
}

Status MultilevelTree::SaveManifest(const std::string& body,
                                    uint64_t version) {
  util::MutexLock l(&manifest_io_mu_);
  if (version <= manifest_written_version_) return Status::OK();
  std::string tmp = dir_ + "/CURRENT.tmp";
  Status s = WriteStringToFile(env_, body, tmp, /*sync=*/true);
  if (!s.ok()) return s;
  s = env_->RenameFile(tmp, ManifestName(dir_));
  if (s.ok()) manifest_written_version_ = version;
  return s;
}

// Snapshot everything a pick depends on. The policy never sees the version
// directly; this is the one sanctioned crossing from tree state to the pure
// decision layer.
engine::CompactionInputs MultilevelTree::BuildCompactionInputsLocked() const {
  engine::CompactionInputs in;
  in.levels.resize(kNumLevels);
  in.cursors.assign(compact_cursor_, compact_cursor_ + kNumLevels);
  in.l0_trigger = options_.l0_compaction_trigger;
  in.tier_runs = options_.compaction.tier_runs > 0
                     ? options_.compaction.tier_runs
                     : engine::kDefaultTierRuns;
  for (int l = 0; l < kNumLevels; l++) {
    engine::CompactionLevel& lvl = in.levels[l];
    lvl.target_bytes = std::max<uint64_t>(1, LevelTargetBytes(l));
    lvl.overlapping = version_->overlapping[l];
    lvl.runs.reserve(version_->levels[l].size());
    for (const auto& f : version_->levels[l]) {
      lvl.runs.push_back({f->number, f->data_bytes, f->smallest, f->largest});
    }
  }
  return in;
}

// The "compact" job's pending() predicate: a frozen memtable to flush, or a
// policy pick over trigger.
bool MultilevelTree::CompactionPending() {
  if (frontend_->HasFrozen()) return true;
  util::MutexLock l(&mu_);
  return policy_->Pick(BuildCompactionInputsLocked()).has_value();
}

// One background pass: a frozen memtable wins over a compaction (LevelDB's
// priority). Retry/backoff and error latching live in the runner.
Status MultilevelTree::RunCompactionPass() {
  std::shared_ptr<MemTable> imm = frontend_->FrozenMemtable();
  if (imm != nullptr) return FlushMemtable(std::move(imm));
  std::optional<engine::CompactionPick> pick;
  {
    util::MutexLock l(&mu_);
    pick = policy_->Pick(BuildCompactionInputsLocked());
  }
  if (!pick.has_value()) return Status::OK();
  return ExecutePick(*pick);
}

Status MultilevelTree::WriteOutputFiles(InternalIterator* input,
                                        int output_level, bool bottom,
                                        size_t file_bytes_cap,
                                        std::vector<FileMetaPtr>* outputs) {
  outputs->clear();
  std::unique_ptr<sstree::TreeBuilder> builder;
  uint64_t current_number = 0;
  std::string first_key, last_key;
  uint64_t consumed = 0;
  std::string out_ikey;

  auto open_builder = [&]() -> Status {
    {
      util::MutexLock l(&mu_);
      current_number = next_file_number_++;
    }
    sstree::TreeBuilderOptions bopts;
    bopts.block_size = options_.block_size;
    bopts.build_bloom = options_.use_bloom;
    builder = std::make_unique<sstree::TreeBuilder>(
        env_, TreeFileName(dir_, current_number), bopts);
    first_key.clear();
    return builder->Open();
  };

  auto close_builder = [&]() -> Status {
    Status s = builder->Finish();
    if (!s.ok()) return s;
    FileMetaPtr meta;
    s = NewFileMeta(current_number, &meta);
    if (!s.ok()) return s;
    meta->smallest = first_key;
    meta->largest = last_key;
    outputs->push_back(std::move(meta));
    builder.reset();
    return Status::OK();
  };

  Status s;
  while (input->Valid()) {
    GroupResult group;
    s = CollapseGroup(input, merge_op_.get(), bottom, &consumed, &group);
    if (!s.ok()) break;
    if (!group.emit) continue;
    if (builder == nullptr) {
      s = open_builder();
      if (!s.ok()) break;
    }
    out_ikey.clear();
    AppendInternalKey(&out_ikey, group.user_key, group.seq, group.type);
    s = builder->Add(out_ikey, group.value);
    if (!s.ok()) break;
    if (first_key.empty()) first_key = group.user_key;
    last_key = group.user_key;
    if (builder->file_size() >= file_bytes_cap) {
      s = close_builder();
      if (!s.ok()) break;
    }
    if (runner_->shutting_down()) {
      s = Status::Busy("shutdown during compaction");
      break;
    }
  }
  if (s.ok()) s = input->status();
  if (s.ok() && builder != nullptr && builder->num_entries() > 0) {
    s = close_builder();
  } else if (builder != nullptr) {
    builder->Abandon();
    env_->RemoveFile(TreeFileName(dir_, current_number))
        .IgnoreError("partial compaction output; orphan scavenge reclaims it");
  }
  if (!s.ok()) {
    // Clean up any outputs we already finished.
    for (auto& meta : *outputs) meta->obsolete.store(true);
    outputs->clear();
  }
  stats_.compaction_bytes.fetch_add(consumed, std::memory_order_relaxed);
  // Per-level write amplification: charge the bytes that actually landed.
  uint64_t written = 0;
  for (const auto& meta : *outputs) written += meta->data_bytes;
  stats_.level_write_bytes[output_level].fetch_add(written,
                                                   std::memory_order_relaxed);
  return s;
}

Status MultilevelTree::FlushMemtable(std::shared_ptr<MemTable> imm) {
  std::vector<std::unique_ptr<InternalIterator>> children;
  children.push_back(NewMemTableIterator(imm));
  MergingIterator merged(std::move(children));
  merged.SeekToFirst();

  // L0 runs are whole memtable dumps: one run per flush.
  std::vector<FileMetaPtr> outputs;
  Status s = WriteOutputFiles(&merged, /*output_level=*/0, /*bottom=*/false,
                              kSingleRunCap, &outputs);
  if (!s.ok()) return s;

  std::string manifest;
  uint64_t manifest_version;
  {
    util::MutexLock l(&mu_);
    auto fresh = version_->Clone();
    // Newest first.
    for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
      fresh->levels[0].insert(fresh->levels[0].begin(), *it);
    }
    version_ = std::move(fresh);
    // One view swaps the frozen memtable for its L0 run, so a reader sees
    // each record exactly once.
    flushed_imm_ = imm.get();
    PublishView();
    stats_.memtable_flushes.fetch_add(1, std::memory_order_relaxed);
    manifest = BuildManifestLocked(&manifest_version);
  }
  frontend_->DropFrozen();
  {
    // `imm` is still alive here, so no new frozen memtable can reuse its
    // address while flushed_imm_ names it.
    util::MutexLock l(&mu_);
    flushed_imm_ = nullptr;
  }
  s = SaveManifest(manifest, manifest_version);
  if (!s.ok()) return s;
  return frontend_->TruncateToActive(/*consume=*/false);
}

Status MultilevelTree::ExecutePick(const engine::CompactionPick& pick) {
  // Resolve the pick's run numbers against the live version and select the
  // overlap set under the lock. Only this single background job mutates the
  // version, so the snapshot the policy saw is still current; a run that
  // vanished anyway just makes the pick a no-op for the runner to retry.
  std::vector<FileMetaPtr> inputs_this, inputs_next;
  std::vector<uint64_t> exclude = pick.input_runs;
  bool bottom;
  {
    util::MutexLock l(&mu_);
    const auto& files = version_->levels[pick.level];
    for (uint64_t number : pick.input_runs) {
      for (const auto& f : files) {
        if (f->number == number) {
          inputs_this.push_back(f);
          break;
        }
      }
    }
    if (inputs_this.empty() ||
        inputs_this.size() != pick.input_runs.size()) {
      return Status::OK();  // stale pick; the next pass re-picks
    }
    if (pick.advance_cursor) compact_cursor_[pick.level] = pick.next_cursor;
    // Key range of the inputs.
    std::string begin = inputs_this[0]->smallest;
    std::string end = inputs_this[0]->largest;
    for (const auto& f : inputs_this) {
      if (Slice(f->smallest) < Slice(begin)) begin = f->smallest;
      if (Slice(end) < Slice(f->largest)) end = f->largest;
    }
    if (pick.pull_overlap) {
      // Leveling data movement: the overlapping output-level runs merge too.
      inputs_next = version_->Overlapping(pick.output_level, begin, end);
      for (const auto& f : inputs_next) exclude.push_back(f->number);
    }
    // Tombstones may drop iff nothing outside this compaction's own inputs
    // holds the range at or below the output level. For a leveled merge
    // (all overlapping output runs are inputs) this reduces to the classic
    // is-bottommost test; for a tiered stack the surviving output-level
    // runs keep tombstones alive.
    bottom = version_->IsBottommostExcluding(pick.output_level, begin, end,
                                             exclude);
  }

  std::vector<std::unique_ptr<InternalIterator>> children;
  for (const auto& f : inputs_this) {
    children.push_back(
        NewTreeComponentIterator(f->reader.get(), /*sequential=*/true));
  }
  for (const auto& f : inputs_next) {
    children.push_back(
        NewTreeComponentIterator(f->reader.get(), /*sequential=*/true));
  }
  MergingIterator merged(std::move(children));
  merged.SeekToFirst();

  std::vector<FileMetaPtr> outputs;
  Status s = WriteOutputFiles(
      &merged, pick.output_level, bottom,
      pick.output_overlapping ? kSingleRunCap : options_.file_bytes,
      &outputs);
  if (!s.ok()) return s;

  std::string manifest;
  uint64_t manifest_version;
  {
    util::MutexLock l(&mu_);
    auto fresh = version_->Clone();
    auto remove = [&](int lvl, const std::vector<FileMetaPtr>& gone) {
      auto& level_files = fresh->levels[lvl];
      level_files.erase(
          std::remove_if(level_files.begin(), level_files.end(),
                         [&](const FileMetaPtr& f) {
                           for (const auto& g : gone) {
                             if (g->number == f->number) return true;
                           }
                           return false;
                         }),
          level_files.end());
    };
    remove(pick.level, inputs_this);
    if (pick.pull_overlap) remove(pick.output_level, inputs_next);
    if (fresh->levels[pick.level].empty() && pick.level != 0) {
      fresh->overlapping[pick.level] = false;  // empty is trivially sorted
    }
    auto& dest = fresh->levels[pick.output_level];
    const bool survivors = !dest.empty();
    // The output level's layout after install. Tiered movement stacks on
    // survivors (overlapping); into an empty level the single fresh run is
    // sorted. Leveled movement keeps a sorted level sorted; L0 is always
    // overlapping.
    bool dest_overlapping;
    if (pick.output_level == 0) {
      dest_overlapping = true;
    } else if (pick.output_overlapping) {
      dest_overlapping = survivors || outputs.size() > 1;
    } else {
      dest_overlapping = survivors && fresh->overlapping[pick.output_level];
    }
    if (dest_overlapping) {
      // Newest first, like L0.
      for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
        dest.insert(dest.begin(), *it);
      }
    } else {
      dest.insert(dest.end(), outputs.begin(), outputs.end());
      std::sort(dest.begin(), dest.end(), BySmallest);
    }
    fresh->overlapping[pick.output_level] =
        dest.empty() ? pick.output_level == 0 : dest_overlapping;
    version_ = std::move(fresh);
    // The inputs' records all live in the outputs; views pinned before this
    // store keep the replaced files readable until their readers finish.
    PublishView();
    stats_.compactions.fetch_add(1, std::memory_order_relaxed);
    manifest = BuildManifestLocked(&manifest_version);
  }
  s = SaveManifest(manifest, manifest_version);
  if (!s.ok()) return s;
  // Unlink inputs only once the manifest that drops them is durable.
  for (const auto& f : inputs_this) f->obsolete.store(true);
  for (const auto& f : inputs_next) f->obsolete.store(true);
  return Status::OK();
}

Status MultilevelTree::CompactAll() {
  if (options_.read_only) {
    return Status::NotSupported("engine is read-only");
  }
  while (true) {
    Status bg = runner_->BackgroundError();
    if (!bg.ok()) return bg;
    // Freeze a non-empty memtable (nothing else freezes a non-full one).
    if (!frontend_->ActiveMemtable()->Empty() && !frontend_->HasFrozen()) {
      frontend_->Freeze(/*block=*/true)
          .IgnoreError("Busy means another thread froze first, which is "
                       "exactly the state this freeze wanted");
    }
    runner_->Notify();
    // Wait for the current backlog (frozen memtable + policy picks over
    // trigger) to drain, then re-check the active memtable: writes racing
    // with this call may have refilled it.
    bg = runner_->WaitUntil([this] {
      if (frontend_->HasFrozen() || runner_->AnyRunning()) return false;
      util::MutexLock l(&mu_);
      return !policy_->Pick(BuildCompactionInputsLocked()).has_value();
    });
    if (!bg.ok()) return bg;
    if (frontend_->ActiveMemtable()->Empty()) return Status::OK();
  }
}

void MultilevelTree::WaitForIdle() {
  if (options_.read_only) return;
  // Returns early if a background error latches (WaitUntil's contract):
  // a faulted compactor never drains its backlog.
  runner_->WaitUntil([this] {
        if (frontend_->HasFrozen() || runner_->AnyRunning()) return false;
        util::MutexLock l(&mu_);
        return !policy_->Pick(BuildCompactionInputsLocked()).has_value();
      })
      .IgnoreError(
          "idle-wait cut short by shutdown or a latched error; callers "
          "observe the latter via BackgroundError()");
}

}  // namespace blsm::multilevel
