#ifndef BLSM_MULTILEVEL_MULTILEVEL_TREE_H_
#define BLSM_MULTILEVEL_MULTILEVEL_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "buffer/block_cache.h"
#include "engine/background_runner.h"
#include "engine/compaction_policy.h"
#include "engine/stall_tracker.h"
#include "engine/write_batch.h"
#include "engine/write_frontend.h"
#include "io/env.h"
#include "lsm/merge_iterator.h"
#include "lsm/merge_operator.h"
#include "lsm/record.h"
#include "memtable/memtable.h"
#include "multilevel/version.h"
#include "util/atomic_shared_ptr.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/logical_log.h"

namespace blsm::multilevel {

// Options for the LevelDB stand-in (the paper's second comparison point):
// a multi-level LSM with constant fanout, small memtables, a partition
// (file-granularity) compaction scheduler, write slowdown/stop triggers on
// the L0 run pile, and no Bloom filters by default (§5: "It is a multi-level
// tree that does not make use of Bloom filters and uses a partition
// scheduler").
struct MultilevelOptions {
  Env* env = nullptr;

  size_t memtable_bytes = 4 << 20;   // LevelDB's small write buffer
  size_t file_bytes = 2 << 20;       // target output file size
  uint64_t base_level_bytes = 10 << 20;  // L1 target; Li = base * ratio^(i-1)
  int level_ratio = 10;

  // L0 file-count triggers (LevelDB defaults scaled): at `slowdown` each
  // write waits one bounded interval on the engine::StallTracker CondVar
  // (signaled early if compaction publishes progress); at `stop` writes
  // block on the tracker until the L0 pile drains — the source of the
  // unbounded insert latency in Figure 7 (right). Stall durations are
  // measured wall-clock into MultilevelStats.
  int l0_compaction_trigger = 4;
  int l0_slowdown_trigger = 8;
  int l0_stop_trigger = 12;

  // Which point of the compaction design space this tree runs: data layout
  // (leveling / tiering / lazy-leveling), granularity (partitioned vs
  // whole-level leveled merges), and the tiered run-fill. The default is
  // bit-identical to the pre-policy partition scheduler. The choice is
  // recorded in the manifest; reopening under a different layout fails
  // InvalidArgument (read-only opens adopt the manifest's config).
  engine::CompactionConfig compaction;

  size_t block_size = 4096;
  size_t block_cache_bytes = 32 << 20;

  // The Riak patch (§6): Bloom filters bolted onto LevelDB (10 bits per
  // key). Off by default.
  bool use_bloom = false;

  DurabilityMode durability = DurabilityMode::kAsync;
  std::shared_ptr<const MergeOperator> merge_operator;

  // Shared fault-handling policy (same struct BlsmOptions embeds):
  // paranoid_checks verifies every block of every manifest-referenced run
  // at Open; transient background failures retry with capped exponential
  // backoff before latching BackgroundError().
  engine::BackgroundPolicy background;

  // Open an existing database without mutating it: no directory creation,
  // no orphan scavenging, no log restart, no background thread; writes
  // fail NotSupported.
  bool read_only = false;
};

struct MultilevelStats {
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> gets{0};
  // Stall accounting: completed stall events, their measured wall-clock
  // total, and the longest single stall. slowdown_writes counts writes that
  // took the L0 slowdown delay; stopped_writes counts hard-stop stall
  // events (L0 at the stop trigger or memtable full behind a busy flush).
  std::atomic<uint64_t> write_stalls{0};
  std::atomic<uint64_t> write_stall_micros{0};
  std::atomic<uint64_t> max_stall_micros{0};
  std::atomic<uint64_t> slowdown_writes{0};
  std::atomic<uint64_t> stopped_writes{0};
  std::atomic<uint64_t> memtable_flushes{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compaction_bytes{0};
  // Bytes written into each level by background work (flushes land in
  // level_write_bytes[0]); dividing by user bytes gives per-level write
  // amplification — the quantity the compaction-policy ablation measures.
  std::atomic<uint64_t> level_write_bytes[kNumLevels] = {};
  std::atomic<uint64_t> compaction_retries{0};
  std::atomic<uint64_t> orphans_scavenged{0};
  // Read-path counters: view pins (one per Get/MultiGet/scan) and MultiGet
  // batches. (No block coalescing here — the multilevel read path probes
  // per-level files key by key; kv::Engine::Stats() reports the key with a
  // zero for symmetry with bLSM.)
  std::atomic<uint64_t> views_pinned{0};
  std::atomic<uint64_t> multiget_batches{0};
  // On-disk runs actually probed by point lookups (a probe of a sorted
  // level counts one file; an overlapping level counts every run whose key
  // range covers the key until the search terminates). Divided by `gets`
  // this is the structural read amplification the compaction-policy
  // ablation measures — independent of cache state and index depth.
  std::atomic<uint64_t> read_run_probes{0};
};

// LevelDB-like multi-level LSM tree. Reuses the repository's memtable and
// on-disk tree component substrates; differs from the bLSM core exactly
// where the paper says LevelDB differs: many levels of constant ratio, a
// partition scheduler that compacts one file (plus overlap) at a time,
// stop-the-world L0 backpressure, and (by default) no Bloom filters.
class MultilevelTree {
 public:
  static Status Open(const MultilevelOptions& options, const std::string& dir,
                     std::unique_ptr<MultilevelTree>* out);

  ~MultilevelTree();
  MultilevelTree(const MultilevelTree&) = delete;
  MultilevelTree& operator=(const MultilevelTree&) = delete;

  Status Put(const Slice& key, const Slice& value);
  // Applies a batch of writes atomically for durability: one sequence range,
  // one WAL record group, one group-commit sync.
  Status Write(const kv::WriteBatch& batch);
  Status Delete(const Slice& key);
  Status WriteDelta(const Slice& key, const Slice& delta);

  // No Bloom filters: the existence check is a full multi-level lookup —
  // O(levels) seeks, the cost §3.1.2 contrasts with bLSM's zero.
  Status InsertIfNotExists(const Slice& key, const Slice& value);

  // Point lookup: memtables, then L0 newest-first, then one file per deeper
  // level — O(log n) seeks uncached (Table 1). Lock-free: pins the
  // published ReadView, acquires no mutex.
  Status Get(const Slice& key, std::string* value) EXCLUDES(mu_);

  // Batched point lookups against one pinned view; statuses/values align
  // with keys. (No cross-key block coalescing: unlike bLSM's three big
  // components, the per-key file set differs level by level.)
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values)
      EXCLUDES(mu_);

  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string& old, bool absent)>&
          update);

  Status Scan(const Slice& start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out);

  // Flushes the memtable and compacts until every level is within target.
  Status CompactAll() EXCLUDES(mu_);
  void WaitForIdle() EXCLUDES(mu_);

  const MultilevelStats& stats() const { return stats_; }
  Status BackgroundError() const;
  int NumFilesAtLevel(int level) const EXCLUDES(mu_);
  uint64_t BytesAtLevel(int level) const EXCLUDES(mu_);
  uint64_t OnDiskBytes() const EXCLUDES(mu_);
  // The active compaction policy ("leveling", "tiering", ...) and its
  // data-layout axis, for stats and tools.
  std::string CompactionPolicyName() const { return policy_->Name(); }
  engine::CompactionLayout CompactionPolicyLayout() const {
    return policy_->Layout();
  }
  // Live bytes buffered in the memtable pair (the engine's "C0" for
  // cross-engine fill reporting).
  uint64_t C0LiveBytes() const;

  // Distribution of measured per-stall durations (microseconds).
  Histogram StallHistogram() const { return stall_tracker_.HistogramSnapshot(); }

  // WAL group-commit counters (wal.* in kv::Engine::Stats()).
  LogicalLog::Counters WalCounters() const {
    return frontend_->WalCounters();
  }
  // Block-cache hit/miss counters.
  uint64_t CacheHits() const { return cache_ != nullptr ? cache_->hits() : 0; }
  uint64_t CacheMisses() const {
    return cache_ != nullptr ? cache_->misses() : 0;
  }

  // Terminal-Env IO counters (io.* in kv::Engine::Stats()); nullptr when
  // the Env stack has no counting terminal.
  const EnvIoCounters* IoCounters() const { return env_->io_counters(); }

 private:
  // The immutable tree shape a reader sees: memtable pair + version.
  // Published on every structural change (memtable swap via the front-end
  // hook, flush/compaction install); pinned with one atomic load.
  struct ReadView {
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<MemTable> imm;
    VersionPtr version;
  };
  using ReadViewPtr = std::shared_ptr<const ReadView>;

  MultilevelTree(const MultilevelOptions& options, std::string dir);

  Status OpenImpl() EXCLUDES(mu_);
  uint64_t LevelTargetBytes(int level) const;

  ReadViewPtr PinView() EXCLUDES(mu_);
  void PublishView() REQUIRES(mu_);
  // The lookup body shared by Get and MultiGet, against a pinned view.
  Status GetFromView(const Slice& key, const ReadView& view,
                     std::string* value);

  Status WriteImpl(const Slice& key, RecordType type, const Slice& value);
  void MaybeStallWrites() EXCLUDES(mu_);

  // Background work, run as the "compact" job on the BackgroundRunner
  // (which owns retry/backoff and the error latch).
  bool CompactionPending() EXCLUDES(mu_);
  Status RunCompactionPass() EXCLUDES(mu_);
  // Snapshot of the pick-relevant state (per-level run counts/bytes/ranges,
  // targets, layout flags, cursors) handed to the CompactionPolicy; every
  // compaction decision is policy_->Pick() over this, never a direct walk
  // of version_->levels.
  engine::CompactionInputs BuildCompactionInputsLocked() const REQUIRES(mu_);
  Status FlushMemtable(std::shared_ptr<MemTable> imm) EXCLUDES(mu_);
  // Executes one policy pick: resolves run numbers to live files, merges,
  // installs the outputs under the pick's data-movement mode (leveled
  // replace vs tiered stack), and persists the manifest.
  Status ExecutePick(const engine::CompactionPick& pick) EXCLUDES(mu_);
  // Writes the sorted stream from `input` into output files of at most
  // `file_bytes_cap` bytes at `output_level`; `bottom` enables tombstone
  // dropping.
  Status WriteOutputFiles(InternalIterator* input, int output_level,
                          bool bottom, size_t file_bytes_cap,
                          std::vector<FileMetaPtr>* outputs) EXCLUDES(mu_);
  Status NewFileMeta(uint64_t number, FileMetaPtr* out);
  // Snapshot the manifest contents under mu_; write (fsync) outside it.
  std::string BuildManifestLocked(uint64_t* version) REQUIRES(mu_);
  Status SaveManifest(const std::string& body, uint64_t version)
      EXCLUDES(manifest_io_mu_);

  VersionPtr CurrentVersion() const EXCLUDES(mu_);

  MultilevelOptions options_;
  std::string dir_;
  // The compaction-decision layer (pure functions of a snapshot; see
  // engine/compaction_policy.h). Fixed at Open.
  std::unique_ptr<engine::CompactionPolicy> policy_;
  Env* env_ = nullptr;
  std::shared_ptr<BlockCache> cache_;
  std::shared_ptr<const MergeOperator> merge_op_;

  // WAL + memtable pair + sequence allocation + freeze/swap exclusion.
  std::unique_ptr<engine::WriteFrontend> frontend_;
  // Worker thread, retry/backoff, error latch, quiesce waits.
  std::unique_ptr<engine::BackgroundRunner> runner_;

  mutable util::Mutex mu_{util::lock_rank::kMultilevelTreeMu};
  VersionPtr version_ GUARDED_BY(mu_);
  // The frozen memtable whose L0 run is already in version_, from the flush
  // install until the flush drops it. PublishView leaves it out of the view:
  // a reader seeing both copies would apply its deltas twice.
  const MemTable* flushed_imm_ GUARDED_BY(mu_) = nullptr;
  // RCU publication point for the read path; stores only in PublishView
  // (under mu_), loads lock-free.
  util::AtomicSharedPtr<const ReadView> view_;
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  // Round-robin compaction cursors (LevelDB's partition scheduler state).
  std::string compact_cursor_[kNumLevels] GUARDED_BY(mu_);
  uint64_t manifest_build_version_ GUARDED_BY(mu_) = 0;
  // analyze:allow(blocking-under-lock) manifest_io_mu_ serializes and
  // deduplicates manifest fsyncs outside mu_; the write happening under it
  // is its whole purpose and never stalls foreground writers.
  util::Mutex manifest_io_mu_{util::lock_rank::kMultilevelTreeManifestIoMu};
  uint64_t manifest_written_version_ GUARDED_BY(manifest_io_mu_) = 0;

  // Stalled writers sleep here; PublishView signals it on every structural
  // change.
  engine::StallTracker stall_tracker_;

  MultilevelStats stats_;
};

}  // namespace blsm::multilevel

#endif  // BLSM_MULTILEVEL_MULTILEVEL_TREE_H_
