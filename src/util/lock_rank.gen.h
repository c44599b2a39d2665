// Generated by tools/analyze --update-artifacts. Do not edit.
// Lock ids + ordering masks derived from the static acquisition
// graph (docs/lock_order.md). kMustPrecede[id] is a bitmask of
// the lock ids that `id` must be acquired before (direct and
// transitive edges); the debug assert in util::Mutex
// (BLSM_LOCK_RANK_CHECKS) aborts when a thread acquires `id`
// while holding any of them — a lock-order inversion the static
// graph proves can deadlock. Id 0 means unranked/unchecked.
// The layer comment is the topological rank from the doc table.
#ifndef BLSM_UTIL_LOCK_RANK_GEN_H_
#define BLSM_UTIL_LOCK_RANK_GEN_H_

namespace blsm::util::lock_rank {

inline constexpr int kUnranked = 0;
inline constexpr int kAlignedBufferPoolMu = 1;  // AlignedBufferPool::mu_ (layer 10)
inline constexpr int kArenaMu = 2;  // Arena::mu_ (layer 10)
inline constexpr int kBTreeMu = 3;  // BTree::mu_ (layer 10)
inline constexpr int kBackgroundRunnerMu = 4;  // BackgroundRunner::mu_ (layer 10)
inline constexpr int kBlsmTreeManifestIoMu = 5;  // BlsmTree::manifest_io_mu_ (layer 10)
inline constexpr int kBlsmTreeMu = 6;  // BlsmTree::mu_ (layer 10)
inline constexpr int kFanStateMu = 7;  // FanState::mu (layer 10)
inline constexpr int kFaultInjectionEnvPolicyMu = 8;  // FaultInjectionEnv::policy_mu_ (layer 10)
inline constexpr int kFileStateMu = 9;  // FileState::mu (layer 10)
inline constexpr int kLogicalLogIoMu = 10;  // LogicalLog::io_mu_ (layer 10)
inline constexpr int kMemEnvMu = 11;  // MemEnv::mu_ (layer 10)
inline constexpr int kMultilevelTreeManifestIoMu = 12;  // MultilevelTree::manifest_io_mu_ (layer 10)
inline constexpr int kMultilevelTreeMu = 13;  // MultilevelTree::mu_ (layer 10)
inline constexpr int kRegistryMu = 14;  // Registry::mu (layer 10)
inline constexpr int kServerConnMu = 15;  // ServerConn::mu (layer 10)
inline constexpr int kShardMu = 16;  // Shard::mu (layer 10)
inline constexpr int kShardQueueMu = 17;  // ShardQueue::mu (layer 10)
inline constexpr int kStallTrackerMu = 18;  // StallTracker::mu_ (layer 10)
inline constexpr int kTimeSeriesMu = 19;  // TimeSeries::mu_ (layer 10)
inline constexpr int kUringRandomAccessFileMu = 20;  // UringRandomAccessFile::mu_ (layer 10)
inline constexpr int kWriteFrontendSwapMu = 21;  // WriteFrontend::swap_mu_ (layer 10)
inline constexpr int kLogicalLogMu = 22;  // LogicalLog::mu_ (layer 20)
inline constexpr int kWriteFrontendMu = 23;  // WriteFrontend::mu_ (layer 20)

inline constexpr int kNumLockIds = 24;

inline constexpr unsigned long long kMustPrecede[kNumLockIds] = {
    0ull,  // kUnranked
    0x0ull,  // kAlignedBufferPoolMu
    0x0ull,  // kArenaMu
    0x0ull,  // kBTreeMu
    0x0ull,  // kBackgroundRunnerMu
    0x0ull,  // kBlsmTreeManifestIoMu
    0x0ull,  // kBlsmTreeMu
    0x0ull,  // kFanStateMu
    0x0ull,  // kFaultInjectionEnvPolicyMu
    0x0ull,  // kFileStateMu
    0x400000ull,  // kLogicalLogIoMu
    0x0ull,  // kMemEnvMu
    0x0ull,  // kMultilevelTreeManifestIoMu
    0x0ull,  // kMultilevelTreeMu
    0x0ull,  // kRegistryMu
    0x0ull,  // kServerConnMu
    0x0ull,  // kShardMu
    0x0ull,  // kShardQueueMu
    0x0ull,  // kStallTrackerMu
    0x0ull,  // kTimeSeriesMu
    0x0ull,  // kUringRandomAccessFileMu
    0x800000ull,  // kWriteFrontendSwapMu
    0x0ull,  // kLogicalLogMu
    0x0ull,  // kWriteFrontendMu
};

}  // namespace blsm::util::lock_rank

#endif  // BLSM_UTIL_LOCK_RANK_GEN_H_
