// Generated by tools/analyze --update-artifacts. Do not edit.
// Registry of every counter key emitted by an Engine::Stats()
// implementation (pass `stats-keys`). A key read by tests or
// benchmarks that is absent here is a typo; a key emitted but
// absent here means the registry is stale (regenerate).
#ifndef BLSM_ENGINE_STATS_KEYS_GEN_H_
#define BLSM_ENGINE_STATS_KEYS_GEN_H_

#include <cstddef>

namespace blsm::engine::stats_keys {

inline constexpr const char* kKeys[] = {
    "block_cache.hits",
    "block_cache.misses",
    "bloom_skips",
    "c0_live_bytes",
    "compaction.policy",
    "compaction_bytes",
    "compaction_retries",
    "compactions",
    "deletes",
    "deltas",
    "gets",
    "height",
    "insert_if_not_exists",
    "io.direct_write_fallbacks",
    "io.multiread_batches",
    "io.multiread_requests",
    "io.read_bytes",
    "io.ring_writes",
    "io.syncs",
    "io.write_bytes",
    "memtable_flushes",
    "merge1_bytes_out",
    "merge1_passes",
    "merge2_bytes_out",
    "merge2_passes",
    "merge_retries",
    "num_entries",
    "on_disk_bytes",
    "orphans_scavenged",
    "puts",
    "read.blocks_coalesced",
    "read.multiget_batches",
    "read.run_probes",
    "read.views_pinned",
    "server.bad_frames",
    "server.bad_requests",
    "server.bytes_in",
    "server.bytes_out",
    "server.conns_accepted",
    "server.conns_active",
    "server.queue_depth",
    "server.reads_coalesced",
    "server.reads_inline",
    "server.requests",
    "server.response_writes",
    "server.write_batches",
    "server.write_ops",
    "shards",
    "slowdown_writes",
    "stopped_writes",
    "wal.batches",
    "wal.records",
    "wal.records_per_batch",
    "wal.syncs",
    "write.max_stall_micros",
    "write.stalls",
    "write_stall_micros",
};

// Dynamic keys: emitted as prefix + runtime suffix (e.g. per-level).
inline constexpr const char* kPrefixes[] = {
    "compaction.write_bytes",
    "files",
    "level_bytes",
    "server.shard_ops_",
};

inline constexpr size_t kNumKeys = sizeof(kKeys) / sizeof(kKeys[0]);
inline constexpr size_t kNumPrefixes =
    sizeof(kPrefixes) / sizeof(kPrefixes[0]);

}  // namespace blsm::engine::stats_keys

#endif  // BLSM_ENGINE_STATS_KEYS_GEN_H_
