// blsm_inspect: offline inspection of a bLSM database directory. Reads the
// manifest, opens each component read-only, and prints the tree's shape —
// without starting the engine (no merge threads, no log truncation).
//
//   blsm_inspect <dbdir>              summary
//   blsm_inspect <dbdir> --keys N     ... plus the first N user keys per
//                                     component
//   blsm_inspect <dbdir> --log        ... plus a logical-log summary
//   blsm_inspect verify <dbdir>       read and checksum every block of every
//                                     component plus the WAL; exit non-zero
//                                     iff damage is found, naming each
//                                     damaged file and block offset
//   blsm_inspect stats <dbdir> [--engine NAME]
//                                     open the engine read-only through the
//                                     kv registry (default: blsm) and dump
//                                     its full counter map
//   blsm_inspect io <dbdir> [--engine NAME]
//                                     the io.* slice of the counter map plus
//                                     the derived MultiRead batching ratio
//   blsm_inspect levels <dbdir>       decode a multilevel manifest (read-only,
//                                     no engine start) and dump the active
//                                     compaction policy plus per-level run
//                                     counts, bytes, and layout
//   blsm_inspect server-stats <host:port>
//                                     fetch a live blsm_server's counter map
//                                     over the wire protocol: server.* front-
//                                     end counters first, then the summed
//                                     engine counters of every shard

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "engine/compaction_policy.h"
#include "engine/kv.h"
#include "io/env.h"
#include "lsm/manifest.h"
#include "lsm/record.h"
#include "multilevel/version.h"
#include "server/client.h"
#include "sstree/tree_reader.h"
#include "wal/logical_log.h"

namespace {

const char* SlotName(blsm::Manifest::Slot slot) {
  switch (slot) {
    case blsm::Manifest::Slot::kC1:
      return "C1";
    case blsm::Manifest::Slot::kC1Prime:
      return "C1'";
    case blsm::Manifest::Slot::kC2:
      return "C2";
  }
  return "?";
}

// `blsm_inspect verify <dbdir>`: every block of every manifest-referenced
// component is read and checksummed (bypassing any cache), then the WAL is
// replayed. Exit status: 0 = clean, 1 = damage found. A truncated WAL tail
// is reported as a crash artifact, not damage — recovery handles it by
// design, so a db that merely crashed verifies clean.
int RunVerify(const std::string& dir) {
  using namespace blsm;
  Env* env = Env::Default();
  Manifest manifest;
  Status s = Manifest::Load(env, dir, &manifest);
  if (!s.ok()) {
    fprintf(stderr, "DAMAGED manifest: %s\n", s.ToString().c_str());
    return 1;
  }

  int damaged = 0;
  printf("verifying %zu component(s) in %s\n", manifest.components.size(),
         dir.c_str());
  for (const auto& entry : manifest.components) {
    std::string fname = Manifest::TreeFileName(dir, entry.file_number);
    std::unique_ptr<sstree::TreeReader> reader;
    s = sstree::TreeReader::Open(env, /*cache=*/nullptr, entry.file_number,
                                 fname, &reader);
    if (!s.ok()) {
      printf("  %-4s %s: DAMAGED (unopenable: %s)\n", SlotName(entry.slot),
             fname.c_str(), s.ToString().c_str());
      damaged++;
      continue;
    }
    uint64_t bad_offset = 0;
    s = reader->VerifyAllBlocks(&bad_offset);
    if (!s.ok()) {
      printf("  %-4s %s: DAMAGED at offset %" PRIu64 " (%s)\n",
             SlotName(entry.slot), fname.c_str(), bad_offset,
             s.ToString().c_str());
      damaged++;
    } else {
      printf("  %-4s %s: OK (%" PRIu64 " entries)\n", SlotName(entry.slot),
             fname.c_str(), reader->num_entries());
    }
  }

  // The WAL: records that pass the frame CRC but fail to decode are damage;
  // bytes the reader skipped (a torn tail, CRC-failed frames) are the
  // expected residue of a crash — recovery drops them by design — so they
  // are reported but do not fail the verify.
  std::string log_path = Manifest::LogFileName(dir);
  if (env->FileExists(log_path)) {
    std::unique_ptr<SequentialFile> log_file;
    s = env->NewSequentialFile(log_path, &log_file);
    if (!s.ok()) {
      printf("  WAL  %s: DAMAGED (unopenable: %s)\n", log_path.c_str(),
             s.ToString().c_str());
      damaged++;
    } else {
      wal::LogReader log_reader(std::move(log_file));
      uint64_t records = 0;
      bool decode_ok = true;
      Slice payload;
      std::string scratch;
      while (log_reader.ReadRecord(&payload, &scratch)) {
        Slice in = payload;
        DecodedRecord rec;
        ParsedInternalKey parsed;
        if (!DecodeRecord(&in, &rec) ||
            !ParseInternalKey(rec.internal_key, &parsed)) {
          decode_ok = false;
          break;
        }
        records++;
      }
      if (!decode_ok) {
        printf("  WAL  %s: DAMAGED (malformed record after %" PRIu64
               " good records)\n",
               log_path.c_str(), records);
        damaged++;
      } else if (log_reader.dropped_bytes() > 0) {
        printf("  WAL  %s: OK (%" PRIu64 " records; %" PRIu64
               " bytes of crash residue skipped)\n",
               log_path.c_str(), records, log_reader.dropped_bytes());
      } else {
        printf("  WAL  %s: OK (%" PRIu64 " records)\n", log_path.c_str(),
               records);
      }
    }
  }

  // Orphans: files no manifest entry references. Not damage (recovery
  // scavenges them), but worth reporting — they are the residue of a merge
  // that died mid-write.
  std::vector<std::string> children;
  if (env->GetChildren(dir, &children).ok()) {
    for (const std::string& name : children) {
      if (name.size() > 5 && name.substr(name.size() - 5) == ".tree") {
        uint64_t num = strtoull(name.c_str(), nullptr, 10);
        bool referenced = false;
        for (const auto& entry : manifest.components) {
          if (entry.file_number == num) referenced = true;
        }
        if (!referenced) {
          printf("  note: orphan file %s (unreferenced; open-time recovery "
                 "will remove it)\n",
                 name.c_str());
        }
      }
    }
  }

  if (damaged > 0) {
    printf("verify FAILED: %d damaged file(s)\n", damaged);
    return 1;
  }
  printf("verify OK\n");
  return 0;
}

// `blsm_inspect stats <dbdir> [--engine NAME]`: opens the engine read-only
// through the kv registry — no background threads, no recovery rewrites —
// and dumps its counter map. The counters reflect the freshly-opened state
// (lifetime counters are not persisted), so this mostly reports the shape
// recovery reconstructed: component sizes, level file counts, log replay.
int RunStats(const std::string& dir, const std::string& engine_name) {
  using namespace blsm;
  kv::CommonOptions options;
  options.read_only = true;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<kv::Engine> engine;
  Status s = kv::Open(engine_name, options, dir, &engine);
  if (!s.ok()) {
    fprintf(stderr, "cannot open %s engine at %s: %s\n", engine_name.c_str(),
            dir.c_str(), s.ToString().c_str());
    return 1;
  }
  printf("%s stats for %s\n", engine->Name().c_str(), dir.c_str());
  for (const auto& [name, value] : engine->Stats()) {
    printf("  %-32s %" PRIu64 "\n", name.c_str(), value);
  }
  return 0;
}

// `blsm_inspect io <dbdir> [--engine NAME]`: the io.* slice of the counter
// map — bytes moved, fsyncs, MultiRead batching, and readahead hints and
// hits of the engine's Env stack — plus requests per MultiRead batch.
// Counters start at zero on this read-only open, so what shows here is the
// IO that recovery + open itself performed; point it at a live workload by
// scraping kv::Engine::Stats() instead.
int RunIo(const std::string& dir, const std::string& engine_name) {
  using namespace blsm;
  kv::CommonOptions options;
  options.read_only = true;
  options.durability = DurabilityMode::kNone;
  std::unique_ptr<kv::Engine> engine;
  Status s = kv::Open(engine_name, options, dir, &engine);
  if (!s.ok()) {
    fprintf(stderr, "cannot open %s engine at %s: %s\n", engine_name.c_str(),
            dir.c_str(), s.ToString().c_str());
    return 1;
  }
  std::map<std::string, uint64_t> stats = engine->Stats();
  printf("%s io counters for %s\n", engine->Name().c_str(), dir.c_str());
  for (const auto& [name, value] : stats) {
    if (name.rfind("io.", 0) == 0) {
      printf("  %-32s %" PRIu64 "\n", name.c_str(), value);
    }
  }
  uint64_t batches = stats["io.multiread_batches"];
  uint64_t requests = stats["io.multiread_requests"];
  printf("  %-32s %.2f\n", "derived.requests_per_batch",
         batches != 0 ? static_cast<double>(requests) / batches : 0.0);
  return 0;
}

// `blsm_inspect levels <dbdir>`: decodes the multilevel tree's CURRENT
// manifest directly — truly read-only, no engine, no threads — and prints
// the compaction config it records plus the per-level shape.
int RunLevels(const std::string& dir) {
  using namespace blsm;
  Env* env = Env::Default();
  std::string blob;
  Status s = ReadFileToString(env, dir + "/CURRENT", &blob);
  if (!s.ok()) {
    fprintf(stderr, "cannot read multilevel manifest at %s/CURRENT: %s\n",
            dir.c_str(), s.ToString().c_str());
    return 1;
  }
  multilevel::ManifestData m;
  s = multilevel::DecodeManifest(blob, &m);
  if (!s.ok()) {
    fprintf(stderr, "cannot decode manifest: %s\n", s.ToString().c_str());
    return 1;
  }

  engine::CompactionConfig config;
  config.layout = static_cast<engine::CompactionLayout>(m.layout);
  config.granularity = static_cast<engine::CompactionGranularity>(
      m.granularity != 0 ? 1 : 0);
  config.tier_runs = m.tier_runs;
  printf("multilevel database at %s\n", dir.c_str());
  printf("  compaction policy: %s\n",
         engine::CompactionConfigName(config).c_str());
  printf("  next file number:  %" PRIu64 "\n", m.next_file_number);
  printf("  last sequence:     %" PRIu64 "\n", m.last_sequence);

  uint64_t runs[multilevel::kNumLevels] = {};
  uint64_t bytes[multilevel::kNumLevels] = {};
  for (const auto& f : m.files) {
    runs[f.level]++;
    bytes[f.level] += f.data_bytes;
  }
  uint64_t total_runs = 0, total_bytes = 0;
  for (int l = 0; l < multilevel::kNumLevels; l++) {
    const char* layout = (m.overlapping_mask >> l) & 1 ? "overlapping"
                                                       : "sorted";
    printf("  L%d: %3" PRIu64 " run(s)  %10.2f MB  [%s]\n", l, runs[l],
           static_cast<double>(bytes[l]) / 1e6, layout);
    total_runs += runs[l];
    total_bytes += bytes[l];
  }
  printf("  totals: %" PRIu64 " run(s), %.2f MB\n", total_runs,
         static_cast<double>(total_bytes) / 1e6);
  return 0;
}

// `blsm_inspect server-stats <host:port>`: one STATS round-trip against a
// live blsm_server. The server.* keys (the front-end's own counters) print
// first; the rest is the sum of every shard's engine counter map.
int RunServerStats(const std::string& target) {
  using namespace blsm;
  size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    fprintf(stderr, "expected <host:port>, got %s\n", target.c_str());
    return 2;
  }
  std::string host = target.substr(0, colon);
  int port = atoi(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    fprintf(stderr, "bad port in %s\n", target.c_str());
    return 2;
  }
  std::unique_ptr<server::Client> client;
  Status s = server::Client::Connect(host, static_cast<uint16_t>(port),
                                     &client);
  if (!s.ok()) {
    fprintf(stderr, "cannot connect to %s: %s\n", target.c_str(),
            s.ToString().c_str());
    return 1;
  }
  std::map<std::string, uint64_t> stats;
  s = client->Stats(&stats);
  if (!s.ok()) {
    fprintf(stderr, "STATS request failed: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("server stats for %s\n", target.c_str());
  for (const auto& [name, value] : stats) {
    if (name.rfind("server.", 0) == 0) {
      printf("  %-32s %" PRIu64 "\n", name.c_str(), value);
    }
  }
  printf("engine stats (summed across shards)\n");
  for (const auto& [name, value] : stats) {
    if (name.rfind("server.", 0) != 0) {
      printf("  %-32s %" PRIu64 "\n", name.c_str(), value);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blsm;

  if (argc < 2) {
    fprintf(stderr,
            "usage: %s <dbdir> [--keys N] [--log]\n"
            "       %s verify <dbdir>\n"
            "       %s stats <dbdir> [--engine NAME]\n"
            "       %s io <dbdir> [--engine NAME]\n"
            "       %s levels <dbdir>\n"
            "       %s server-stats <host:port>\n",
            argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  if (strcmp(argv[1], "server-stats") == 0) {
    if (argc < 3) {
      fprintf(stderr, "usage: %s server-stats <host:port>\n", argv[0]);
      return 2;
    }
    return RunServerStats(argv[2]);
  }
  if (strcmp(argv[1], "levels") == 0) {
    if (argc < 3) {
      fprintf(stderr, "usage: %s levels <dbdir>\n", argv[0]);
      return 2;
    }
    return RunLevels(argv[2]);
  }
  if (strcmp(argv[1], "verify") == 0) {
    if (argc < 3) {
      fprintf(stderr, "usage: %s verify <dbdir>\n", argv[0]);
      return 2;
    }
    return RunVerify(argv[2]);
  }
  if (strcmp(argv[1], "stats") == 0) {
    if (argc < 3) {
      fprintf(stderr, "usage: %s stats <dbdir> [--engine NAME]\n", argv[0]);
      return 2;
    }
    std::string engine_name = "blsm";
    for (int i = 3; i < argc; i++) {
      if (strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
        engine_name = argv[++i];
      }
    }
    return RunStats(argv[2], engine_name);
  }
  if (strcmp(argv[1], "io") == 0) {
    if (argc < 3) {
      fprintf(stderr, "usage: %s io <dbdir> [--engine NAME]\n", argv[0]);
      return 2;
    }
    std::string engine_name = "blsm";
    for (int i = 3; i < argc; i++) {
      if (strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
        engine_name = argv[++i];
      }
    }
    return RunIo(argv[2], engine_name);
  }
  if (argc >= 3 && strcmp(argv[2], "verify") == 0) {
    return RunVerify(argv[1]);
  }
  std::string dir = argv[1];
  int dump_keys = 0;
  bool dump_log = false;
  for (int i = 2; i < argc; i++) {
    if (strcmp(argv[i], "--keys") == 0 && i + 1 < argc) {
      dump_keys = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--log") == 0) {
      dump_log = true;
    }
  }

  Env* env = Env::Default();
  Manifest manifest;
  Status s = Manifest::Load(env, dir, &manifest);
  if (!s.ok()) {
    fprintf(stderr, "cannot load manifest: %s\n", s.ToString().c_str());
    return 1;
  }

  printf("bLSM database at %s\n", dir.c_str());
  printf("  next file number: %" PRIu64 "\n", manifest.next_file_number);
  printf("  last sequence:    %" PRIu64 "\n", manifest.last_sequence);
  printf("  components:       %zu\n\n", manifest.components.size());

  uint64_t total_entries = 0, total_bytes = 0;
  for (const auto& entry : manifest.components) {
    std::string fname = Manifest::TreeFileName(dir, entry.file_number);
    std::unique_ptr<sstree::TreeReader> reader;
    s = sstree::TreeReader::Open(env, /*cache=*/nullptr, entry.file_number,
                                 fname, &reader);
    if (!s.ok()) {
      printf("  %-4s %s: UNREADABLE (%s)\n", SlotName(entry.slot),
             fname.c_str(), s.ToString().c_str());
      continue;
    }
    printf("  %-4s %s\n", SlotName(entry.slot), fname.c_str());
    printf("       entries=%-10" PRIu64 " data=%.2f MB  file=%.2f MB  "
           "index-levels=%u  bloom=%s\n",
           reader->num_entries(),
           static_cast<double>(reader->data_bytes()) / 1e6,
           static_cast<double>(reader->file_size()) / 1e6,
           reader->footer().index_levels, reader->has_bloom() ? "yes" : "no");
    total_entries += reader->num_entries();
    total_bytes += reader->data_bytes();

    if (dump_keys > 0) {
      auto it = reader->NewIterator(/*sequential=*/true);
      int n = 0;
      for (it->SeekToFirst(); it->Valid() && n < dump_keys; it->Next(), n++) {
        ParsedInternalKey parsed;
        if (!ParseInternalKey(it->key(), &parsed)) continue;
        const char* type = parsed.type == RecordType::kBase      ? "base"
                           : parsed.type == RecordType::kDelta   ? "delta"
                                                                 : "tomb";
        printf("         %.60s @%" PRIu64 " [%s] %zu bytes\n",
               parsed.user_key.ToString().c_str(), parsed.seq, type,
               it->value().size());
      }
    }
  }
  printf("\n  totals: %" PRIu64 " on-disk records, %.2f MB of data blocks\n",
         total_entries, static_cast<double>(total_bytes) / 1e6);

  if (dump_log) {
    std::map<int, uint64_t> by_type;
    uint64_t records = 0, bytes = 0;
    SequenceNumber min_seq = ~uint64_t{0}, max_seq = 0;
    s = LogicalLog::Replay(env, Manifest::LogFileName(dir),
                           [&](const Slice& key, SequenceNumber seq,
                               RecordType type, const Slice& value) {
                             records++;
                             bytes += key.size() + value.size();
                             by_type[static_cast<int>(type)]++;
                             if (seq < min_seq) min_seq = seq;
                             if (seq > max_seq) max_seq = seq;
                           });
    if (!s.ok()) {
      printf("\n  logical log: unreadable (%s)\n", s.ToString().c_str());
    } else if (records == 0) {
      printf("\n  logical log: empty (C0 was empty at last truncation)\n");
    } else {
      printf("\n  logical log: %" PRIu64 " records (%.2f MB), seq [%" PRIu64
             ", %" PRIu64 "]\n",
             records, static_cast<double>(bytes) / 1e6, min_seq, max_seq);
      printf("    bases=%" PRIu64 " deltas=%" PRIu64 " tombstones=%" PRIu64
             "\n",
             by_type[static_cast<int>(RecordType::kBase)],
             by_type[static_cast<int>(RecordType::kDelta)],
             by_type[static_cast<int>(RecordType::kTombstone)]);
    }
  }
  return 0;
}
