// server_ycsb: YCSB-style latency client for the blsm_server front-end.
//
// Drives the wire protocol over loopback TCP with configurable connection
// count and pipeline depth, in two loop disciplines:
//
//   * closed loop — each connection keeps `pipeline` requests in flight and
//     sends a new one per response: measures saturated throughput;
//   * open loop — requests leave on a fixed schedule regardless of response
//     progress, so the latency histogram includes queueing delay: the
//     coordinated-omission-free percentiles (p50/p99/p99.9) the paper's
//     latency claims need.
//
// Two modes:
//   (default)          starts in-process servers and sweeps shard counts
//                      (--shards-list) over YCSB-B and YCSB-C, then measures
//                      server.syncs_per_op under concurrent sync writers —
//                      the cross-connection group-commit check.
//   --host H --port P  drives an externally started blsm_server (CI smoke);
//                      runs load + YCSB-B/C + one open-loop pass.
//
// Results land in BENCH_server_ycsb.json.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "harness.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "util/histogram.h"
#include "util/random.h"
#include "ycsb/generator.h"

namespace {

using namespace blsm;
using bench::CheckOk;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Config {
  std::string host;  // empty = in-process servers
  uint16_t port = 0;
  std::vector<int> shard_counts = {1, 2, 4, 8};
  int conns = 8;
  int pipeline = 8;
  uint64_t records = 0;  // 0 = scaled default
  uint64_t ops = 0;
  size_t value_size = 1000;  // the paper's value size (§5.1)
  std::string dir = "/tmp/blsm_bench_server_ycsb";
};

struct RunStats {
  Histogram latency_us;
  uint64_t ops = 0;
  uint64_t errors = 0;
  double elapsed_seconds = 0;
};

// One closed-loop connection: `pipeline` requests stay in flight; every
// response immediately funds the next request.
void ClosedLoopWorker(const std::string& host, uint16_t port, uint64_t ops,
                      int pipeline, double read_proportion, uint64_t records,
                      size_t value_size, uint64_t seed, RunStats* out) {
  std::unique_ptr<server::Client> client;
  CheckOk(server::Client::Connect(host, port, &client), "connect");
  Random rng(seed);
  std::atomic<uint64_t> no_inserts{0};
  ycsb::KeyChooser chooser(ycsb::Distribution::kZipfian, records, &no_inserts,
                           seed);
  ycsb::ValueGenerator values(seed ^ 0x5eed);
  std::unordered_map<uint64_t, uint64_t> inflight;

  auto send_one = [&] {
    uint64_t id = client->NextId();
    uint64_t rec = chooser.Next();
    std::string key = ycsb::FormatKey(rec, /*hashed=*/true);
    std::string frame;
    if (rng.NextDouble() < read_proportion) {
      server::EncodeGet(&frame, id, key);
    } else {
      server::EncodePut(&frame, id, key, values.Next(rec, value_size));
    }
    inflight[id] = NowMicros();
    CheckOk(client->Send(frame), "send request");
  };

  uint64_t start = NowMicros();
  uint64_t to_send = ops;
  for (int i = 0; i < pipeline && to_send > 0; i++, to_send--) send_one();
  for (uint64_t done = 0; done < ops; done++) {
    server::Response r;
    CheckOk(client->Recv(&r), "recv response");
    auto it = inflight.find(r.id);
    if (it != inflight.end()) {
      out->latency_us.Add(NowMicros() - it->second);
      inflight.erase(it);
    }
    if (r.status == server::WireStatus::kError ||
        r.status == server::WireStatus::kBadRequest) {
      out->errors++;
    }
    if (to_send > 0) {
      send_one();
      to_send--;
    }
  }
  out->ops = ops;
  out->elapsed_seconds = static_cast<double>(NowMicros() - start) / 1e6;
}

// One open-loop connection: a sender fires requests on a fixed schedule and
// a receiver drains responses, so a slow server grows the in-flight window
// and the measured latency honestly includes the queueing.
void OpenLoopWorker(const std::string& host, uint16_t port, uint64_t ops,
                    double interval_us, double read_proportion,
                    uint64_t records, size_t value_size, uint64_t seed,
                    RunStats* out) {
  std::unique_ptr<server::Client> client;
  CheckOk(server::Client::Connect(host, port, &client), "connect");
  // Request k gets id first_id + k; start times live in a preallocated slot
  // array so sender and receiver need no lock.
  const uint64_t first_id = client->NextId();
  std::vector<std::atomic<uint64_t>> start_us(ops);
  for (auto& s : start_us) s.store(0, std::memory_order_relaxed);

  std::thread sender([&] {
    Random rng(seed);
    std::atomic<uint64_t> no_inserts{0};
    ycsb::KeyChooser chooser(ycsb::Distribution::kZipfian, records,
                             &no_inserts, seed);
    ycsb::ValueGenerator values(seed ^ 0x5eed);
    uint64_t begin = NowMicros();
    for (uint64_t k = 0; k < ops; k++) {
      uint64_t due = begin + static_cast<uint64_t>(interval_us * k);
      while (NowMicros() < due) {
        std::this_thread::yield();
      }
      uint64_t id = first_id + k;
      uint64_t rec = chooser.Next();
      std::string key = ycsb::FormatKey(rec, /*hashed=*/true);
      std::string frame;
      if (rng.NextDouble() < read_proportion) {
        server::EncodeGet(&frame, id, key);
      } else {
        server::EncodePut(&frame, id, key, values.Next(rec, value_size));
      }
      // Latency runs from the intended send time, so a send that fell
      // behind schedule is charged to its request (no coordinated
      // omission).
      start_us[k].store(due, std::memory_order_release);
      CheckOk(client->Send(frame), "send request");
    }
  });

  uint64_t run_start = NowMicros();
  for (uint64_t done = 0; done < ops; done++) {
    server::Response r;
    CheckOk(client->Recv(&r), "recv response");
    if (r.id >= first_id && r.id < first_id + ops) {
      uint64_t s = start_us[r.id - first_id].load(std::memory_order_acquire);
      if (s != 0) out->latency_us.Add(NowMicros() - s);
    }
    if (r.status == server::WireStatus::kError ||
        r.status == server::WireStatus::kBadRequest) {
      out->errors++;
    }
  }
  sender.join();
  out->ops = ops;
  out->elapsed_seconds = static_cast<double>(NowMicros() - run_start) / 1e6;
}

RunStats MergeWorkers(std::vector<RunStats>& parts) {
  RunStats total;
  for (const RunStats& p : parts) {
    total.latency_us.Merge(p.latency_us);
    total.ops += p.ops;
    total.errors += p.errors;
    if (p.elapsed_seconds > total.elapsed_seconds) {
      total.elapsed_seconds = p.elapsed_seconds;
    }
  }
  return total;
}

// Pipelined PUT load of [0, records) split across the connections.
void LoadRecords(const Config& cfg, const std::string& host, uint16_t port,
                 uint64_t records) {
  std::vector<std::thread> threads;
  uint64_t per = (records + cfg.conns - 1) / cfg.conns;
  for (int c = 0; c < cfg.conns; c++) {
    uint64_t lo = per * static_cast<uint64_t>(c);
    uint64_t hi = std::min(records, lo + per);
    if (lo >= hi) break;
    threads.emplace_back([&, lo, hi, c] {
      std::unique_ptr<server::Client> client;
      CheckOk(server::Client::Connect(host, port, &client), "connect (load)");
      ycsb::ValueGenerator values(1234 + static_cast<uint64_t>(c));
      uint64_t outstanding = 0;
      for (uint64_t rec = lo; rec < hi; rec++) {
        std::string frame;
        server::EncodePut(&frame, client->NextId(),
                          ycsb::FormatKey(rec, /*hashed=*/true),
                          values.Next(rec, cfg.value_size));
        CheckOk(client->Send(frame), "send load put");
        outstanding++;
        if (outstanding >= static_cast<uint64_t>(cfg.pipeline)) {
          server::Response r;
          CheckOk(client->Recv(&r), "recv load ack");
          outstanding--;
        }
      }
      while (outstanding > 0) {
        server::Response r;
        CheckOk(client->Recv(&r), "recv load ack");
        outstanding--;
      }
    });
  }
  for (auto& t : threads) t.join();
}

RunStats RunClosed(const Config& cfg, const std::string& host, uint16_t port,
                   uint64_t ops, double read_proportion, uint64_t records) {
  std::vector<RunStats> parts(static_cast<size_t>(cfg.conns));
  std::vector<std::thread> threads;
  uint64_t per = ops / static_cast<uint64_t>(cfg.conns);
  for (int c = 0; c < cfg.conns; c++) {
    threads.emplace_back(ClosedLoopWorker, host, port, per, cfg.pipeline,
                         read_proportion, records, cfg.value_size,
                         42 + static_cast<uint64_t>(c),
                         &parts[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  return MergeWorkers(parts);
}

RunStats RunOpen(const Config& cfg, const std::string& host, uint16_t port,
                 uint64_t ops, double rate_per_second, double read_proportion,
                 uint64_t records) {
  std::vector<RunStats> parts(static_cast<size_t>(cfg.conns));
  std::vector<std::thread> threads;
  uint64_t per = ops / static_cast<uint64_t>(cfg.conns);
  double interval_us = 1e6 * cfg.conns / rate_per_second;
  for (int c = 0; c < cfg.conns; c++) {
    threads.emplace_back(OpenLoopWorker, host, port, per, interval_us,
                         read_proportion, records, cfg.value_size,
                         1042 + static_cast<uint64_t>(c),
                         &parts[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  return MergeWorkers(parts);
}

void ReportRun(bench::JsonReport* report, const char* workload,
               const char* mode, int shards, const Config& cfg,
               const RunStats& r) {
  double tput = r.elapsed_seconds > 0
                    ? static_cast<double>(r.ops) / r.elapsed_seconds
                    : 0;
  printf("  %-8s %-6s shards=%d conns=%d pipeline=%d  %9.0f ops/s  "
         "p50=%6.0fus  p99=%7.0fus  p99.9=%7.0fus  errors=%" PRIu64 "\n",
         workload, mode, shards, cfg.conns, cfg.pipeline, tput,
         r.latency_us.Percentile(50), r.latency_us.Percentile(99),
         r.latency_us.Percentile(99.9), r.errors);
  report->AddRow()
      .Str("workload", workload)
      .Str("mode", mode)
      .Num("shards", shards)
      .Num("connections", cfg.conns)
      .Num("pipeline", cfg.pipeline)
      .Num("ops", static_cast<double>(r.ops))
      .Num("errors", static_cast<double>(r.errors))
      .Num("elapsed_seconds", r.elapsed_seconds)
      .Num("ops_per_second", tput)
      .Num("latency_p50_us", r.latency_us.Percentile(50))
      .Num("latency_p99_us", r.latency_us.Percentile(99))
      .Num("latency_p999_us", r.latency_us.Percentile(99.9));
}

// Fetches the two counters syncs_per_op is derived from.
void FetchSyncCounters(const std::string& host, uint16_t port,
                       uint64_t* wal_syncs, uint64_t* write_ops) {
  std::unique_ptr<server::Client> client;
  CheckOk(server::Client::Connect(host, port, &client), "connect (stats)");
  std::map<std::string, uint64_t> stats;
  CheckOk(client->Stats(&stats), "STATS");
  *wal_syncs = stats["wal.syncs"];
  *write_ops = stats["server.write_ops"];
}

// The group-commit acceptance check: N connections all issuing synchronous
// PUTs (pipeline 1 — every client genuinely waits for durability). The
// shard worker folds queued writes from many connections into one engine
// Write, so WAL syncs per acknowledged op lands well below 1.
void RunSyncProbe(const Config& cfg, bench::JsonReport* report) {
  bench::PrintHeader("cross-connection group commit (sync writers)");
  std::string dir = cfg.dir + "/sync_probe";
  Env::Default()->RemoveDirRecursive(dir).IgnoreError("fresh on first run");
  server::ServerOptions options;
  options.dir = dir;
  options.shards = 2;
  options.engine.durability = DurabilityMode::kSync;
  std::unique_ptr<server::Server> srv;
  CheckOk(server::Server::Start(options, &srv), "start sync-probe server");

  const int conns = std::max(cfg.conns, 8);
  const uint64_t records = 2000;
  const uint64_t ops_per_conn =
      std::max<uint64_t>(bench::Scaled(4000) / conns, 200);

  uint64_t syncs_before = 0, ops_before = 0;
  FetchSyncCounters("127.0.0.1", srv->port(), &syncs_before, &ops_before);

  std::vector<RunStats> parts(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; c++) {
    threads.emplace_back(ClosedLoopWorker, std::string("127.0.0.1"),
                         srv->port(), ops_per_conn, /*pipeline=*/1,
                         /*read_proportion=*/0.0, records, cfg.value_size,
                         7000 + static_cast<uint64_t>(c),
                         &parts[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  RunStats total = MergeWorkers(parts);

  uint64_t syncs_after = 0, ops_after = 0;
  FetchSyncCounters("127.0.0.1", srv->port(), &syncs_after, &ops_after);
  srv->Stop();

  uint64_t dsyncs = syncs_after - syncs_before;
  uint64_t dops = ops_after - ops_before;
  double syncs_per_op =
      dops > 0 ? static_cast<double>(dsyncs) / static_cast<double>(dops) : 0;
  printf("  %d sync-writing conns: %" PRIu64 " ops, %" PRIu64
         " WAL syncs -> server.syncs_per_op = %.3f (%s)\n",
         conns, dops, dsyncs, syncs_per_op,
         syncs_per_op < 0.5 ? "group commit amortizing" : "NOT amortizing");
  report->AddRow()
      .Str("workload", "sync_put")
      .Str("mode", "closed")
      .Num("shards", 2)
      .Num("connections", conns)
      .Num("pipeline", 1)
      .Num("ops", static_cast<double>(total.ops))
      .Num("wal_syncs_delta", static_cast<double>(dsyncs))
      .Num("write_ops_delta", static_cast<double>(dops))
      .Num("syncs_per_op", syncs_per_op)
      .Num("latency_p50_us", total.latency_us.Percentile(50))
      .Num("latency_p99_us", total.latency_us.Percentile(99))
      .Num("latency_p999_us", total.latency_us.Percentile(99.9));
}

// YCSB-B (95/5) and YCSB-C (read-only) closed loop, plus one open-loop
// YCSB-B pass at ~70% of the measured closed-loop rate.
void RunWorkloads(const Config& cfg, const std::string& host, uint16_t port,
                  int shards, uint64_t records, uint64_t ops,
                  bench::JsonReport* report, double* ycsb_b_tput) {
  LoadRecords(cfg, host, port, records);
  RunStats b = RunClosed(cfg, host, port, ops, 0.95, records);
  ReportRun(report, "ycsb-b", "closed", shards, cfg, b);
  RunStats c = RunClosed(cfg, host, port, ops, 1.0, records);
  ReportRun(report, "ycsb-c", "closed", shards, cfg, c);
  double closed_rate = b.elapsed_seconds > 0
                           ? static_cast<double>(b.ops) / b.elapsed_seconds
                           : 1000;
  RunStats open =
      RunOpen(cfg, host, port, ops, 0.7 * closed_rate, 0.95, records);
  ReportRun(report, "ycsb-b", "open", shards, cfg, open);
  if (ycsb_b_tput != nullptr) *ycsb_b_tput = closed_rate;
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--host H --port P] [--shards-list 1,2,4,8]\n"
          "          [--conns N] [--pipeline N] [--records N] [--ops N]\n"
          "          [--value-size N]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      cfg.host = argv[++i];
    } else if (strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      cfg.port = static_cast<uint16_t>(atoi(argv[++i]));
    } else if (strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
      cfg.conns = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
      cfg.pipeline = atoi(argv[++i]);
    } else if (strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      cfg.records = static_cast<uint64_t>(atoll(argv[++i]));
    } else if (strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      cfg.ops = static_cast<uint64_t>(atoll(argv[++i]));
    } else if (strcmp(argv[i], "--value-size") == 0 && i + 1 < argc) {
      cfg.value_size = static_cast<size_t>(atoll(argv[++i]));
    } else if (strcmp(argv[i], "--shards-list") == 0 && i + 1 < argc) {
      cfg.shard_counts.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        cfg.shard_counts.push_back(atoi(p));
        while (*p != '\0' && *p != ',') p++;
        if (*p == ',') p++;
      }
    } else {
      return Usage(argv[0]);
    }
  }
  uint64_t records = cfg.records != 0 ? cfg.records : bench::Scaled(10000);
  uint64_t ops = cfg.ops != 0 ? cfg.ops : bench::Scaled(20000);

  bench::JsonReport report("server_ycsb");

  if (!cfg.host.empty()) {
    // External server (CI smoke): one pass, shard count unknown to us.
    bench::PrintHeader("server_ycsb against " + cfg.host + ":" +
                       std::to_string(cfg.port));
    RunWorkloads(cfg, cfg.host, cfg.port, /*shards=*/0, records, ops, &report,
                 nullptr);
    report.Write();
    return 0;
  }

  Env::Default()->RemoveDirRecursive(cfg.dir).IgnoreError(
      "scratch scrub; nothing to remove on the first run");
  CheckOk(Env::Default()->CreateDir(cfg.dir), "create bench dir");

  bench::PrintHeader("shard scaling, loopback YCSB-B/C (closed + open loop)");
  printf("  records=%" PRIu64 " ops/run=%" PRIu64 " conns=%d pipeline=%d "
         "(host has %u cores)\n",
         records, ops, cfg.conns, cfg.pipeline,
         std::thread::hardware_concurrency());
  double tput_first = 0, tput_last = 0;
  for (size_t i = 0; i < cfg.shard_counts.size(); i++) {
    int shards = cfg.shard_counts[i];
    server::ServerOptions options;
    options.dir = cfg.dir + "/shards" + std::to_string(shards);
    options.shards = shards;
    options.engine.durability = DurabilityMode::kAsync;
    std::unique_ptr<server::Server> srv;
    CheckOk(server::Server::Start(options, &srv), "start server");
    double tput = 0;
    RunWorkloads(cfg, "127.0.0.1", srv->port(), shards, records, ops, &report,
                 &tput);
    srv->Stop();
    if (i == 0) tput_first = tput;
    tput_last = tput;
  }
  if (cfg.shard_counts.size() > 1 && tput_first > 0) {
    printf("  ycsb-b closed-loop scaling %d -> %d shards: %.2fx\n",
           cfg.shard_counts.front(), cfg.shard_counts.back(),
           tput_last / tput_first);
    report.AddRow()
        .Str("workload", "ycsb-b")
        .Str("mode", "scaling")
        .Num("shards_lo", cfg.shard_counts.front())
        .Num("shards_hi", cfg.shard_counts.back())
        .Num("scaling_factor", tput_last / tput_first);
  }

  RunSyncProbe(cfg, &report);
  report.Write();
  return 0;
}
