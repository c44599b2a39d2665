// Event-log ingestion: the paper's motivating analytical workload (§1 —
// "applications that ingest event logs (such as user clicks and mobile
// device sensor readings), and later mine the data by issuing long scans,
// or targeted point queries").
//
// Multiple producer threads blind-write time-keyed events at full speed
// while an analytics thread concurrently runs long scans over recent
// windows. bLSM's spring-and-gear scheduler keeps ingest latency bounded
// while the merges churn in the background — the property that lets one
// store serve both the "fast path" and the analytical side (§1).
//
//   build/examples/event_log_ingest [events] [directory]

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "lsm/blsm_tree.h"
#include "util/histogram.h"
#include "util/random.h"

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Events are keyed by (sensor id, logical timestamp) so scans by sensor
// return time-ordered windows. Time-ordered keys are also "almost sorted"
// input — a regime §3.2 calls out as friendly to merge schedulers.
std::string EventKey(int sensor, uint64_t ts) {
  char buf[48];
  snprintf(buf, sizeof(buf), "ev:%04d:%016llu", sensor,
           static_cast<unsigned long long>(ts));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blsm;

  const uint64_t total_events = argc > 1 ? strtoull(argv[1], nullptr, 10)
                                         : 200000;
  std::string dir = argc > 2 ? argv[2] : "/tmp/blsm_event_log";
  constexpr int kProducers = 4;
  constexpr int kSensors = 64;

  BlsmOptions options;
  options.c0_target_bytes = 8 << 20;
  options.durability = DurabilityMode::kAsync;  // ingest pipelines replay
  std::unique_ptr<BlsmTree> tree;
  Status s = BlsmTree::Open(options, dir, &tree);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }

  printf("ingesting %" PRIu64 " events with %d producers + 1 analytics "
         "thread...\n", total_events, kProducers);

  std::atomic<uint64_t> next_event{0};
  std::atomic<bool> done{false};
  std::vector<Histogram> latencies(kProducers);

  uint64_t start = NowMicros();
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&, p] {
      Random rnd(1000 + p);
      std::string payload(512, 'e');
      while (true) {
        uint64_t seqno = next_event.fetch_add(1);
        if (seqno >= total_events) break;
        int sensor = static_cast<int>(rnd.Uniform(kSensors));
        uint64_t begin = NowMicros();
        Status ws = tree->Put(EventKey(sensor, seqno), payload);
        latencies[p].Add(NowMicros() - begin);
        if (!ws.ok()) {
          fprintf(stderr, "put failed: %s\n", ws.ToString().c_str());
          return;
        }
      }
    });
  }

  // Analytics: long scans over one sensor's recent history, concurrent with
  // ingest (the paper's "unified" workload — no separate analytical copy).
  std::thread analytics([&] {
    Random rnd(7);
    std::vector<std::pair<std::string, std::string>> window;
    uint64_t scans = 0, rows = 0;
    while (!done.load()) {
      int sensor = static_cast<int>(rnd.Uniform(kSensors));
      if (tree->Scan(EventKey(sensor, 0), 500, &window).ok()) {
        scans++;
        rows += window.size();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    printf("analytics: %" PRIu64 " scans, %" PRIu64 " rows read while "
           "ingest ran\n", scans, rows);
  });

  for (auto& t : producers) t.join();
  done.store(true);
  analytics.join();
  double elapsed = static_cast<double>(NowMicros() - start) / 1e6;

  Histogram merged;
  for (const auto& h : latencies) merged.Merge(h);
  printf("ingest: %.0f events/s over %.1fs\n",
         static_cast<double>(total_events) / elapsed, elapsed);
  printf("write latency: %s\n", merged.ToString().c_str());
  printf("backpressure applied: %.1f ms total (bounded per write by the "
         "spring)\n",
         static_cast<double>(tree->stats().write_stall_micros.load()) / 1000);

  // Point queries on the ingested log (the "targeted point queries" of §1).
  std::vector<std::pair<std::string, std::string>> first;
  s = tree->Scan("ev:", 1, &first);
  if (!s.ok()) fprintf(stderr, "scan: %s\n", s.ToString().c_str());
  if (!first.empty()) {
    std::string value;
    s = tree->Get(first[0].first, &value);
    printf("point query of event %s: %s\n", first[0].first.c_str(),
           s.ok() ? "found" : s.ToString().c_str());
  }

  tree->WaitIdle();
  printf("final on-disk size: %.1f MB across the three components\n",
         static_cast<double>(tree->OnDiskBytes()) / 1e6);
  return 0;
}
