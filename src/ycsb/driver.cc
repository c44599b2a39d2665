#include "ycsb/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace blsm::ycsb {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Shared accumulator for the per-interval timeseries.
class TimeSeries {
 public:
  explicit TimeSeries(double bucket_seconds)
      : bucket_us_(static_cast<uint64_t>(bucket_seconds * 1e6)) {}

  void Record(uint64_t elapsed_us, uint64_t latency_us, uint64_t ops = 1)
      EXCLUDES(mu_) {
    size_t idx = elapsed_us / bucket_us_;
    util::MutexLock l(&mu_);
    if (buckets_.size() <= idx) buckets_.resize(idx + 1);
    buckets_[idx].ops += ops;
    buckets_[idx].max_latency_us =
        std::max(buckets_[idx].max_latency_us, latency_us);
  }

  // Covers [0, elapsed_us) with buckets, the last one cut short at the end
  // of the run.
  std::vector<TimeBucket> Finish(uint64_t elapsed_us) EXCLUDES(mu_) {
    util::MutexLock l(&mu_);
    const size_t count = std::max<size_t>(
        1, static_cast<size_t>((elapsed_us + bucket_us_ - 1) / bucket_us_));
    if (buckets_.size() > count) {
      // An op that ended exactly at elapsed_us opened a zero-width bucket;
      // fold it into the one before.
      TimeBucket& last = buckets_[count - 1];
      for (size_t i = count; i < buckets_.size(); i++) {
        last.ops += buckets_[i].ops;
        last.max_latency_us =
            std::max(last.max_latency_us, buckets_[i].max_latency_us);
      }
    }
    buckets_.resize(count);
    for (size_t i = 0; i < count; i++) {
      uint64_t start_us = i * bucket_us_;
      buckets_[i].start_seconds = static_cast<double>(start_us) / 1e6;
      buckets_[i].seconds =
          static_cast<double>(std::min(bucket_us_, elapsed_us - start_us)) /
          1e6;
    }
    return buckets_;
  }

 private:
  uint64_t bucket_us_;
  util::Mutex mu_{util::lock_rank::kTimeSeriesMu};
  std::vector<TimeBucket> buckets_ GUARDED_BY(mu_);
};

}  // namespace

RunResult RunWorkload(kv::Engine* engine, const WorkloadSpec& spec,
                      const DriverOptions& options) {
  RunResult result;
  result.label = engine->Name() + "/" + spec.name;
  EnvIoCounters::Snapshot io_before{};
  if (options.io_stats != nullptr) io_before = options.io_stats->snapshot();

  std::atomic<uint64_t> next_op{0};
  std::atomic<uint64_t> inserts{0};
  std::atomic<uint64_t> errors{0};
  TimeSeries series(options.bucket_seconds);
  std::vector<Histogram> histograms(options.threads);

  const uint64_t start_us = NowMicros();
  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  for (int t = 0; t < options.threads; t++) {
    threads.emplace_back([&, t] {
      uint64_t seed = options.seed * 1000003 + static_cast<uint64_t>(t);
      KeyChooser chooser(spec.distribution, spec.record_count, &inserts, seed);
      Random op_rng(seed ^ 0xfee1deadull);
      ValueGenerator values(seed ^ 0x7a11ull);
      Histogram& hist = histograms[t];
      std::vector<std::pair<std::string, std::string>> scan_out;

      while (true) {
        uint64_t op = next_op.fetch_add(1, std::memory_order_relaxed);
        if (op >= options.operations) break;
        double dice = op_rng.NextDouble();
        uint64_t begin = NowMicros();
        Status s;
        if (dice < spec.update_proportion) {
          uint64_t id = chooser.Next();
          s = engine->Put(FormatKey(id, true),
                          values.Next(id, spec.value_size));
        } else if (dice < spec.update_proportion + spec.insert_proportion) {
          uint64_t id =
              spec.record_count + inserts.fetch_add(1, std::memory_order_relaxed);
          s = engine->Put(FormatKey(id, true),
                          values.Next(id, spec.value_size));
        } else if (dice < spec.update_proportion + spec.insert_proportion +
                              spec.rmw_proportion) {
          uint64_t id = chooser.Next();
          std::string fresh = values.Next(id, spec.value_size);
          s = engine->ReadModifyWrite(
              FormatKey(id, true),
              [&fresh](const std::string&, bool) { return fresh; });
        } else if (dice < spec.update_proportion + spec.insert_proportion +
                              spec.rmw_proportion + spec.scan_proportion) {
          uint64_t id = chooser.Next();
          uint64_t len = 1 + op_rng.Uniform(spec.max_scan_len);
          s = engine->Scan(FormatKey(id, true), len, &scan_out);
        } else {
          uint64_t id = chooser.Next();
          std::string value;
          s = engine->Get(FormatKey(id, true), &value);
          if (s.IsNotFound()) s = Status::OK();  // unloaded key: fine
        }
        uint64_t end = NowMicros();
        if (!s.ok() && !s.IsKeyExists()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        hist.Add(end - begin);
        series.Record(end - start_us, end - begin);
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t elapsed_us = NowMicros() - start_us;
  result.elapsed_seconds = static_cast<double>(elapsed_us) / 1e6;
  result.ops = std::min<uint64_t>(next_op.load(), options.operations);
  result.errors = errors.load();
  for (const auto& h : histograms) result.latency_us.Merge(h);
  result.timeseries = series.Finish(elapsed_us);
  if (options.io_stats != nullptr) {
    result.io = options.io_stats->snapshot() - io_before;
  }
  return result;
}

RunResult RunLoad(kv::Engine* engine, const WorkloadSpec& spec,
                  const DriverOptions& options, bool check_exists,
                  bool sorted) {
  RunResult result;
  result.label = engine->Name() + "/load";
  EnvIoCounters::Snapshot io_before{};
  if (options.io_stats != nullptr) io_before = options.io_stats->snapshot();

  std::atomic<uint64_t> next_id{0};
  std::atomic<uint64_t> errors{0};
  TimeSeries series(options.bucket_seconds);
  std::vector<Histogram> histograms(options.threads);
  // The existence probe is inherently per-record, so batching only applies
  // to the blind-insert load.
  const uint64_t batch_size =
      check_exists ? 1 : std::max<uint64_t>(1, options.batch_size);

  const uint64_t start_us = NowMicros();
  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  for (int t = 0; t < options.threads; t++) {
    threads.emplace_back([&, t] {
      ValueGenerator values(options.seed * 7919 + static_cast<uint64_t>(t));
      Histogram& hist = histograms[t];
      kv::WriteBatch batch;
      while (true) {
        // Claim a contiguous range of ids so a batch stays one Write call.
        uint64_t first =
            next_id.fetch_add(batch_size, std::memory_order_relaxed);
        if (first >= spec.record_count) break;
        uint64_t limit = std::min(first + batch_size, spec.record_count);
        uint64_t begin = NowMicros();
        Status s;
        if (batch_size == 1) {
          std::string key = FormatKey(first, /*hashed=*/!sorted);
          std::string value = values.Next(first, spec.value_size);
          s = check_exists ? engine->InsertIfNotExists(key, value)
                           : engine->Put(key, value);
        } else {
          batch.Clear();
          for (uint64_t id = first; id < limit; id++) {
            batch.Put(FormatKey(id, /*hashed=*/!sorted),
                      values.Next(id, spec.value_size));
          }
          s = engine->Write(batch);
        }
        uint64_t end = NowMicros();
        if (!s.ok() && !s.IsKeyExists()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        // One latency sample per record so histograms stay comparable
        // across batch sizes.
        uint64_t per_record = (end - begin) / (limit - first);
        for (uint64_t id = first; id < limit; id++) hist.Add(per_record);
        series.Record(end - start_us, end - begin, limit - first);
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t elapsed_us = NowMicros() - start_us;
  result.elapsed_seconds = static_cast<double>(elapsed_us) / 1e6;
  result.ops = spec.record_count;
  result.errors = errors.load();
  for (const auto& h : histograms) result.latency_us.Merge(h);
  result.timeseries = series.Finish(elapsed_us);
  if (options.io_stats != nullptr) {
    result.io = options.io_stats->snapshot() - io_before;
  }
  return result;
}

}  // namespace blsm::ycsb
