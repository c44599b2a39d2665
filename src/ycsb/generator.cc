#include "ycsb/generator.h"

#include <cstdio>

#include "util/hash.h"

namespace blsm::ycsb {

std::string FormatKey(uint64_t id, bool hashed) {
  uint64_t v = id;
  if (hashed) {
    v = Hash64(reinterpret_cast<const char*>(&id), sizeof(id), 0x5c5b0000ull);
  }
  char buf[32];
  snprintf(buf, sizeof(buf), "user%020llu", static_cast<unsigned long long>(v));
  return buf;
}

KeyChooser::KeyChooser(Distribution dist, uint64_t record_count,
                       const std::atomic<uint64_t>* shared_inserts,
                       uint64_t seed)
    : dist_(dist),
      base_count_(record_count),
      shared_inserts_(shared_inserts),
      rng_(seed) {
  uint64_t n = record_count > 0 ? record_count : 1;
  switch (dist_) {
    case Distribution::kZipfian:
      zipf_ = std::make_unique<ScrambledZipfianGenerator>(n, seed);
      zipf_items_ = n;
      break;
    case Distribution::kLatest:
      latest_ = std::make_unique<LatestGenerator>(n, seed);
      break;
    default:
      break;
  }
}

uint64_t KeyChooser::Next() {
  uint64_t count = base_count_;
  if (shared_inserts_ != nullptr) {
    count += shared_inserts_->load(std::memory_order_relaxed);
  }
  if (count == 0) count = 1;
  switch (dist_) {
    case Distribution::kUniform:
      return rng_.Uniform(count);
    case Distribution::kZipfian:
      // The zipfian item space grows as inserts land.
      if (count > zipf_items_) {
        zipf_->SetItemCount(count);
        zipf_items_ = count;
      }
      return zipf_->Next() % count;
    case Distribution::kLatest:
      latest_->SetItemCount(count);
      return latest_->Next();
    case Distribution::kSequential:
      return sequential_next_++ % count;
  }
  return 0;
}

std::string ValueGenerator::Next(uint64_t record_id, size_t size) const {
  Random rng(Hash64(reinterpret_cast<const char*>(&record_id),
                    sizeof(record_id), seed_));
  std::string value;
  value.reserve(size);
  char header[32];
  int n = snprintf(header, sizeof(header), "r%llu:",
                   static_cast<unsigned long long>(record_id));
  value.append(header, static_cast<size_t>(n));
  static const char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  while (value.size() < size) {
    value.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
  }
  value.resize(size);
  return value;
}

}  // namespace blsm::ycsb
