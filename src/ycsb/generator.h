#ifndef BLSM_YCSB_GENERATOR_H_
#define BLSM_YCSB_GENERATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/random.h"
#include "util/zipfian.h"

namespace blsm::ycsb {

// Request distributions supported by the YCSB-style generator (§5.1: the
// paper uses uniform and zipfian with YCSB's default parameters).
enum class Distribution { kUniform, kZipfian, kLatest, kSequential };

// Formats a record id as a YCSB-style key. `hashed` scatters ids across the
// keyspace (YCSB's default "hashed" insert order — the unordered load of
// §5.2); unhashed ids produce the pre-sorted load InnoDB needs.
std::string FormatKey(uint64_t id, bool hashed);

// Per-thread chooser of which existing record an operation targets. The
// record space is [0, record_count + inserts_so_far), where the insert
// counter is shared across threads.
class KeyChooser {
 public:
  KeyChooser(Distribution dist, uint64_t record_count,
             const std::atomic<uint64_t>* shared_inserts, uint64_t seed);

  // Record id of the next operation's target.
  uint64_t Next();

 private:
  Distribution dist_;
  uint64_t base_count_;
  const std::atomic<uint64_t>* shared_inserts_;
  Random rng_;
  std::unique_ptr<ScrambledZipfianGenerator> zipf_;
  uint64_t zipf_items_ = 0;
  std::unique_ptr<LatestGenerator> latest_;
  uint64_t sequential_next_ = 0;
};

// Deterministic value payloads. Values are printable and carry the record
// id at the front so correctness checks can verify reads. Next() is a pure
// function of (seed, record_id, size): any generator built with the same
// seed regenerates the value a load wrote, whatever it produced before.
class ValueGenerator {
 public:
  explicit ValueGenerator(uint64_t seed) : seed_(seed) {}

  std::string Next(uint64_t record_id, size_t size) const;

 private:
  uint64_t seed_;
};

}  // namespace blsm::ycsb

#endif  // BLSM_YCSB_GENERATOR_H_
