#ifndef BLSM_IO_COUNTING_ENV_H_
#define BLSM_IO_COUNTING_ENV_H_

#include <atomic>
#include <memory>
#include <string>

#include "io/env.h"

namespace blsm {

// I/O statistics in the units the paper reasons in (§2.1): seeks for reads,
// bytes for sequential transfer. A read or write is a "seek" when its offset
// is not contiguous with the previous access to the same file handle.
struct IoStats {
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> read_seeks{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> write_seeks{0};  // random (non-append) writes
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> syncs{0};

  void Reset() {
    read_ops = 0;
    read_seeks = 0;
    read_bytes = 0;
    write_ops = 0;
    write_seeks = 0;
    write_bytes = 0;
    syncs = 0;
  }

  // Snapshot for arithmetic (atomics are not copyable).
  struct Snapshot {
    uint64_t read_ops, read_seeks, read_bytes;
    uint64_t write_ops, write_seeks, write_bytes;
    uint64_t syncs;

    Snapshot operator-(const Snapshot& b) const {
      return Snapshot{read_ops - b.read_ops,     read_seeks - b.read_seeks,
                      read_bytes - b.read_bytes, write_ops - b.write_ops,
                      write_seeks - b.write_seeks,
                      write_bytes - b.write_bytes, syncs - b.syncs};
    }
  };

  Snapshot snapshot() const {
    return Snapshot{read_ops.load(),   read_seeks.load(), read_bytes.load(),
                    write_ops.load(),  write_seeks.load(),
                    write_bytes.load(), syncs.load()};
  }
};

// Env decorator: forwards everything to a base Env while classifying and
// counting each file access into an IoStats owned by the caller.
class CountingEnv final : public EnvWrapper {
 public:
  CountingEnv(Env* base, IoStats* stats) : EnvWrapper(base), stats_(stats) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;

  IoStats* stats() { return stats_; }

 private:
  IoStats* stats_;
};

}  // namespace blsm

#endif  // BLSM_IO_COUNTING_ENV_H_
