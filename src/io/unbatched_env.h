#ifndef BLSM_IO_UNBATCHED_ENV_H_
#define BLSM_IO_UNBATCHED_ENV_H_

#include <memory>
#include <string>

#include "io/env.h"

namespace blsm {

// Decorator that strips the batched-IO surface from an Env: MultiRead is
// forced back to the one-synchronous-Read-per-request default. Benchmarks
// and parity tests wrap an env in this to get the "synchronous baseline"
// lane with everything else held identical.

namespace unbatched_internal {

class UnbatchedRandomAccessFile final : public RandomAccessFile {
 public:
  explicit UnbatchedRandomAccessFile(std::unique_ptr<RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return base_->Read(offset, n, result, scratch);
  }
  Status MultiRead(ReadRequest* reqs, size_t n) const override {
    // The serial default loop, deliberately not forwarded to the base.
    return RandomAccessFile::MultiRead(reqs, n);
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
};

}  // namespace unbatched_internal

class UnbatchedEnv final : public EnvWrapper {
 public:
  explicit UnbatchedEnv(Env* base) : EnvWrapper(base) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = base()->NewRandomAccessFile(fname, &file);
    if (!s.ok()) return s;
    *result = std::make_unique<unbatched_internal::UnbatchedRandomAccessFile>(
        std::move(file));
    return Status::OK();
  }
};

}  // namespace blsm

#endif  // BLSM_IO_UNBATCHED_ENV_H_
