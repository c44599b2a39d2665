#ifndef BLSM_IO_URING_ENV_H_
#define BLSM_IO_URING_ENV_H_

#include <memory>
#include <string>

#include "io/env.h"

namespace blsm {

// Knobs for the io_uring environment. Defaults favor portability: buffered
// page-cache reads with batched submission. direct_io turns on O_DIRECT for
// data reads, served through a per-file aligned-buffer pool (registered
// with the ring) so callers keep the byte-granular Read/MultiRead contract
// while the device sees only sector-aligned transfers.
struct UringEnvOptions {
  bool direct_io = false;
  // Test hook: forge EINVAL on the Nth direct write of each writable file
  // (-1 = never), exercising the mid-stream buffered fallback that real
  // filesystems only trigger on exotic mounts.
  int direct_write_einval_after = -1;
};

// Env backed by io_uring (raw syscalls; no liburing dependency): each
// random-access file owns a submission/completion ring, so a MultiRead of N
// blocks is one batched SQE submission + one io_uring_enter instead of N
// pread syscalls. Sequential and RW files (log recovery, B-tree pages),
// which gain little from ring batching, and all metadata operations
// delegate to `base` (Env::Default() when null) through EnvWrapper.
//
// Fallback matrix (every row keeps the full Env contract):
//   * kernel without io_uring / sandboxed io_uring_setup  -> pure
//     pass-through to `base` (the preadv-batching posix env);
//   * ring creation fails for one file (fd/memlock limits) -> that file
//     alone falls back to `base`;
//   * filesystem rejects O_DIRECT (tmpfs)                  -> that file
//     reopens buffered, ring submission retained.
// using_uring() reports which side of the first fork this env landed on.
class UringEnv final : public EnvWrapper {
 public:
  explicit UringEnv(Env* base = nullptr, UringEnvOptions options = {});
  ~UringEnv() override;
  UringEnv(const UringEnv&) = delete;
  UringEnv& operator=(const UringEnv&) = delete;

  // True when this kernel accepts io_uring_setup and completes an
  // IORING_OP_READ (one probe per process, cached). False on non-Linux
  // builds, pre-5.6 kernels, and seccomp jails that deny the syscalls.
  static bool Supported();

  bool using_uring() const { return uring_ok_; }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;

  // The ring files' counters (the base's when io_uring is unsupported).
  // Sequential and RW files are the base Env's and count there.
  const EnvIoCounters* io_counters() const override;

 private:
  UringEnvOptions options_;
  bool uring_ok_;
  EnvIoCounters counters_;
};

}  // namespace blsm

#endif  // BLSM_IO_URING_ENV_H_
