#ifndef BLSM_IO_MEM_ENV_H_
#define BLSM_IO_MEM_ENV_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "io/env.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace blsm {

// In-memory filesystem for unit tests: fast, hermetic, and makes crash
// simulation trivial (DropUnsynced discards bytes appended after the last
// Sync, modelling a power failure).
class MemEnv final : public Env {
 public:
  MemEnv();
  ~MemEnv() override;

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override;

  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  // Overridden to erase everything under the path prefix in one step: a
  // file here needs no explicitly created parent, and the default walk's
  // RemoveDir of such an implied directory would report NotFound.
  Status RemoveDirRecursive(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;

  uint64_t NowMicros() override;
  void SleepForMicroseconds(uint64_t micros) override;

  // Crash simulation: truncates every file back to its last-synced length.
  void DropUnsynced();

  const EnvIoCounters* io_counters() const override { return &counters_; }

  struct FileState;  // public so file implementations in the .cc can use it

 private:
  util::Mutex mu_{util::lock_rank::kMemEnvMu};
  std::map<std::string, std::shared_ptr<FileState>> files_ GUARDED_BY(mu_);
  std::set<std::string> dirs_ GUARDED_BY(mu_);
  EnvIoCounters counters_;
};

}  // namespace blsm

#endif  // BLSM_IO_MEM_ENV_H_
