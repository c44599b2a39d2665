#ifndef BLSM_IO_ENV_H_
#define BLSM_IO_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace blsm {

// File and environment abstraction. Every engine in this repository performs
// its I/O through an Env so that (a) tests can run against an in-memory
// filesystem and (b) every access is counted, by the terminal Env that
// performs it, as a seek or a sequential transfer — the unit the paper's
// analysis is written in (§2.1). See EnvIoCounters.

// Sequential read-only file (log recovery, merges).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  // Reads up to n bytes. Sets *result to the data read (may point into
  // scratch). Returns OK with an empty result at end of file.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

// One read in a MultiRead batch. `scratch` is caller-owned and must hold at
// least `len` bytes; on completion `result` points at the bytes read (into
// scratch) and `status` carries this request's individual outcome. A read
// past EOF is OK with a short (possibly empty) result, matching Read().
struct ReadRequest {
  uint64_t offset = 0;
  size_t len = 0;
  char* scratch = nullptr;
  Slice result;
  Status status;
};

// Random-access read-only file (tree component reads).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  // Batched reads: fills reqs[0..n)'s result/status fields. The returned
  // Status reflects submission of the batch as a whole — it is OK even when
  // individual requests fail, so one bad sub-read never poisons its
  // batchmates; callers must check each reqs[i].status. The default issues
  // the requests one synchronous Read at a time; environments that can
  // batch (io_uring, preadv coalescing) override it.
  virtual Status MultiRead(ReadRequest* reqs, size_t n) const;

  // Advisory prefetch: the caller expects to Read [offset, offset+len)
  // soon. Never fails and may do nothing (the default). Implementations
  // typically hand the range to the kernel readahead machinery.
  virtual void ReadAheadHint(uint64_t offset, uint64_t len) const {
    (void)offset;
    (void)len;
  }
};

// Append-only writable file (logs, tree component builds).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;

  // Gathered append: parts[0..n) land back to back, as if Append()ed in
  // order. One call gives alignment-aware backends (O_DIRECT with an
  // aligned buffer pool) the whole payload at once instead of fragment by
  // fragment. Default: an Append loop.
  virtual Status AppendV(const Slice* parts, size_t n) {
    for (size_t i = 0; i < n; i++) {
      Status s = Append(parts[i]);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  // The append granularity this file performs best at; pre-sizing buffers
  // to a multiple of it lets the backend write without re-buffering. 1
  // means "no preference" (plain buffered POSIX). Direct-IO backends
  // report their sector/page alignment.
  virtual size_t PreferredAppendAlignment() const { return 1; }

  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

// Read/write file with positional access (update-in-place B-tree pages).
class RandomRWFile {
 public:
  virtual ~RandomRWFile() = default;

  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  virtual Status Write(uint64_t offset, const Slice& data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

// Cumulative data-path totals owned by a terminal Env implementation
// (posix, uring, mem): the Env at the bottom of a stack, which does the real
// IO, counts every op, byte and seek into its own EnvIoCounters. Decorator
// Envs forward io_counters() to their base (EnvWrapper does it for them), so
// whatever wrapper stack an engine runs on, Engine::Stats() and the bench
// device models see the totals of the environment that touched the bytes.
//
// Seeks are counted in the units the paper reasons in (§2.1), per file
// handle: a read is a seek unless it starts within 128 KiB after the
// previous read's end on the same handle (a drive serves that from
// read-ahead without repositioning), so a handle's first read is a seek;
// opening a sequential file costs one seek; appends never seek; positional
// RandomRWFile writes are classified like reads, against the previous
// write. A batched MultiRead counts each request as the serial Read would.
struct EnvIoCounters {
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> read_seeks{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> write_seeks{0};  // positional (non-append) writes
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> syncs{0};
  // MultiRead calls that reached this Env (each covering >= 1 requests).
  std::atomic<uint64_t> multiread_batches{0};
  std::atomic<uint64_t> multiread_requests{0};
  // Reads that landed inside a previously hinted range — how often
  // ReadAheadHint actually fronted a later access.
  std::atomic<uint64_t> readahead_hits{0};
  std::atomic<uint64_t> readahead_hints{0};
  // Writes submitted as ring SQEs (vs synchronous pwrite), and direct-IO
  // writers that hit a mid-stream EINVAL and re-opened buffered.
  std::atomic<uint64_t> ring_writes{0};
  std::atomic<uint64_t> direct_write_fallbacks{0};

  // Every field, copied out for arithmetic (atomics are not copyable).
  struct Snapshot {
    uint64_t read_ops = 0, read_seeks = 0, read_bytes = 0;
    uint64_t write_ops = 0, write_seeks = 0, write_bytes = 0;
    uint64_t syncs = 0;
    uint64_t multiread_batches = 0, multiread_requests = 0;
    uint64_t readahead_hits = 0, readahead_hints = 0;
    uint64_t ring_writes = 0, direct_write_fallbacks = 0;

    Snapshot operator-(const Snapshot& b) const;
  };
  Snapshot snapshot() const;

  // One sequential transfer: a SequentialFile read or an append.
  void CountSequentialRead(uint64_t bytes) {
    read_ops.fetch_add(1, std::memory_order_relaxed);
    read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void CountAppend(uint64_t bytes) {
    write_ops.fetch_add(1, std::memory_order_relaxed);
    write_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
};

// Per-file-handle accounting for positional access: remembers where the
// previous read and write ended (seek classification) and the most recent
// hinted range (hints from sequential scans advance monotonically, so one
// range is enough). Each terminal read site makes one OnRead call per
// completed read, which counts the op, its bytes, its seek and its
// readahead hit. Terminal files hold it `mutable`: Read is const.
class FileIoTracker {
 public:
  void OnRead(uint64_t offset, uint64_t bytes, EnvIoCounters* c) {
    c->read_ops.fetch_add(1, std::memory_order_relaxed);
    c->read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (IsSeek(&read_end_, offset, bytes)) {
      c->read_seeks.fetch_add(1, std::memory_order_relaxed);
    }
    if (offset >= hint_start_.load(std::memory_order_relaxed) &&
        offset < hint_end_.load(std::memory_order_relaxed)) {
      c->readahead_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void OnWrite(uint64_t offset, uint64_t bytes, EnvIoCounters* c) {
    c->write_ops.fetch_add(1, std::memory_order_relaxed);
    c->write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    if (IsSeek(&write_end_, offset, bytes)) {
      c->write_seeks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Hint(uint64_t offset, uint64_t len, EnvIoCounters* c) {
    c->readahead_hints.fetch_add(1, std::memory_order_relaxed);
    hint_start_.store(offset, std::memory_order_relaxed);
    hint_end_.store(offset + len, std::memory_order_relaxed);
  }

 private:
  static constexpr uint64_t kNearWindow = 128 << 10;
  // Initial ends make the first access a seek at any offset.
  static constexpr uint64_t kNoAccess = ~uint64_t{0} - kNearWindow;

  // Records this access's end; true unless it starts within kNearWindow
  // after the previous access's end.
  static bool IsSeek(std::atomic<uint64_t>* end, uint64_t offset,
                     uint64_t bytes) {
    uint64_t prev = end->exchange(offset + bytes, std::memory_order_relaxed);
    return offset < prev || offset > prev + kNearWindow;
  }

  std::atomic<uint64_t> read_end_{kNoAccess};
  std::atomic<uint64_t> write_end_{kNoAccess};
  std::atomic<uint64_t> hint_start_{1};
  std::atomic<uint64_t> hint_end_{0};  // empty range until the first hint
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  virtual Status NewRandomRWFile(const std::string& fname,
                                 std::unique_ptr<RandomRWFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  // Removes an empty directory; NotFound if it does not exist.
  virtual Status RemoveDir(const std::string& dirname) = 0;
  // Removes `dirname` and everything under it, to any depth. A missing
  // directory is success (the desired state already holds). The default
  // walks GetChildren depth-first; MemEnv overrides it to also clear
  // directories that were never created explicitly.
  virtual Status RemoveDirRecursive(const std::string& dirname);
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  virtual uint64_t NowMicros() = 0;
  virtual void SleepForMicroseconds(uint64_t micros) = 0;

  // Data-path totals for this environment, or nullptr when untracked.
  // Decorators forward to their base so the terminal Env's counters are
  // visible through any wrapper stack.
  virtual const EnvIoCounters* io_counters() const { return nullptr; }

  // Process-wide default environment (POSIX). Never deleted.
  static Env* Default();
};

// The one forwarding base for Env decorators: every Env call goes to the
// wrapped `base`, so a decorator overrides only the calls whose behaviour
// it changes and can never drift out of step with the interface.
//
// There is deliberately no file-level counterpart. The file interfaces'
// defaults (AppendV as an Append loop, MultiRead as a Read loop,
// ReadAheadHint as a no-op) route through a file decorator's own
// overrides; forwarding them to the wrapped file instead would silently
// bypass per-fragment fault rolls or a forced-serial MultiRead.
class EnvWrapper : public Env {
 public:
  explicit EnvWrapper(Env* base) : base_(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override {
    return base_->NewRandomRWFile(fname, result);
  }

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status RemoveDirRecursive(const std::string& dirname) override {
    return base_->RemoveDirRecursive(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(uint64_t micros) override {
    base_->SleepForMicroseconds(micros);
  }

  const EnvIoCounters* io_counters() const override {
    return base_->io_counters();
  }

 protected:
  Env* base() const { return base_; }

 private:
  Env* const base_;
};

// Convenience helpers.
Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname,
                         bool sync);
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

}  // namespace blsm

#endif  // BLSM_IO_ENV_H_
