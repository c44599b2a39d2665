#include "io/counting_env.h"

namespace blsm {

namespace {

// A read is contiguous (no seek) if it starts within kNearWindow bytes after
// the previous read's end on the same handle; drives service such accesses
// from read-ahead without repositioning.
constexpr uint64_t kNearWindow = 128 << 10;

class CountingSequentialFile final : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {
    // Opening a sequential file and starting to read is one repositioning.
    stats_->read_seeks.fetch_add(1, std::memory_order_relaxed);
  }

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = base_->Read(n, result, scratch);
    if (s.ok()) {
      stats_->read_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
    }
    return s;
  }

  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  IoStats* stats_;
};

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                           IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) {
      stats_->read_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
      uint64_t prev = last_end_.exchange(offset + result->size(),
                                         std::memory_order_relaxed);
      if (offset < prev || offset > prev + kNearWindow) {
        stats_->read_seeks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return s;
  }

  Status MultiRead(ReadRequest* reqs, size_t n) const override {
    // Forward the batch intact so the base env can coalesce/submit it as a
    // unit, then account each sub-read with the same seek classification a
    // serial Read sequence would have produced.
    Status s = base_->MultiRead(reqs, n);
    if (!s.ok()) return s;
    for (size_t i = 0; i < n; i++) {
      if (!reqs[i].status.ok()) continue;
      stats_->read_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->read_bytes.fetch_add(reqs[i].result.size(),
                                   std::memory_order_relaxed);
      uint64_t prev = last_end_.exchange(reqs[i].offset + reqs[i].result.size(),
                                         std::memory_order_relaxed);
      if (reqs[i].offset < prev || reqs[i].offset > prev + kNearWindow) {
        stats_->read_seeks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return Status::OK();
  }

  void ReadAheadHint(uint64_t offset, uint64_t len) const override {
    base_->ReadAheadHint(offset, len);
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  IoStats* stats_;
  mutable std::atomic<uint64_t> last_end_{~uint64_t{0} - kNearWindow};
};

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Append(const Slice& data) override {
    Status s = base_->Append(data);
    if (s.ok()) {
      stats_->write_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return s;
  }

  Status AppendV(const Slice* parts, size_t n) override {
    Status s = base_->AppendV(parts, n);
    if (s.ok()) {
      size_t total = 0;
      for (size_t i = 0; i < n; i++) total += parts[i].size();
      stats_->write_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->write_bytes.fetch_add(total, std::memory_order_relaxed);
    }
    return s;
  }

  size_t PreferredAppendAlignment() const override {
    return base_->PreferredAppendAlignment();
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    stats_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  IoStats* stats_;
};

class CountingRandomRWFile final : public RandomRWFile {
 public:
  CountingRandomRWFile(std::unique_ptr<RandomRWFile> base, IoStats* stats)
      : base_(std::move(base)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = base_->Read(offset, n, result, scratch);
    if (s.ok()) {
      stats_->read_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->read_bytes.fetch_add(result->size(), std::memory_order_relaxed);
      uint64_t prev = last_read_end_.exchange(offset + result->size(),
                                              std::memory_order_relaxed);
      if (offset < prev || offset > prev + kNearWindow) {
        stats_->read_seeks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return s;
  }

  Status Write(uint64_t offset, const Slice& data) override {
    Status s = base_->Write(offset, data);
    if (s.ok()) {
      stats_->write_ops.fetch_add(1, std::memory_order_relaxed);
      stats_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
      uint64_t prev = last_write_end_.exchange(offset + data.size(),
                                               std::memory_order_relaxed);
      if (offset < prev || offset > prev + kNearWindow) {
        stats_->write_seeks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return s;
  }

  Status Sync() override {
    stats_->syncs.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  IoStats* stats_;
  mutable std::atomic<uint64_t> last_read_end_{~uint64_t{0} - kNearWindow};
  std::atomic<uint64_t> last_write_end_{~uint64_t{0} - kNearWindow};
};

}  // namespace

Status CountingEnv::NewSequentialFile(const std::string& fname,
                                      std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> file;
  Status s = base()->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingSequentialFile>(std::move(file), stats_);
  return Status::OK();
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> file;
  Status s = base()->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  *result =
      std::make_unique<CountingRandomAccessFile>(std::move(file), stats_);
  return Status::OK();
}

Status CountingEnv::NewWritableFile(const std::string& fname,
                                    std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> file;
  Status s = base()->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingWritableFile>(std::move(file), stats_);
  return Status::OK();
}

Status CountingEnv::NewRandomRWFile(const std::string& fname,
                                    std::unique_ptr<RandomRWFile>* result) {
  std::unique_ptr<RandomRWFile> file;
  Status s = base()->NewRandomRWFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<CountingRandomRWFile>(std::move(file), stats_);
  return Status::OK();
}

}  // namespace blsm
