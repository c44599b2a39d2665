#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "io/env.h"

namespace blsm {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) {
    return Status::NotFound(context + ": " + strerror(err));
  }
  return Status::IOError(context + ": " + strerror(err));
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd, EnvIoCounters* counters)
      : fname_(std::move(fname)), fd_(fd), counters_(counters) {
    counters_->read_seeks.fetch_add(1, std::memory_order_relaxed);
  }
  ~PosixSequentialFile() override { close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      counters_->CountSequentialRead(static_cast<uint64_t>(r));
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
  EnvIoCounters* counters_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, EnvIoCounters* counters)
      : fname_(std::move(fname)), fd_(fd), counters_(counters) {}
  ~PosixRandomAccessFile() override { close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t r = pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) return PosixError(fname_, errno);
    tracker_.OnRead(offset, static_cast<uint64_t>(r), counters_);
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  // Batched path: maximal runs of contiguous requests collapse into one
  // preadv each, so a MultiGet whose target blocks are adjacent on disk
  // costs one syscall instead of one per block. Non-contiguous requests
  // fall back to individual preads; per-request statuses throughout. Each
  // request is counted as the serial Read of it would be.
  Status MultiRead(ReadRequest* reqs, size_t n) const override {
    counters_->multiread_batches.fetch_add(1, std::memory_order_relaxed);
    counters_->multiread_requests.fetch_add(n, std::memory_order_relaxed);
    constexpr size_t kMaxIov = 64;
    size_t i = 0;
    while (i < n) {
      size_t j = i + 1;
      while (j < n && j - i < kMaxIov &&
             reqs[j].offset == reqs[j - 1].offset + reqs[j - 1].len) {
        j++;
      }
      if (j - i == 1) {
        reqs[i].status = Read(reqs[i].offset, reqs[i].len, &reqs[i].result,
                              reqs[i].scratch);
      } else {
        ReadRun(&reqs[i], j - i);
      }
      i = j;
    }
    return Status::OK();
  }

 private:
  // One preadv over a contiguous run. A short count (EOF or a signal) falls
  // back to per-request reads for the unfinished tail, so the results (and
  // the counters) are identical to the one-pread-at-a-time path.
  void ReadRun(ReadRequest* reqs, size_t count) const {
    struct iovec iov[64];
    size_t total = 0;
    for (size_t k = 0; k < count; k++) {
      iov[k].iov_base = reqs[k].scratch;
      iov[k].iov_len = reqs[k].len;
      total += reqs[k].len;
    }
    ssize_t r;
    do {
      r = preadv(fd_, iov, static_cast<int>(count),
                 static_cast<off_t>(reqs[0].offset));
    } while (r < 0 && errno == EINTR);
    if (r < 0) {
      Status s = PosixError(fname_, errno);
      for (size_t k = 0; k < count; k++) reqs[k].status = s;
      return;
    }
    size_t got = static_cast<size_t>(r);
    size_t k = 0;
    for (; k < count && got >= reqs[k].len; k++) {
      reqs[k].result = Slice(reqs[k].scratch, reqs[k].len);
      reqs[k].status = Status::OK();
      tracker_.OnRead(reqs[k].offset, reqs[k].len, counters_);
      got -= reqs[k].len;
    }
    for (; k < count; k++) {
      reqs[k].status = Read(reqs[k].offset, reqs[k].len, &reqs[k].result,
                            reqs[k].scratch);
    }
  }

  std::string fname_;
  int fd_;
  EnvIoCounters* counters_;
  mutable FileIoTracker tracker_;
};

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd, EnvIoCounters* counters)
      : fname_(std::move(fname)), fd_(fd), counters_(counters) {
    buf_.reserve(kBufferSize);
  }
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      Close().IgnoreError("destructor has no caller to report to");
    }
  }

  Status Append(const Slice& data) override { return AppendV(&data, 1); }

  Status AppendV(const Slice* parts, size_t n) override {
    size_t total = 0;
    for (size_t i = 0; i < n; i++) {
      Status s = Buffer(parts[i]);
      if (!s.ok()) return s;
      total += parts[i].size();
    }
    counters_->CountAppend(total);
    return Status::OK();
  }

  Status Flush() override { return FlushBuffered(); }

  Status Sync() override {
    Status s = FlushBuffered();
    if (!s.ok()) return s;
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    if (fdatasync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    Status s = FlushBuffered();
    if (close(fd_) != 0 && s.ok()) s = PosixError(fname_, errno);
    fd_ = -1;
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 64 << 10;

  Status Buffer(const Slice& data) {
    if (buf_.size() + data.size() <= kBufferSize) {
      buf_.append(data.data(), data.size());
      return Status::OK();
    }
    Status s = FlushBuffered();
    if (!s.ok()) return s;
    if (data.size() <= kBufferSize) {
      buf_.append(data.data(), data.size());
      return Status::OK();
    }
    return WriteRaw(data.data(), data.size());
  }

  Status FlushBuffered() {
    Status s = Status::OK();
    if (!buf_.empty()) {
      s = WriteRaw(buf_.data(), buf_.size());
      buf_.clear();
    }
    return s;
  }

  Status WriteRaw(const char* p, size_t n) {
    while (n > 0) {
      ssize_t r = write(fd_, p, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += r;
      n -= static_cast<size_t>(r);
    }
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  EnvIoCounters* counters_;
  std::string buf_;
};

class PosixRandomRWFile final : public RandomRWFile {
 public:
  PosixRandomRWFile(std::string fname, int fd, EnvIoCounters* counters)
      : fname_(std::move(fname)), fd_(fd), counters_(counters) {}
  ~PosixRandomRWFile() override {
    if (fd_ >= 0) close(fd_);
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t r = pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) return PosixError(fname_, errno);
    tracker_.OnRead(offset, static_cast<uint64_t>(r), counters_);
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    const char* p = data.data();
    size_t n = data.size();
    off_t off = static_cast<off_t>(offset);
    while (n > 0) {
      ssize_t r = pwrite(fd_, p, n, off);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += r;
      off += r;
      n -= static_cast<size_t>(r);
    }
    tracker_.OnWrite(offset, data.size(), counters_);
    return Status::OK();
  }

  Status Sync() override {
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    if (fdatasync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (close(fd_) != 0) {
      fd_ = -1;
      return PosixError(fname_, errno);
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
  EnvIoCounters* counters_;
  mutable FileIoTracker tracker_;
};

class PosixEnv final : public Env {
 public:
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixSequentialFile>(fname, fd, &counters_);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixRandomAccessFile>(fname, fd, &counters_);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd =
        open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixWritableFile>(fname, fd, &counters_);
    return Status::OK();
  }

  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<RandomRWFile>* result) override {
    int fd = open(fname.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixRandomRWFile>(fname, fd, &counters_);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    DIR* d = opendir(dir.c_str());
    if (d == nullptr) return PosixError(dir, errno);
    struct dirent* entry;
    while ((entry = readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") result->push_back(name);
    }
    closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (unlink(fname.c_str()) != 0) return PosixError(fname, errno);
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (rmdir(dirname.c_str()) != 0) return PosixError(dirname, errno);
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (stat(fname.c_str(), &st) != 0) {
      *size = 0;
      return PosixError(fname, errno);
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  uint64_t NowMicros() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void SleepForMicroseconds(uint64_t micros) override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }

  const EnvIoCounters* io_counters() const override { return &counters_; }

 private:
  EnvIoCounters counters_;
};

}  // namespace

Env* Env::Default() {
  // Never destroyed: avoids shutdown-order problems (style-guide pattern).
  static Env* env = new PosixEnv();
  return env;
}

}  // namespace blsm
