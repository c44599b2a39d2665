#include "io/mem_env.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace blsm {

struct MemEnv::FileState {
  util::Mutex mu{util::lock_rank::kFileStateMu};
  std::string data GUARDED_BY(mu);
  size_t synced_len GUARDED_BY(mu) = 0;
};

namespace {

using FileStatePtr = std::shared_ptr<MemEnv::FileState>;

}  // namespace

// --- file implementations ---------------------------------------------------

namespace {

class MemSequentialFile final : public SequentialFile {
 public:
  MemSequentialFile(FileStatePtr fs, EnvIoCounters* counters)
      : fs_(std::move(fs)), counters_(counters) {
    counters_->read_seeks.fetch_add(1, std::memory_order_relaxed);
  }

  Status Read(size_t n, Slice* result, char* scratch) override {
    util::MutexLock l(&fs_->mu);
    size_t avail = fs_->data.size() - std::min(pos_, fs_->data.size());
    size_t len = std::min(n, avail);
    memcpy(scratch, fs_->data.data() + pos_, len);
    pos_ += len;
    *result = Slice(scratch, len);
    counters_->CountSequentialRead(len);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  FileStatePtr fs_;
  EnvIoCounters* counters_;
  size_t pos_ = 0;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  MemRandomAccessFile(FileStatePtr fs, EnvIoCounters* counters)
      : fs_(std::move(fs)), counters_(counters) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    util::MutexLock l(&fs_->mu);
    size_t len = 0;
    if (offset < fs_->data.size()) {
      len = std::min(n, fs_->data.size() - static_cast<size_t>(offset));
      memcpy(scratch, fs_->data.data() + offset, len);
    }
    *result = Slice(scratch, len);
    tracker_.OnRead(offset, len, counters_);
    return Status::OK();
  }

  Status MultiRead(ReadRequest* reqs, size_t n) const override {
    counters_->multiread_batches.fetch_add(1, std::memory_order_relaxed);
    counters_->multiread_requests.fetch_add(n, std::memory_order_relaxed);
    // Memory is already "batched"; the serial default just does the copies.
    return RandomAccessFile::MultiRead(reqs, n);
  }

  void ReadAheadHint(uint64_t offset, uint64_t len) const override {
    tracker_.Hint(offset, len, counters_);
  }

 private:
  FileStatePtr fs_;
  EnvIoCounters* counters_;
  mutable FileIoTracker tracker_;
};

class MemWritableFile final : public WritableFile {
 public:
  MemWritableFile(FileStatePtr fs, EnvIoCounters* counters)
      : fs_(std::move(fs)), counters_(counters) {}

  Status Append(const Slice& data) override { return AppendV(&data, 1); }

  Status AppendV(const Slice* parts, size_t n) override {
    util::MutexLock l(&fs_->mu);
    size_t total = 0;
    for (size_t i = 0; i < n; i++) {
      fs_->data.append(parts[i].data(), parts[i].size());
      total += parts[i].size();
    }
    counters_->CountAppend(total);
    return Status::OK();
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    util::MutexLock l(&fs_->mu);
    fs_->synced_len = fs_->data.size();
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  FileStatePtr fs_;
  EnvIoCounters* counters_;
};

class MemRandomRWFile final : public RandomRWFile {
 public:
  MemRandomRWFile(FileStatePtr fs, EnvIoCounters* counters)
      : fs_(std::move(fs)), counters_(counters) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    util::MutexLock l(&fs_->mu);
    size_t len = 0;
    if (offset < fs_->data.size()) {
      len = std::min(n, fs_->data.size() - static_cast<size_t>(offset));
      memcpy(scratch, fs_->data.data() + offset, len);
    }
    *result = Slice(scratch, len);
    tracker_.OnRead(offset, len, counters_);
    return Status::OK();
  }

  Status Write(uint64_t offset, const Slice& data) override {
    util::MutexLock l(&fs_->mu);
    size_t end = static_cast<size_t>(offset) + data.size();
    if (fs_->data.size() < end) fs_->data.resize(end, '\0');
    memcpy(fs_->data.data() + offset, data.data(), data.size());
    tracker_.OnWrite(offset, data.size(), counters_);
    return Status::OK();
  }

  Status Sync() override {
    util::MutexLock l(&fs_->mu);
    fs_->synced_len = fs_->data.size();
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  FileStatePtr fs_;
  EnvIoCounters* counters_;
  mutable FileIoTracker tracker_;
};

}  // namespace

// --- env --------------------------------------------------------------------

MemEnv::MemEnv() = default;
MemEnv::~MemEnv() = default;

Status MemEnv::NewSequentialFile(const std::string& fname,
                                 std::unique_ptr<SequentialFile>* result) {
  util::MutexLock l(&mu_);
  auto it = files_.find(fname);
  if (it == files_.end()) return Status::NotFound(fname);
  *result = std::make_unique<MemSequentialFile>(it->second, &counters_);
  return Status::OK();
}

Status MemEnv::NewRandomAccessFile(const std::string& fname,
                                   std::unique_ptr<RandomAccessFile>* result) {
  util::MutexLock l(&mu_);
  auto it = files_.find(fname);
  if (it == files_.end()) return Status::NotFound(fname);
  *result = std::make_unique<MemRandomAccessFile>(it->second, &counters_);
  return Status::OK();
}

Status MemEnv::NewWritableFile(const std::string& fname,
                               std::unique_ptr<WritableFile>* result) {
  util::MutexLock l(&mu_);
  auto fs = std::make_shared<FileState>();
  files_[fname] = fs;
  *result = std::make_unique<MemWritableFile>(std::move(fs), &counters_);
  return Status::OK();
}

Status MemEnv::NewRandomRWFile(const std::string& fname,
                               std::unique_ptr<RandomRWFile>* result) {
  util::MutexLock l(&mu_);
  auto it = files_.find(fname);
  std::shared_ptr<FileState> fs;
  if (it == files_.end()) {
    fs = std::make_shared<FileState>();
    files_[fname] = fs;
  } else {
    fs = it->second;
  }
  *result = std::make_unique<MemRandomRWFile>(std::move(fs), &counters_);
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& fname) {
  util::MutexLock l(&mu_);
  return files_.count(fname) > 0;
}

Status MemEnv::GetChildren(const std::string& dir,
                           std::vector<std::string>* result) {
  util::MutexLock l(&mu_);
  result->clear();
  std::string prefix = dir;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  // Like readdir: files directly under `dir` plus the first path component
  // of anything deeper (a subdirectory, whether created or implied by a
  // nested file name), so Env's default RemoveDirRecursive walk sees it all;
  // a missing directory is NotFound and a plain file is not a directory.
  if (files_.count(dir) > 0) {
    return Status::IOError(dir + ": not a directory");
  }
  std::set<std::string> children;
  auto add = [&](const std::string& name) {
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      std::string rest = name.substr(prefix.size());
      children.insert(rest.substr(0, rest.find('/')));
    }
  };
  for (const auto& entry : files_) add(entry.first);
  for (const std::string& name : dirs_) add(name);
  if (children.empty() && dirs_.count(dir) == 0) return Status::NotFound(dir);
  result->assign(children.begin(), children.end());
  return Status::OK();
}

Status MemEnv::RemoveFile(const std::string& fname) {
  util::MutexLock l(&mu_);
  if (files_.erase(fname) == 0) return Status::NotFound(fname);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& dirname) {
  util::MutexLock l(&mu_);
  dirs_.insert(dirname);
  return Status::OK();
}

Status MemEnv::RemoveDir(const std::string& dirname) {
  util::MutexLock l(&mu_);
  if (dirs_.erase(dirname) == 0) return Status::NotFound(dirname);
  return Status::OK();
}

Status MemEnv::RemoveDirRecursive(const std::string& dirname) {
  util::MutexLock l(&mu_);
  std::string prefix = dirname;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = dirs_.begin(); it != dirs_.end();) {
    if (*it == dirname || it->compare(0, prefix.size(), prefix) == 0) {
      it = dirs_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status MemEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  util::MutexLock l(&mu_);
  auto it = files_.find(fname);
  if (it == files_.end()) {
    *size = 0;
    return Status::NotFound(fname);
  }
  util::MutexLock fl(&it->second->mu);
  *size = it->second->data.size();
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& src, const std::string& target) {
  util::MutexLock l(&mu_);
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound(src);
  files_[target] = it->second;
  files_.erase(it);
  return Status::OK();
}

uint64_t MemEnv::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void MemEnv::SleepForMicroseconds(uint64_t micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

void MemEnv::DropUnsynced() {
  util::MutexLock l(&mu_);
  for (auto& [name, fs] : files_) {
    (void)name;
    util::MutexLock fl(&fs->mu);
    fs->data.resize(fs->synced_len);
  }
}

}  // namespace blsm
