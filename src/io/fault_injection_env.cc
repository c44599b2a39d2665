#include "io/fault_injection_env.h"

namespace blsm {

namespace {

class FaultSequentialFile final : public SequentialFile {
 public:
  FaultSequentialFile(std::unique_ptr<SequentialFile> base,
                      FaultInjectionEnv* env, std::string fname)
      : base_(std::move(base)), env_(env), fname_(std::move(fname)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = env_->CheckOp(FaultOpClass::kRead, fname_);
    if (!s.ok()) return s;
    return base_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  FaultInjectionEnv* env_;
  std::string fname_;
};

class FaultRandomAccessFile final : public RandomAccessFile {
 public:
  FaultRandomAccessFile(std::unique_ptr<RandomAccessFile> base,
                        FaultInjectionEnv* env, std::string fname)
      : base_(std::move(base)), env_(env), fname_(std::move(fname)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = env_->CheckOp(FaultOpClass::kRead, fname_);
    if (!s.ok()) return s;
    return base_->Read(offset, n, result, scratch);
  }

  Status MultiRead(ReadRequest* reqs, size_t n) const override {
    // Each sub-read rolls the fault dice on its own; a faulted request
    // carries its injected error while the survivors still go down as one
    // batch. This is the contract MultiRead callers rely on: one bad block
    // never poisons its batchmates.
    std::vector<size_t> healthy;
    healthy.reserve(n);
    for (size_t i = 0; i < n; i++) {
      Status s = env_->CheckOp(FaultOpClass::kRead, fname_);
      if (s.ok()) {
        healthy.push_back(i);
      } else {
        reqs[i].status = s;
        reqs[i].result = Slice();
      }
    }
    if (healthy.empty()) return Status::OK();
    std::vector<ReadRequest> sub(healthy.size());
    for (size_t i = 0; i < healthy.size(); i++) {
      sub[i].offset = reqs[healthy[i]].offset;
      sub[i].len = reqs[healthy[i]].len;
      sub[i].scratch = reqs[healthy[i]].scratch;
    }
    Status batch = base_->MultiRead(sub.data(), sub.size());
    if (!batch.ok()) return batch;
    for (size_t i = 0; i < healthy.size(); i++) {
      reqs[healthy[i]].result = sub[i].result;
      reqs[healthy[i]].status = sub[i].status;
    }
    return Status::OK();
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FaultInjectionEnv* env_;
  std::string fname_;
};

class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(std::unique_ptr<WritableFile> base, FaultInjectionEnv* env,
                    std::string fname)
      : base_(std::move(base)), env_(env), fname_(std::move(fname)) {}

  Status Append(const Slice& data) override {
    FaultInjectionEnv::WritePlan plan = env_->PlanAppend(fname_, data.size());
    if (!plan.status.ok()) {
      if (plan.torn_len > 0) {
        // Torn write: the device persisted part of the payload before the
        // failure. The base Append's own status is irrelevant — the caller
        // already sees an error.
        base_->Append(Slice(data.data(), plan.torn_len))
            .IgnoreError("the injected IOError below is what the caller "
                         "must see, whatever the partial write did");
      }
      return plan.status;
    }
    if (plan.flip_bit >= 0) {
      std::string corrupted(data.data(), data.size());
      corrupted[static_cast<size_t>(plan.flip_bit) / 8] ^=
          static_cast<char>(1u << (plan.flip_bit % 8));
      return base_->Append(corrupted);
    }
    return base_->Append(data);
  }
  // AppendV deliberately stays the base-class Append loop: each part must
  // roll PlanAppend individually so torn-write/bit-flip coverage is
  // per-fragment, exactly as if the caller had Append()ed them.
  size_t PreferredAppendAlignment() const override {
    return base_->PreferredAppendAlignment();
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    FaultInjectionEnv::SyncPlan plan = env_->PlanSync(fname_);
    if (!plan.status.ok()) return plan.status;
    if (plan.swallow) return Status::OK();  // the lie: "it's durable"
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectionEnv* env_;
  std::string fname_;
};

class FaultRandomRWFile final : public RandomRWFile {
 public:
  FaultRandomRWFile(std::unique_ptr<RandomRWFile> base, FaultInjectionEnv* env,
                    std::string fname)
      : base_(std::move(base)), env_(env), fname_(std::move(fname)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    Status s = env_->CheckOp(FaultOpClass::kRead, fname_);
    if (!s.ok()) return s;
    return base_->Read(offset, n, result, scratch);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    Status s = env_->CheckOp(FaultOpClass::kWrite, fname_);
    if (!s.ok()) return s;
    return base_->Write(offset, data);
  }
  Status Sync() override {
    FaultInjectionEnv::SyncPlan plan = env_->PlanSync(fname_);
    if (!plan.status.ok()) return plan.status;
    if (plan.swallow) return Status::OK();
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<RandomRWFile> base_;
  FaultInjectionEnv* env_;
  std::string fname_;
};

}  // namespace

void FaultInjectionEnv::SetPolicy(const FaultPolicy& policy) {
  util::MutexLock l(&policy_mu_);
  policy_ = policy;
  rng_ = Random(policy.seed);
  policy_active_.store(policy.AnyProbabilistic(), std::memory_order_release);
}

void FaultInjectionEnv::Heal() {
  armed_.store(false, std::memory_order_relaxed);
  util::MutexLock l(&policy_mu_);
  policy_ = FaultPolicy{};
  policy_active_.store(false, std::memory_order_release);
}

Status FaultInjectionEnv::Check() {
  if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
  if (remaining_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    return Status::IOError("injected fault");
  }
  return Status::OK();
}

bool FaultInjectionEnv::Roll(double prob) {
  if (prob <= 0.0) return false;
  util::MutexLock l(&policy_mu_);
  return rng_.NextDouble() < prob;
}

bool FaultInjectionEnv::SilentFaultsApply(const std::string& fname) {
  std::function<bool(const std::string&)> filter;
  {
    util::MutexLock l(&policy_mu_);
    filter = policy_.silent_fault_filter;
  }
  return filter == nullptr || filter(fname);
}

Status FaultInjectionEnv::CheckOp(FaultOpClass op, const std::string& fname) {
  Status s = Check();
  if (!s.ok()) return s;
  if (!policy_active_.load(std::memory_order_acquire)) return Status::OK();
  double prob = 0.0;
  {
    util::MutexLock l(&policy_mu_);
    switch (op) {
      case FaultOpClass::kRead:
        prob = policy_.read_error_prob;
        break;
      case FaultOpClass::kWrite:
        prob = policy_.write_error_prob;
        break;
      case FaultOpClass::kSync:
        prob = policy_.sync_error_prob;
        break;
      case FaultOpClass::kOpen:
        prob = policy_.open_error_prob;
        break;
      case FaultOpClass::kMetadata:
        prob = policy_.metadata_error_prob;
        break;
    }
    if (prob <= 0.0 || rng_.NextDouble() >= prob) return Status::OK();
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  return Status::IOError("injected fault: " + fname);
}

FaultInjectionEnv::WritePlan FaultInjectionEnv::PlanAppend(
    const std::string& fname, size_t len) {
  WritePlan plan;
  plan.status = Check();
  if (!plan.status.ok()) return plan;
  if (!policy_active_.load(std::memory_order_acquire)) return plan;

  // Manual lock discipline: every branch drops policy_mu_ before the
  // fetch_add / filter callback so the dice rolls stay serialized but no
  // side effect runs under the lock.
  policy_mu_.Lock();
  if (policy_.write_error_prob > 0 &&
      rng_.NextDouble() < policy_.write_error_prob) {
    policy_mu_.Unlock();
    faults_.fetch_add(1, std::memory_order_relaxed);
    plan.status = Status::IOError("injected write error: " + fname);
    return plan;
  }
  if (len > 0 && policy_.torn_write_prob > 0 &&
      rng_.NextDouble() < policy_.torn_write_prob) {
    plan.torn_len = static_cast<size_t>(rng_.Uniform(len));  // strict prefix
    policy_mu_.Unlock();
    faults_.fetch_add(1, std::memory_order_relaxed);
    torn_writes_.fetch_add(1, std::memory_order_relaxed);
    plan.status = Status::IOError("injected torn write: " + fname);
    return plan;
  }
  if (len > 0 && policy_.bit_flip_prob > 0 &&
      rng_.NextDouble() < policy_.bit_flip_prob) {
    uint64_t bit = rng_.Uniform(len * 8);
    policy_mu_.Unlock();
    if (SilentFaultsApply(fname)) {
      bit_flips_.fetch_add(1, std::memory_order_relaxed);
      plan.flip_bit = static_cast<int64_t>(bit);
    }
    return plan;
  }
  policy_mu_.Unlock();
  return plan;
}

FaultInjectionEnv::SyncPlan FaultInjectionEnv::PlanSync(
    const std::string& fname) {
  SyncPlan plan;
  plan.status = Check();
  if (!plan.status.ok()) return plan;
  if (!policy_active_.load(std::memory_order_acquire)) return plan;

  policy_mu_.Lock();
  if (policy_.sync_error_prob > 0 &&
      rng_.NextDouble() < policy_.sync_error_prob) {
    policy_mu_.Unlock();
    faults_.fetch_add(1, std::memory_order_relaxed);
    plan.status = Status::IOError("injected sync error: " + fname);
    return plan;
  }
  if (policy_.swallow_sync_prob > 0 &&
      rng_.NextDouble() < policy_.swallow_sync_prob) {
    policy_mu_.Unlock();
    if (SilentFaultsApply(fname)) {
      swallowed_syncs_.fetch_add(1, std::memory_order_relaxed);
      plan.swallow = true;
    }
    return plan;
  }
  policy_mu_.Unlock();
  return plan;
}

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  Status s = CheckOp(FaultOpClass::kOpen, fname);
  if (!s.ok()) return s;
  std::unique_ptr<SequentialFile> file;
  s = base()->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<FaultSequentialFile>(std::move(file), this, fname);
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  Status s = CheckOp(FaultOpClass::kOpen, fname);
  if (!s.ok()) return s;
  std::unique_ptr<RandomAccessFile> file;
  s = base()->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  *result =
      std::make_unique<FaultRandomAccessFile>(std::move(file), this, fname);
  return Status::OK();
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  Status s = CheckOp(FaultOpClass::kOpen, fname);
  if (!s.ok()) return s;
  std::unique_ptr<WritableFile> file;
  s = base()->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<FaultWritableFile>(std::move(file), this, fname);
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomRWFile(
    const std::string& fname, std::unique_ptr<RandomRWFile>* result) {
  Status s = CheckOp(FaultOpClass::kOpen, fname);
  if (!s.ok()) return s;
  std::unique_ptr<RandomRWFile> file;
  s = base()->NewRandomRWFile(fname, &file);
  if (!s.ok()) return s;
  *result = std::make_unique<FaultRandomRWFile>(std::move(file), this, fname);
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  // A tripped device must refuse deletes too: recovery code paths depend on
  // unlink actually happening, and a silent no-op would leak orphans.
  Status s = CheckOp(FaultOpClass::kMetadata, fname);
  if (!s.ok()) return s;
  return base()->RemoveFile(fname);
}

Status FaultInjectionEnv::CreateDir(const std::string& dirname) {
  Status s = CheckOp(FaultOpClass::kMetadata, dirname);
  if (!s.ok()) return s;
  return base()->CreateDir(dirname);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dirname) {
  Status s = CheckOp(FaultOpClass::kMetadata, dirname);
  if (!s.ok()) return s;
  return base()->RemoveDir(dirname);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  Status s = CheckOp(FaultOpClass::kMetadata, src);
  if (!s.ok()) return s;
  return base()->RenameFile(src, target);
}

}  // namespace blsm
