#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

using blsm::Env;
using blsm::Slice;
using blsm::Status;

namespace {

// Enough for a 60 s traced run; past it spans are counted, not kept.
constexpr uint64_t kMaxSpans = 4'000'000;

// The engine span the calling thread is inside, if any. IO calls made under
// it are its children (foreground); IO calls with no open span are
// background work.
struct OpenSpan {
  uint64_t id = 0;
  uint64_t child_ns = 0;
};
thread_local OpenSpan* tls_open = nullptr;

// Times one IO call when recording is on.
class IoTimer {
 public:
  IoTimer() : on_(Recorder::Get().enabled()), start_(on_ ? NowNs() : 0) {}

  void Done(Layer layer, Op op, uint64_t bytes) {
    if (!on_) return;
    Span s;
    s.start_ns = start_;
    s.end_ns = NowNs();
    s.layer = layer;
    s.op = op;
    s.arg = bytes;
    s.id = Recorder::Get().NewId();
    if (tls_open != nullptr) {
      s.parent = tls_open->id;
      tls_open->child_ns += static_cast<uint64_t>(s.end_ns - s.start_ns);
    }
    Recorder::Get().Record(s);
  }

 private:
  bool on_;
  int64_t start_;
};

class TimedSequentialFile final : public blsm::SequentialFile {
 public:
  explicit TimedSequentialFile(std::unique_ptr<blsm::SequentialFile> base)
      : base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    IoTimer t;
    Status s = base_->Read(n, result, scratch);
    t.Done(Layer::kIo, Op::kRead, s.ok() ? result->size() : 0);
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<blsm::SequentialFile> base_;
};

class TimedRandomAccessFile final : public blsm::RandomAccessFile {
 public:
  explicit TimedRandomAccessFile(std::unique_ptr<blsm::RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    IoTimer t;
    Status s = base_->Read(offset, n, result, scratch);
    t.Done(Layer::kIo, Op::kRead, s.ok() ? result->size() : 0);
    return s;
  }
  Status MultiRead(blsm::ReadRequest* reqs, size_t n) const override {
    IoTimer t;
    Status s = base_->MultiRead(reqs, n);
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; i++) bytes += reqs[i].result.size();
    t.Done(Layer::kIo, Op::kRead, bytes);
    return s;
  }
  void ReadAheadHint(uint64_t offset, uint64_t len) const override {
    base_->ReadAheadHint(offset, len);
  }

 private:
  std::unique_ptr<blsm::RandomAccessFile> base_;
};

class TimedWritableFile final : public blsm::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<blsm::WritableFile> base, bool is_wal)
      : base_(std::move(base)), is_wal_(is_wal) {}

  Status Append(const Slice& data) override {
    IoTimer t;
    Status s = base_->Append(data);
    Done(&t, data.size());
    return s;
  }
  Status AppendV(const Slice* parts, size_t n) override {
    IoTimer t;
    Status s = base_->AppendV(parts, n);
    uint64_t bytes = 0;
    for (size_t i = 0; i < n; i++) bytes += parts[i].size();
    Done(&t, bytes);
    return s;
  }
  size_t PreferredAppendAlignment() const override {
    return base_->PreferredAppendAlignment();
  }
  Status Flush() override {
    IoTimer t;
    Status s = base_->Flush();
    t.Done(Layer::kIo, Op::kWrite, 0);
    return s;
  }
  Status Sync() override {
    IoTimer t;
    Status s = base_->Sync();
    t.Done(Layer::kIo, Op::kSync, 0);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  void Done(IoTimer* t, uint64_t bytes) {
    if (is_wal_) {
      t->Done(Layer::kWal, Op::kAppend, bytes);
    } else {
      t->Done(Layer::kIo, Op::kWrite, bytes);
    }
  }

  std::unique_ptr<blsm::WritableFile> base_;
  bool is_wal_;
};

class TimingEnv final : public Env {
 public:
  explicit TimingEnv(Env* base) : base_(base) {}

  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<blsm::SequentialFile>* result) override {
    std::unique_ptr<blsm::SequentialFile> f;
    Status s = base_->NewSequentialFile(fname, &f);
    if (s.ok()) *result = std::make_unique<TimedSequentialFile>(std::move(f));
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<blsm::RandomAccessFile>* result) override {
    std::unique_ptr<blsm::RandomAccessFile> f;
    Status s = base_->NewRandomAccessFile(fname, &f);
    if (s.ok()) *result = std::make_unique<TimedRandomAccessFile>(std::move(f));
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<blsm::WritableFile>* result) override {
    std::unique_ptr<blsm::WritableFile> f;
    Status s = base_->NewWritableFile(fname, &f);
    // The logical log lives in <shard>/wal.log (restarts write a temporary
    // next to it and rename it into place).
    bool is_wal = fname.find("/wal.log") != std::string::npos;
    if (s.ok()) {
      *result = std::make_unique<TimedWritableFile>(std::move(f), is_wal);
    }
    return s;
  }
  Status NewRandomRWFile(const std::string& fname,
                         std::unique_ptr<blsm::RandomRWFile>* result) override {
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
  const blsm::EnvIoCounters* io_counters() const override {
    return base_->io_counters();
  }

 private:
  Env* base_;
};

// --- engine decorator --------------------------------------------------------

class TracedEngine;

struct EngineRegistry {
  std::mutex mu;
  std::map<std::string, TracedEngine*> by_dir;  // guarded by mu
};

EngineRegistry& Engines() {
  static EngineRegistry* r = new EngineRegistry();
  return *r;
}

class TracedEngine final : public blsm::kv::Engine {
 public:
  TracedEngine(std::unique_ptr<blsm::kv::Engine> inner, std::string dir)
      : inner_(std::move(inner)), dir_(std::move(dir)) {
    std::lock_guard<std::mutex> l(Engines().mu);
    Engines().by_dir[dir_] = this;
  }
  ~TracedEngine() override {
    std::lock_guard<std::mutex> l(Engines().mu);
    Engines().by_dir.erase(dir_);
  }
  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  std::string Name() const override { return "traced " + inner_->Name(); }

  Status Put(const Slice& key, const Slice& value) override {
    return Timed(Op::kPut, 1, [&] { return inner_->Put(key, value); });
  }
  Status Write(const blsm::kv::WriteBatch& batch) override {
    return Timed(Op::kPut, batch.Count(),
                 [&] { return inner_->Write(batch); });
  }
  Status Get(const Slice& key, std::string* value) override {
    return Timed(Op::kGet, 1, [&] { return inner_->Get(key, value); });
  }
  std::vector<Status> MultiGet(const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override {
    return Timed(Op::kGet, keys.size(),
                 [&] { return inner_->MultiGet(keys, values); });
  }
  Status Delete(const Slice& key) override {
    return Timed(Op::kPut, 1, [&] { return inner_->Delete(key); });
  }
  // The benchmark's traffic never reaches these two.
  Status InsertIfNotExists(const Slice& key, const Slice& value) override {
    return inner_->InsertIfNotExists(key, value);
  }
  Status ReadModifyWrite(
      const Slice& key,
      const std::function<std::string(const std::string&, bool)>& update)
      override {
    return inner_->ReadModifyWrite(key, update);
  }
  Status Scan(const blsm::kv::ReadOptions& options, const Slice& start,
              size_t limit,
              std::vector<std::pair<std::string, std::string>>* out) override {
    return Timed(Op::kScan, limit,
                 [&] { return inner_->Scan(options, start, limit, out); });
  }
  Status Flush() override { return inner_->Flush(); }
  void WaitIdle() override { inner_->WaitIdle(); }
  Status BackgroundError() const override { return inner_->BackgroundError(); }
  std::map<std::string, uint64_t> Stats() const override {
    return inner_->Stats();
  }

 private:
  template <typename F>
  auto Timed(Op op, uint64_t keys, F&& call) -> decltype(call()) {
    Recorder& rec = Recorder::Get();
    if (!rec.enabled()) return call();
    OpenSpan open{rec.NewId(), 0};
    OpenSpan* outer = tls_open;
    tls_open = &open;
    Span s;
    s.start_ns = NowNs();
    auto result = call();
    s.end_ns = NowNs();
    tls_open = outer;
    s.id = open.id;
    s.parent = outer != nullptr ? outer->id : 0;
    s.child_ns = open.child_ns;
    s.layer = Layer::kEngine;
    s.op = op;
    s.arg = keys;
    rec.Record(s);
    return result;
  }

  std::unique_ptr<blsm::kv::Engine> inner_;
  std::string dir_;
};

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kClient:
      return "client";
    case Layer::kEngine:
      return "engine";
    case Layer::kWal:
      return "wal";
    case Layer::kIo:
      return "io";
  }
  return "?";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kGet:
      return "get";
    case Op::kPut:
      return "put";
    case Op::kScan:
      return "scan";
    case Op::kAppend:
      return "append";
    case Op::kRead:
      return "read";
    case Op::kWrite:
      return "write";
    case Op::kSync:
      return "sync";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Recorder& Recorder::Get() {
  static Recorder* r = new Recorder();
  return *r;
}

Recorder::Buffer* Recorder::ThreadBuffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> l(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->thread = static_cast<uint32_t>(buffers_.size() - 1);
  }
  return buf;
}

void Recorder::Record(Span span) {
  if (total_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer* buf = ThreadBuffer();
  span.thread = buf->thread;
  span.phase = phase();
  std::lock_guard<std::mutex> l(buf->mu);
  buf->spans.push_back(span);
}

std::vector<Span> Recorder::Collect() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> bl(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool WriteSpansTsv(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "layer\top\tphase\tthread\tid\tparent\tstart_ns\tend_ns\t"
             "child_ns\targ\n");
  for (const Span& s : spans) {
    fprintf(f, "%s\t%s\t%u\t%u\t%llu\t%llu\t%lld\t%lld\t%llu\t%llu\n",
            LayerName(s.layer), OpName(s.op), s.phase, s.thread,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<long long>(s.start_ns),
            static_cast<long long>(s.end_ns),
            static_cast<unsigned long long>(s.child_ns),
            static_cast<unsigned long long>(s.arg));
  }
  return fclose(f) == 0;
}

std::unique_ptr<Env> NewTimingEnv(Env* base) {
  return std::make_unique<TimingEnv>(base);
}

void RegisterTracedEngine() {
  blsm::kv::RegisterEngine(
      "traced-blsm",
      [](const blsm::kv::CommonOptions& options, const std::string& dir,
         std::unique_ptr<blsm::kv::Engine>* out) {
        std::unique_ptr<blsm::kv::Engine> inner;
        Status s = blsm::kv::Open("blsm", options, dir, &inner);
        if (!s.ok()) return s;
        *out = std::make_unique<TracedEngine>(std::move(inner), dir);
        return Status::OK();
      });
}

std::vector<std::map<std::string, uint64_t>> TracedShardStats() {
  std::lock_guard<std::mutex> l(Engines().mu);
  std::vector<std::map<std::string, uint64_t>> out;
  for (const auto& [dir, engine] : Engines().by_dir) {
    out.push_back(engine->Stats());
  }
  return out;
}

}  // namespace perfbench
