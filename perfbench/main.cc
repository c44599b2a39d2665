// perfbench: the repository benchmark. One run drives one workload through
// an in-process blsm_server (engine "blsm", 2 shards, the ServerOptions
// engine defaults, DurabilityMode::kAsync) over loopback, checks every
// response, and prints every metric by name with its unit and sample count.
// The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 the run measures the workload untraced as with --trace 0
// (for the workload-specific end-to-end numbers and the tracing overhead),
// then again on a traced server, and reports the per-layer set. See
// README.md.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale F]

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/env.h"
#include "io/socket.h"
#include "server/server.h"
#include "server/wire_protocol.h"
#include "trace.h"
#include "util/coding.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace perfbench {
namespace {

using blsm::Env;
using blsm::Slice;
using blsm::Status;
using blsm::server::WireStatus;
using StatMap = std::map<std::string, uint64_t>;

constexpr size_t kValueSize = 1000;
constexpr int kShards = 2;
constexpr int kConns = 2;
constexpr uint32_t kMaxScan = 10;
// A request still unanswered this long after its phase ends is a failure.
constexpr int64_t kDrainNs = 10'000'000'000;
// Span phase tags of the traced run.
constexpr uint8_t kOpenPhase = 1;
constexpr uint8_t kClosedPhase = 2;

struct WorkloadSpec {
  const char* name;
  uint64_t records;
  int get_pct, put_pct;  // the rest are SCANs of length uniform 1..kMaxScan
  bool zipfian;          // else uniform keys
  double open_rate;      // offered ops/s in the open-loop phase, all conns
  int depth;             // closed-loop pipeline depth per connection
};

// Sizes against the engine defaults: 8 MiB C0 and 32 MiB block cache per
// shard, so 16 MiB of C0 and 64 MiB of block cache over the two shards.
const WorkloadSpec kWorkloads[] = {
    // 32 MB: under half the combined block cache, twice the combined C0,
    // so reads hit both C0 and cached disk blocks.
    {"read-cached", 32'000, 100, 0, true, 20'000, 16},
    // 140 MB: over 2x the combined block cache.
    {"write-mixed", 140'000, 45, 50, false, 5'000, 16},
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
};

// Untraced instances per run: each is set up and measured once.
constexpr int kUntracedInstances = 3;

// Relative to the working directory, which run.py sets to the repository
// root.
constexpr char kDbDir[] = ".bench_data";
constexpr char kSpanDir[] = ".bench_out";

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// ---- keys and self-describing values ----------------------------------------

// Fixed-width decimal keys, so key order is id order and a scan from id s
// must return exactly s, s+1, ...
std::string KeyOf(uint64_t id) {
  char buf[24];
  snprintf(buf, sizeof(buf), "user%012" PRIu64, id);
  return buf;
}

// value := u64 id | u64 version | filler drawn from (seed, id, version).
void MakeValue(uint64_t seed, uint64_t id, uint64_t version, char* out) {
  blsm::EncodeFixed64(out, id);
  blsm::EncodeFixed64(out + 8, version);
  uint64_t x = Mix(seed ^ Mix(id) ^ (version * 0xD6E8FEB86659FD93ull));
  for (size_t i = 16; i + 8 <= kValueSize; i += 8) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    memcpy(out + i, &x, 8);
  }
}

// Versions written per key. Each key is written by one connection only
// (id % kConns), and a connection's requests for one key reach one shard
// queue in order, so the value a read returns must carry a version between
// the last one acknowledged before the read was sent and the last one
// issued.
class KeyState {
 public:
  explicit KeyState(uint64_t records)
      : issued_(records), acked_(records) {}

  uint64_t NextVersion(uint64_t id) {
    return issued_[id].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  uint64_t issued(uint64_t id) const {
    return issued_[id].load(std::memory_order_acquire);
  }
  uint64_t acked(uint64_t id) const {
    return acked_[id].load(std::memory_order_acquire);
  }
  void Ack(uint64_t id, uint64_t version) {
    uint64_t cur = acked_[id].load(std::memory_order_relaxed);
    while (cur < version &&
           !acked_[id].compare_exchange_weak(cur, version,
                                             std::memory_order_acq_rel)) {
    }
  }

 private:
  std::vector<std::atomic<uint64_t>> issued_;
  std::vector<std::atomic<uint64_t>> acked_;
};

// ---- operation streams ------------------------------------------------------

struct Req {
  Op op = Op::kGet;
  uint64_t id = 0;
  uint32_t limit = 0;  // SCAN length
  bool load = false;   // PUT of the initial version 0
};

// A connection's request stream: either the workload mix, or a sweep that
// visits a fixed id list once (the load, and the read-cached warm-up).
class OpGen {
 public:
  OpGen(const WorkloadSpec& w, uint64_t records, uint64_t seed, int conn)
      : w_(&w), records_(records), conn_(conn), rng_(seed) {
    if (w.zipfian) {
      zipf_ = std::make_unique<blsm::ScrambledZipfianGenerator>(records,
                                                                 seed ^ 7);
    }
  }
  OpGen(std::vector<uint64_t> ids, Op op)
      : rng_(0), sweep_(std::move(ids)), sweep_op_(op) {}

  bool Next(Req* r) {
    if (w_ == nullptr) {
      if (pos_ >= sweep_.size()) return false;
      r->op = sweep_op_;
      r->id = sweep_[pos_++];
      r->load = sweep_op_ == Op::kPut;
      return true;
    }
    int dice = static_cast<int>(rng_.Uniform(100));
    if (dice < w_->get_pct) {
      r->op = Op::kGet;
      r->id = zipf_ != nullptr ? zipf_->Next() : rng_.Uniform(records_);
    } else if (dice < w_->get_pct + w_->put_pct) {
      // Only this connection writes ids congruent to it modulo kConns.
      r->op = Op::kPut;
      uint64_t id = (rng_.Uniform(records_) / kConns) * kConns +
                    static_cast<uint64_t>(conn_);
      r->id = id < records_ ? id : id - kConns;
    } else {
      r->op = Op::kScan;
      r->id = rng_.Uniform(records_);
      r->limit = 1 + static_cast<uint32_t>(rng_.Uniform(kMaxScan));
    }
    return true;
  }

 private:
  const WorkloadSpec* w_ = nullptr;
  uint64_t records_ = 0;
  int conn_ = 0;
  blsm::Random rng_;
  std::unique_ptr<blsm::ScrambledZipfianGenerator> zipf_;
  std::vector<uint64_t> sweep_;
  size_t pos_ = 0;
  Op sweep_op_ = Op::kGet;
};

// ---- per-phase results ------------------------------------------------------

// A timed phase [start_ns, deadline_ns) is split into `windows` equal
// windows; the end-to-end figures are medians over the windows of every
// measured instance.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;  // answered no later than deadline_ns
  int64_t start_ns = 0;
  int64_t deadline_ns = INT64_MAX;
  int windows = 0;  // 0: no per-window figures (set-up traffic)
  bool keep_latency = false;
  std::vector<int64_t> latency_ns[3];  // by Op: get, put, scan
  std::vector<int64_t> get_at_ns;      // intended send time of each GET
  std::vector<uint64_t> done_per_window;
  std::vector<int64_t> lag_ns;  // open loop: send time - intended
  uint64_t ops[3] = {0, 0, 0};
  uint64_t put_bytes = 0;

  size_t WindowOf(int64_t at_ns) const {
    int64_t i = (at_ns - start_ns) * windows / (deadline_ns - start_ns);
    return static_cast<size_t>(std::clamp<int64_t>(i, 0, windows - 1));
  }

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    completed += o.completed;
    get_at_ns.insert(get_at_ns.end(), o.get_at_ns.begin(), o.get_at_ns.end());
    done_per_window.resize(std::max(done_per_window.size(),
                                    o.done_per_window.size()));
    for (size_t i = 0; i < o.done_per_window.size(); i++) {
      done_per_window[i] += o.done_per_window[i];
    }
    for (int i = 0; i < 3; i++) {
      latency_ns[i].insert(latency_ns[i].end(), o.latency_ns[i].begin(),
                           o.latency_ns[i].end());
      ops[i] += o.ops[i];
    }
    lag_ns.insert(lag_ns.end(), o.lag_ns.begin(), o.lag_ns.end());
    put_bytes += o.put_bytes;
  }
};

// ---- one pipelined connection -----------------------------------------------

// Speaks the blsm_server wire protocol with the same encoders, framer and
// decoders server::Client uses, on a socket it can poll: one thread both
// sends on schedule and collects responses, which server::Client's blocking
// Recv cannot do.
class Session {
 public:
  Session(int conn, uint64_t seed, uint64_t records, KeyState* keys)
      : conn_(conn), seed_(seed), records_(records), keys_(keys),
        value_(kValueSize, '\0'), check_(kValueSize, '\0'),
        buf_(256 * 1024) {}
  ~Session() {
    if (fd_ >= 0) blsm::net::CloseFd(fd_);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Status Connect(uint16_t port) {
    return blsm::net::Connect("127.0.0.1", port, &fd_);
  }

  void set_tally(Tally* t) { tally_ = t; }
  size_t in_flight() const { return pending_.size(); }

  // Queues one request; Send() pushes every queued frame.
  void Issue(const Req& r, int64_t intended_ns) {
    Pending p;
    p.op = r.op;
    p.id = r.id;
    p.limit = r.limit;
    p.intended_ns = intended_ns;
    p.tally = tally_;
    uint64_t rid = next_id_++;
    std::string key = KeyOf(r.id);
    switch (r.op) {
      case Op::kGet:
        p.floor[0] = keys_->acked(r.id);
        blsm::server::EncodeGet(&out_, rid, key);
        break;
      case Op::kPut:
        p.version = r.load ? 0 : keys_->NextVersion(r.id);
        MakeValue(seed_, r.id, p.version, value_.data());
        blsm::server::EncodePut(&out_, rid, key, value_);
        tally_->put_bytes += key.size() + kValueSize;
        break;
      default:
        for (uint32_t i = 0; i < r.limit && r.id + i < records_; i++) {
          p.floor[i] = keys_->acked(r.id + i);
        }
        blsm::server::EncodeScan(&out_, rid, key, r.limit);
        break;
    }
    tally_->attempted++;
    tally_->ops[static_cast<int>(r.op)]++;
    pending_.emplace(rid, p);
    unsent_.push_back(rid);
  }

  Status Send() {
    if (out_.empty()) return Status::OK();
    int64_t now = NowNs();
    for (uint64_t rid : unsent_) {
      Pending& p = pending_[rid];
      p.lag_ns = now - p.intended_ns;
      if (p.tally->keep_latency) p.tally->lag_ns.push_back(p.lag_ns);
    }
    unsent_.clear();
    Status s = blsm::net::SendAll(fd_, out_.data(), out_.size());
    out_.clear();
    return s;
  }

  // Waits until `deadline_ns` (negative: no limit) for the socket to become
  // readable, then handles every complete response that arrived.
  Status Pump(int64_t deadline_ns) {
    struct pollfd pfd = {fd_, POLLIN, 0};
    struct timespec ts;
    struct timespec* tsp = nullptr;
    if (deadline_ns >= 0) {
      int64_t wait = std::max<int64_t>(0, deadline_ns - NowNs());
      ts.tv_sec = wait / 1'000'000'000;
      ts.tv_nsec = wait % 1'000'000'000;
      tsp = &ts;
    }
    int r = ppoll(&pfd, 1, tsp, nullptr);
    if (r < 0) {
      return errno == EINTR ? Status::OK() : Status::IOError("ppoll failed");
    }
    if (r == 0) return Status::OK();
    size_t n = 0;
    if (blsm::net::RecvSome(fd_, buf_.data(), buf_.size(), &n) !=
        blsm::net::IoResult::kOk) {
      return Status::IOError("connection closed by server");
    }
    int64_t now = NowNs();
    reader_.Feed(buf_.data(), n);
    Slice payload;
    bool bad = false;
    while (reader_.Next(&payload, &bad)) {
      WireStatus ws;
      uint64_t rid = 0;
      Slice body;
      if (!blsm::server::DecodeResponseHeader(payload, &ws, &rid, &body)) {
        return Status::Corruption("malformed response frame");
      }
      OnResponse(ws, rid, body, now);
      reader_.Pop();
    }
    if (bad) return Status::Corruption("oversized response frame");
    return Status::OK();
  }

  // Waits for every outstanding response; those still missing after
  // kDrainNs count as failures.
  Status Drain() {
    int64_t deadline = NowNs() + kDrainNs;
    while (!pending_.empty() && NowNs() < deadline) {
      Status s = Pump(deadline);
      if (!s.ok()) return s;
    }
    for (auto& [rid, p] : pending_) {
      p.tally->failed++;
      Complain("request " + std::to_string(rid) + " unanswered");
    }
    pending_.clear();
    return Status::OK();
  }

 private:
  struct Pending {
    Op op = Op::kGet;
    uint64_t id = 0;
    uint32_t limit = 0;
    uint64_t version = 0;
    uint64_t floor[kMaxScan] = {};
    int64_t intended_ns = 0;
    int64_t lag_ns = 0;
    Tally* tally = nullptr;
  };

  void Complain(const std::string& what) {
    if (complaints_++ < 5) {
      fprintf(stderr, "perfbench: conn %d: %s\n", conn_, what.c_str());
    }
  }

  // Checks a value against its key and the allowed version window.
  bool ValueOk(const Slice& v, uint64_t id, uint64_t floor) {
    if (v.size() != kValueSize) return false;
    uint64_t version = blsm::DecodeFixed64(v.data() + 8);
    if (blsm::DecodeFixed64(v.data()) != id || version < floor ||
        version > keys_->issued(id)) {
      return false;
    }
    MakeValue(seed_, id, version, check_.data());
    return memcmp(check_.data(), v.data(), kValueSize) == 0;
  }

  bool Verify(const Pending& p, WireStatus ws, const Slice& body) {
    if (ws != WireStatus::kOk) return false;
    switch (p.op) {
      case Op::kGet:
        return ValueOk(body, p.id, p.floor[0]);
      case Op::kPut:
        keys_->Ack(p.id, p.version);
        return true;
      default: {
        std::vector<std::pair<std::string, std::string>> rows;
        if (!blsm::server::DecodeScanBody(body, &rows)) return false;
        // Keys are dense, so the rows must be exactly the next ids in key
        // order: this checks order, range and completeness at once.
        uint64_t want = std::min<uint64_t>(p.limit, records_ - p.id);
        if (rows.size() != want) return false;
        for (size_t i = 0; i < rows.size(); i++) {
          if (rows[i].first != KeyOf(p.id + i) ||
              !ValueOk(rows[i].second, p.id + i, p.floor[i])) {
            return false;
          }
        }
        return true;
      }
    }
  }

  void OnResponse(WireStatus ws, uint64_t rid, const Slice& body,
                  int64_t now) {
    auto it = pending_.find(rid);
    if (it == pending_.end()) {
      tally_->failed++;
      Complain("response to unknown request " + std::to_string(rid));
      return;
    }
    const Pending& p = it->second;
    Tally* t = p.tally;
    if (!Verify(p, ws, body)) {
      t->failed++;
      Complain(std::string("bad ") + OpName(p.op) + " response for " +
               KeyOf(p.id));
    } else {
      if (now <= t->deadline_ns) {
        t->completed++;
        if (t->windows > 0) t->done_per_window[t->WindowOf(now)]++;
      }
      int op = static_cast<int>(p.op);
      if (t->keep_latency) {
        t->latency_ns[op].push_back(now - p.intended_ns);
        if (p.op == Op::kGet) t->get_at_ns.push_back(p.intended_ns);
      }
      Recorder& rec = Recorder::Get();
      if (rec.enabled()) {
        Span s;
        s.id = rid;
        s.start_ns = p.intended_ns;
        s.end_ns = now;
        s.arg = static_cast<uint64_t>(p.lag_ns);
        s.layer = Layer::kClient;
        s.op = p.op;
        rec.Record(s);
      }
    }
    pending_.erase(it);
  }

  int conn_;
  uint64_t seed_;
  uint64_t records_;
  KeyState* keys_;
  int fd_ = -1;
  uint64_t next_id_ = 1;
  Tally* tally_ = nullptr;
  std::string out_;
  std::vector<uint64_t> unsent_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::string value_;
  std::string check_;
  std::vector<char> buf_;
  blsm::server::FrameReader reader_;
  int complaints_ = 0;
};

// ---- load generators --------------------------------------------------------

// Closed loop: keeps `depth` requests in flight until `end_ns` or until the
// stream runs dry, then drains.
Status RunClosed(Session* s, OpGen* gen, int depth, int64_t end_ns) {
  bool more = true;
  for (;;) {
    int64_t now = NowNs();
    Req r;
    while (more && now < end_ns &&
           s->in_flight() < static_cast<size_t>(depth)) {
      more = gen->Next(&r);
      if (more) s->Issue(r, now);
    }
    Status st = s->Send();
    if (!st.ok()) return st;
    if (!more || now >= end_ns || s->in_flight() == 0) break;
    st = s->Pump(end_ns);
    if (!st.ok()) return st;
  }
  return s->Drain();
}

// Open loop: request k is due at start + offset + k * interval whatever the
// responses do; it is timed from that intended time. The thread sleeps in
// ppoll until the next due time or a response, never spinning.
Status RunOpen(Session* s, OpGen* gen, double rate, int64_t offset_ns,
               int64_t start_ns, int64_t end_ns) {
  const double interval = 1e9 / rate;
  uint64_t k = 0;
  auto due = [&] {
    return start_ns + offset_ns + static_cast<int64_t>(interval * k);
  };
  for (;;) {
    int64_t now = NowNs();
    Req r;
    while (due() <= now && due() < end_ns) {
      gen->Next(&r);
      s->Issue(r, due());
      k++;
    }
    Status st = s->Send();
    if (!st.ok()) return st;
    if (due() >= end_ns) break;
    st = s->Pump(due());
    if (!st.ok()) return st;
  }
  return s->Drain();
}

// ---- one server instance ----------------------------------------------------

struct Ctx {
  Options opt;
  const WorkloadSpec* w = nullptr;
  uint64_t records = 0;
};

StatMap Minus(const StatMap& a, const StatMap& b) {
  StatMap d;
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    d[k] = v - (it == b.end() ? 0 : it->second);
  }
  return d;
}

class Instance {
 public:
  Instance(const Ctx& ctx, bool traced)
      : ctx_(ctx), traced_(traced), keys_(ctx.records) {}
  ~Instance() {
    sessions_.clear();
    if (srv_ != nullptr) srv_->Stop();
    srv_.reset();
    Env::Default()->RemoveDirRecursive(kDbDir).IgnoreError(
        "scratch cleanup; the next run scrubs it again");
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  blsm::server::Server* server() { return srv_.get(); }
  Session* session(int c) { return sessions_[static_cast<size_t>(c)].get(); }
  Tally& setup_tally() { return setup_tally_; }

  // Start, load over the wire, settle and warm up. Returns seconds taken.
  Status Setup(double* seconds) {
    int64_t t0 = NowNs();
    Env* env = Env::Default();
    env->RemoveDirRecursive(kDbDir).IgnoreError("fresh directory");
    blsm::server::ServerOptions o;
    o.dir = kDbDir;
    o.shards = kShards;
    o.engine_spec = traced_ ? "traced-blsm" : "blsm";
    o.engine.durability = blsm::DurabilityMode::kAsync;
    if (traced_) {
      timing_env_ = NewTimingEnv(env);
      o.engine.env = timing_env_.get();
    }
    Status s = blsm::server::Server::Start(o, &srv_);
    if (!s.ok()) return s;
    for (int c = 0; c < kConns; c++) {
      sessions_.push_back(std::make_unique<Session>(
          c, ctx_.opt.seed, ctx_.records, &keys_));
      s = sessions_.back()->Connect(srv_->port());
      if (!s.ok()) return s;
      sessions_.back()->set_tally(&setup_tally_);
    }

    // Load every id once, in a seed-dependent order, split over the conns.
    std::vector<uint64_t> order(ctx_.records);
    for (uint64_t i = 0; i < ctx_.records; i++) order[i] = i;
    blsm::Random rng(Mix(ctx_.opt.seed));
    for (uint64_t i = order.size() - 1; i > 0; i--) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
    s = Sweep(order, Op::kPut, /*depth=*/64);
    if (!s.ok()) return s;
    Settle();

    // Warm-up: read-cached reads every key once so every block is cached;
    // then every workload runs its own mix briefly.
    if (ctx_.w->zipfian) {
      s = Sweep(order, Op::kGet, /*depth=*/64);
      if (!s.ok()) return s;
    }
    s = Mixed(/*phase_seed=*/1, 0.5 * std::min(1.0, ctx_.opt.scale));
    if (!s.ok()) return s;
    Settle();
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    return Status::OK();
  }

  // Closed-loop mix over every connection for `secs` (warm-up and the
  // closed-loop phase).
  Status Mixed(uint64_t phase_seed, double secs, Tally* out = nullptr) {
    int64_t start = NowNs();
    int64_t end = start + static_cast<int64_t>(secs * 1e9);
    return OnAllConns(out, [&](int c, Session* sess) {
      OpGen gen(*ctx_.w, ctx_.records, StreamSeed(phase_seed, c), c);
      return RunClosed(sess, &gen, ctx_.w->depth, end);
    }, start, end);
  }

  Status Open(uint64_t phase_seed, double secs, Tally* out,
              const std::function<void(int64_t end_ns)>& while_running) {
    int64_t start = NowNs() + 1'000'000;
    int64_t end = start + static_cast<int64_t>(secs * 1e9);
    double per_conn = ctx_.w->open_rate / kConns;
    int64_t step = static_cast<int64_t>(1e9 / per_conn / kConns);
    return OnAllConns(
        out,
        [&](int c, Session* sess) {
          OpGen gen(*ctx_.w, ctx_.records, StreamSeed(phase_seed, c), c);
          return RunOpen(sess, &gen, per_conn, c * step, start, end);
        },
        start, end, while_running);
  }

 private:
  uint64_t StreamSeed(uint64_t phase, int c) const {
    return Mix(ctx_.opt.seed * 1000003 + phase * 101 +
               static_cast<uint64_t>(c));
  }

  // Runs fn on every connection, one thread each, with its own tally
  // (merged into *out, or into the setup tally when out is null).
  Status OnAllConns(Tally* out,
                    const std::function<Status(int, Session*)>& fn,
                    int64_t start_ns, int64_t deadline_ns,
                    const std::function<void(int64_t)>& while_running = {}) {
    std::vector<Tally> parts(kConns);
    std::vector<Status> st(kConns);
    Tally* sink = out != nullptr ? out : &setup_tally_;
    sink->start_ns = start_ns;
    sink->deadline_ns = deadline_ns;
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; c++) {
      parts[c].start_ns = start_ns;
      parts[c].deadline_ns = deadline_ns;
      parts[c].windows = sink->windows;
      parts[c].done_per_window.assign(static_cast<size_t>(sink->windows), 0);
      parts[c].keep_latency = sink->keep_latency;
      session(c)->set_tally(&parts[c]);
      threads.emplace_back([&, c] {
        // Sleep-based pacing: ask the kernel for 1 us timer slack instead of
        // the default 50 us so the open-loop schedule holds.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
        st[c] = fn(c, session(c));
      });
    }
    if (while_running) while_running(deadline_ns);
    for (auto& t : threads) t.join();
    for (int c = 0; c < kConns; c++) {
      sink->Merge(parts[c]);
      session(c)->set_tally(&setup_tally_);
      if (!st[c].ok()) return st[c];
    }
    return Status::OK();
  }

  Status Sweep(const std::vector<uint64_t>& order, Op op, int depth) {
    return OnAllConns(nullptr, [&](int c, Session* sess) {
      std::vector<uint64_t> mine;
      for (size_t i = static_cast<size_t>(c); i < order.size(); i += kConns) {
        mine.push_back(order[i]);
      }
      OpGen gen(std::move(mine), op);
      return RunClosed(sess, &gen, depth, INT64_MAX);
    }, NowNs(), INT64_MAX);
  }

  // Waits until background merges go quiet: merge counters and IO bytes
  // unchanged over 100 ms (bounded at 60 s).
  void Settle() {
    uint64_t last = UINT64_MAX;
    int quiet = 0;
    int64_t give_up = NowNs() + 60'000'000'000;
    while (quiet < 5 && NowNs() < give_up) {
      StatMap st = srv_->Stats();
      uint64_t sig = st["merge1_passes"] + st["merge2_passes"] +
                     st["io.write_bytes"] + st["io.read_bytes"];
      quiet = sig == last ? quiet + 1 : 0;
      last = sig;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  const Ctx& ctx_;
  bool traced_;
  KeyState keys_;
  std::unique_ptr<Env> timing_env_;  // outlives the server that uses it
  std::unique_ptr<blsm::server::Server> srv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  Tally setup_tally_;
};

// ---- measurement ------------------------------------------------------------

struct Measured {
  Tally closed, open;
  double closed_s = 0, open_s = 0;
  StatMap st0, st1, st2;  // before open, between phases, after closed
  std::vector<StatMap> shard0, shard2;  // traced runs: per-shard stats
  std::vector<double> queue_depth;      // traced runs: sampled gauge
  std::vector<Span> spans;              // traced runs
  uint64_t dir_bytes = 0;  // every file of the database after the run
};

// Bytes of every file under `dir`: components, index and Bloom blocks, the
// logical log and the manifest.
uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

Status Measure(Instance* inst, bool traced, double seconds, Measured* m) {
  blsm::server::Server* srv = inst->server();
  Recorder& rec = Recorder::Get();
  double phase_s = seconds / 2;
  m->open.keep_latency = true;
  m->open.windows = m->closed.windows =
      std::max(1, static_cast<int>(phase_s));
  m->st0 = srv->Stats();
  printf("# tree at first timed op: merge1_passes=%" PRIu64
         " merge2_passes=%" PRIu64 " on_disk_bytes=%" PRIu64
         " c0_live_bytes=%" PRIu64 "\n",
         m->st0["merge1_passes"], m->st0["merge2_passes"],
         m->st0["on_disk_bytes"], m->st0["c0_live_bytes"]);
  if (traced) m->shard0 = TracedShardStats();

  // Open loop first, so its latencies start from the settled tree rather
  // than from the merge debt a saturating closed loop leaves behind.
  if (traced) rec.Enable(kOpenPhase);
  auto sample_queue = [&](int64_t end_ns) {
    while (traced && NowNs() < end_ns) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      m->queue_depth.push_back(
          static_cast<double>(srv->Stats()["server.queue_depth"]));
    }
  };
  Status s = inst->Open(/*phase_seed=*/2, phase_s, &m->open, sample_queue);
  m->open_s = phase_s;
  rec.Disable();
  if (!s.ok()) return s;
  m->st1 = srv->Stats();

  if (traced) rec.Enable(kClosedPhase);
  s = inst->Mixed(/*phase_seed=*/3, phase_s, &m->closed);
  m->closed_s = phase_s;
  rec.Disable();
  if (!s.ok()) return s;
  m->st2 = srv->Stats();
  m->dir_bytes = DirBytes(kDbDir);
  if (traced) {
    m->shard2 = TracedShardStats();
    m->spans = rec.Collect();
  }
  return Status::OK();
}

// ---- reporting --------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<double> ToUs(const std::vector<int64_t>& ns) {
  std::vector<double> us(ns.size());
  for (size_t i = 0; i < ns.size(); i++) {
    us[i] = static_cast<double>(ns[i]) / 1e3;
  }
  return us;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t n;  // samples (or the denominator's count) behind the value
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t n) {
    metrics_.push_back({name, value, unit, n});
  }
  void Print(const char* tag) const {
    for (const Metric& m : metrics_) {
      printf("%s %-32s %16.6f %-6s n=%" PRIu64 "\n", tag, m.name.c_str(),
             m.value, m.unit.c_str(), m.n);
    }
  }
  void Append(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(),
                    other.metrics_.end());
  }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  // `"name": {"value": v, "unit": u}` entries for the given names.
  std::string Json(const std::vector<std::string>& names) const {
    std::string out;
    for (const std::string& name : names) {
      for (const Metric& m : metrics_) {
        if (m.name != name) continue;
        char buf[256];
        snprintf(buf, sizeof(buf),
                 "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 out.empty() ? "" : ", ", m.name.c_str(), m.value,
                 m.unit.c_str());
        out += buf;
      }
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

// The end-to-end figures of the untraced measurements. Throughput and GET
// p50 are medians over the phase windows of every instance; latency
// percentiles pool every request.
void EndToEnd(const Ctx& ctx, const std::vector<Measured>& ms, Report* r) {
  std::vector<double> tput, get_p50, us[3];
  uint64_t completed = 0, put_ops = 0;
  double written = 0, put_bytes = 0, dir_bytes = 0;
  for (const Measured& m : ms) {
    const Tally& o = m.open;
    const Tally& c = m.closed;
    double window_s = m.closed_s / c.windows;
    for (uint64_t done : c.done_per_window) {
      tput.push_back(static_cast<double>(done) / window_s);
    }
    completed += c.completed;
    std::vector<std::vector<double>> get_us(static_cast<size_t>(o.windows));
    for (size_t i = 0; i < o.get_at_ns.size(); i++) {
      get_us[o.WindowOf(o.get_at_ns[i])].push_back(
          static_cast<double>(o.latency_ns[0][i]) / 1e3);
    }
    for (const auto& w : get_us) {
      if (!w.empty()) get_p50.push_back(Quantile(w, 0.5));
    }
    for (int op = 0; op < 3; op++) {
      std::vector<double> v = ToUs(o.latency_ns[op]);
      us[op].insert(us[op].end(), v.begin(), v.end());
    }
    put_ops += c.ops[1] + o.ops[1];
    put_bytes += static_cast<double>(c.put_bytes + o.put_bytes);
    written += static_cast<double>(m.st2.at("io.write_bytes") -
                                   m.st0.at("io.write_bytes"));
    dir_bytes += static_cast<double>(m.dir_bytes);
  }
  r->Add("throughput_ops_s", Quantile(tput, 0.5), "ops/s", completed);
  r->Add("get_p50_us", Quantile(get_p50, 0.5), "us", us[0].size());

  const char* names[3] = {"get", "put", "scan"};
  for (int op = 0; op < 3; op++) {
    if (us[op].empty()) continue;
    if (op != 0) {
      r->Add(std::string(names[op]) + "_p50_us", Quantile(us[op], 0.50), "us",
             us[op].size());
    }
    r->Add(std::string(names[op]) + "_p99_us", Quantile(us[op], 0.99), "us",
           us[op].size());
  }
  if (put_bytes > 0) {
    r->Add("write_amp", written / put_bytes, "ratio", put_ops);
  }
  r->Add("space_amp",
         Ratio(dir_bytes / static_cast<double>(ms.size()),
               static_cast<double>(ctx.records * kValueSize)),
         "ratio", ctx.records);
}

// The per-layer figures of a traced measurement: counters and spans of the
// open-loop phase (fixed offered load, so per-op costs compare across
// commits), except merge and background-IO totals, which cover the whole
// timed window.
void PerLayer(const Measured& m, Report* r) {
  const Tally& o = m.open;
  StatMap d = Minus(m.st1, m.st0);   // open phase
  StatMap dw = Minus(m.st2, m.st0);  // whole timed window
  double gets = static_cast<double>(o.ops[0]);
  double puts = static_cast<double>(o.ops[1]);

  std::vector<double> eng[3], wal_append, write_self, fg_read;
  double eng_busy_ns = 0, mg_keys = 0, fg_reads = 0, fg_bytes = 0;
  double bg_busy_ns = 0, bg_read = 0, bg_write = 0, syncs = 0;
  for (const Span& s : m.spans) {
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    if (s.layer == Layer::kIo && s.parent == 0) {
      bg_busy_ns += dur;
      if (s.op == Op::kRead) bg_read += static_cast<double>(s.arg);
      if (s.op == Op::kWrite) bg_write += static_cast<double>(s.arg);
    }
    if (s.layer == Layer::kIo && s.op == Op::kSync) syncs++;
    if (s.phase != kOpenPhase) continue;
    switch (s.layer) {
      case Layer::kEngine:
        eng_busy_ns += dur;
        if (s.op == Op::kGet) mg_keys += static_cast<double>(s.arg);
        if (static_cast<int>(s.op) < 3) {
          eng[static_cast<int>(s.op)].push_back(dur / 1e3);
        }
        if (s.op == Op::kPut) {
          write_self.push_back((dur - static_cast<double>(s.child_ns)) / 1e3);
        }
        break;
      case Layer::kWal:
        wal_append.push_back(dur / 1e3);
        break;
      case Layer::kIo:
        if (s.parent != 0 && s.op == Op::kRead) {
          fg_reads++;
          fg_bytes += static_cast<double>(s.arg);
          fg_read.push_back(dur / 1e3);
        }
        break;
      default:
        break;
    }
  }

  std::vector<double> lag = ToUs(o.lag_ns);
  r->Add("client.sched_lag_p99_us", Quantile(lag, 0.99), "us", lag.size());
  std::vector<double> get_us = ToUs(o.latency_ns[0]);
  r->Add("server.residual_p50_us",
         Quantile(get_us, 0.5) - Quantile(eng[0], 0.5), "us", get_us.size());
  r->Add("server.keys_per_multiget", Ratio(mg_keys, eng[0].size()), "keys",
         eng[0].size());
  r->Add("server.ops_per_write",
         Ratio(d["server.write_ops"], d["server.write_batches"]), "ops",
         d["server.write_batches"]);
  double qsum = 0;
  for (double q : m.queue_depth) qsum += q;
  r->Add("server.queue_depth", Ratio(qsum, m.queue_depth.size()), "tasks",
         m.queue_depth.size());

  const char* names[3] = {"multiget", "write", "scan"};
  for (int op = 0; op < 3; op++) {
    r->Add(std::string("engine.") + names[op] + "_us_p50",
           Quantile(eng[op], 0.5), "us", eng[op].size());
    r->Add(std::string("engine.") + names[op] + "_us_p99",
           Quantile(eng[op], 0.99), "us", eng[op].size());
  }
  r->Add("engine.busy_frac", Ratio(eng_busy_ns, m.open_s * 1e9 * kShards),
         "ratio", eng[0].size() + eng[1].size() + eng[2].size());
  r->Add("engine.stalls", d["write.stalls"], "count", o.ops[1]);
  r->Add("engine.stall_us_per_put", Ratio(d["write_stall_micros"], puts),
         "us", o.ops[1]);

  r->Add("wal.append_us_p99", Quantile(wal_append, 0.99), "us",
         wal_append.size());
  r->Add("wal.records_per_batch",
         Ratio(d["wal.records"], d["wal.batches"]), "records",
         d["wal.batches"]);

  r->Add("lsm.write_self_us_p50", Quantile(write_self, 0.5), "us",
         write_self.size());
  r->Add("lsm.merge1_passes", dw["merge1_passes"], "count", kShards);
  r->Add("lsm.merge2_passes", dw["merge2_passes"], "count", kShards);
  double min_merge2 = 0;
  for (size_t i = 0; i < m.shard2.size() && i < m.shard0.size(); i++) {
    double p = static_cast<double>(m.shard2[i].at("merge2_passes") -
                                   m.shard0[i].at("merge2_passes"));
    min_merge2 = i == 0 ? p : std::min(min_merge2, p);
  }
  r->Add("lsm.min_shard_merge2_passes", min_merge2, "count", m.shard2.size());
  double put_bytes = static_cast<double>(m.closed.put_bytes + o.put_bytes);
  r->Add("lsm.merge_bytes_per_put_byte",
         Ratio(dw["merge1_bytes_out"] + dw["merge2_bytes_out"], put_bytes),
         "ratio", m.closed.ops[1] + o.ops[1]);
  r->Add("lsm.views_pinned_per_get", Ratio(d["read.views_pinned"], gets),
         "views", o.ops[0]);

  double hits = d["block_cache.hits"], misses = d["block_cache.misses"];
  r->Add("cache.hit_rate", Ratio(hits, hits + misses), "ratio",
         static_cast<uint64_t>(hits + misses));
  r->Add("bloom.skips_per_get", Ratio(d["bloom_skips"], gets), "skips",
         o.ops[0]);
  r->Add("read.block_probes_per_get", Ratio(hits + misses, gets), "blocks",
         o.ops[0]);

  r->Add("io.fg_reads_per_get", Ratio(fg_reads, gets), "reads", o.ops[0]);
  r->Add("io.fg_read_bytes_per_get", Ratio(fg_bytes, gets), "bytes",
         o.ops[0]);
  r->Add("io.fg_read_us_p50", Quantile(fg_read, 0.5), "us", fg_read.size());
  r->Add("io.fg_read_us_p99", Quantile(fg_read, 0.99), "us", fg_read.size());
  r->Add("io.bg_busy_s", bg_busy_ns / 1e9, "s", kShards);
  r->Add("io.bg_read_bytes", bg_read, "bytes", kShards);
  r->Add("io.bg_write_bytes", bg_write, "bytes", kShards);
  r->Add("io.syncs", syncs, "count", kShards);
}

// The result's end-to-end set: the metrics every workload has that repeat
// closely enough across seeds to carry a bound. The rest print as e2e lines
// and join the traced run's set below.
const std::vector<std::string> kEndToEndJson = {"setup_s", "throughput_ops_s",
                                                "get_p50_us"};

// End-to-end metrics only some workloads have.
const std::vector<std::pair<std::string, std::string>> kSpecificEndToEnd = {
    {"put_p50_us", "us"},  {"put_p99_us", "us"}, {"scan_p50_us", "us"},
    {"scan_p99_us", "us"}, {"write_amp", "ratio"}};

const std::vector<std::string> kPerLayerJson = {
      "client.sched_lag_p99_us", "server.residual_p50_us",
      "server.keys_per_multiget", "server.ops_per_write",
      "server.queue_depth", "engine.multiget_us_p50",
      "engine.multiget_us_p99", "engine.write_us_p50",
      "engine.write_us_p99", "engine.scan_us_p50", "engine.scan_us_p99",
      "engine.busy_frac", "engine.stalls", "engine.stall_us_per_put",
      "wal.append_us_p99", "wal.records_per_batch", "lsm.write_self_us_p50",
      "lsm.merge1_passes", "lsm.merge2_passes", "lsm.min_shard_merge2_passes",
      "lsm.merge_bytes_per_put_byte", "lsm.views_pinned_per_get",
      "cache.hit_rate", "bloom.skips_per_get", "read.block_probes_per_get",
      "io.fg_reads_per_get", "io.fg_read_bytes_per_get", "io.fg_read_us_p50",
      "io.fg_read_us_p99", "io.bg_busy_s", "io.bg_read_bytes",
      "io.bg_write_bytes", "io.syncs", "trace_overhead_frac", "put_p50_us",
      "put_p99_us", "scan_p50_us", "scan_p99_us", "write_amp", "fail_frac",
      "get_p99_us", "space_amp"};

// What a traced run must show for its workload to stress the layers the
// workload is chosen for; a run that misses one is not correct. A dataset
// scaled below full size can fit in C0 and run no merge, so the checks hold
// at --scale 1 only.
struct StressCheck {
  const char* workload;
  const char* metric;
  double min, max;
};
const StressCheck kStressChecks[] = {
    {"read-cached", "cache.hit_rate", 0.95, 1},
    {"read-cached", "io.fg_reads_per_get", 0, 0.01},
    {"write-mixed", "lsm.min_shard_merge2_passes", 1, HUGE_VAL},
};

int Fail(const Status& s) {
  fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
  return 1;
}

int Run(const Options& opt) {
  Ctx ctx;
  ctx.opt = opt;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) ctx.w = &w;
  }
  if (ctx.w == nullptr) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  ctx.records = std::max<uint64_t>(
      1000, static_cast<uint64_t>(static_cast<double>(ctx.w->records) *
                                  opt.scale));
  RegisterTracedEngine();
  printf("# workload %s: records=%" PRIu64 " x %zu B, shards=%d conns=%d "
         "depth=%d open_rate=%.0f ops/s durability=async seed=%" PRIu64
         " seconds=%.1f trace=%d\n",
         ctx.w->name, ctx.records, kValueSize, kShards, kConns, ctx.w->depth,
         ctx.w->open_rate, opt.seed,
         opt.seconds, opt.trace ? 1 : 0);

  uint64_t attempted = 0, failed = 0;
  auto count = [&](const Tally& t) {
    attempted += t.attempted;
    failed += t.failed;
  };

  // Untraced: kUntracedInstances instances, each set up and then measured
  // for an equal share of the run, so the medians span several set-ups and the
  // whole run rather than one instance's stretch of it.
  Report e2e;
  std::vector<Measured> plain(kUntracedInstances);
  std::vector<double> setup_s;
  for (Measured& m : plain) {
    Instance inst(ctx, /*traced=*/false);
    double secs = 0;
    Status s = inst.Setup(&secs);
    if (!s.ok()) return Fail(s);
    setup_s.push_back(secs);
    s = Measure(&inst, /*traced=*/false, opt.seconds / kUntracedInstances, &m);
    if (!s.ok()) return Fail(s);
    count(inst.setup_tally());
    count(m.open);
    count(m.closed);
  }
  e2e.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
  EndToEnd(ctx, plain, &e2e);

  Report layers;
  if (opt.trace) {
    Instance inst(ctx, /*traced=*/true);
    double secs = 0;
    Status s = inst.Setup(&secs);
    if (!s.ok()) return Fail(s);
    Measured traced;
    s = Measure(&inst, /*traced=*/true, opt.seconds, &traced);
    if (!s.ok()) return Fail(s);
    count(inst.setup_tally());
    count(traced.open);
    count(traced.closed);
    PerLayer(traced, &layers);
    double tput = Ratio(traced.closed.completed, traced.closed_s);
    double done = 0, secs_closed = 0;
    for (const Measured& m : plain) {
      done += static_cast<double>(m.closed.completed);
      secs_closed += m.closed_s;
    }
    double base = Ratio(done, secs_closed);
    layers.Add("trace_overhead_frac", 1 - Ratio(tput, base), "ratio",
               traced.closed.completed);
    std::string path = std::string(kSpanDir) + "/spans-" + ctx.w->name + ".tsv";
    if (Env::Default()->CreateDir(kSpanDir).ok() ||
        Env::Default()->FileExists(kSpanDir)) {
      if (!WriteSpansTsv(traced.spans, path)) {
        fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
      }
    }
    printf("# traced run: %zu spans (%" PRIu64 " dropped) written to %s\n",
           traced.spans.size(), Recorder::Get().dropped(), path.c_str());
  }
  e2e.Add("fail_frac", Ratio(failed, attempted), "ratio", attempted);
  // The traced result also carries the end-to-end metrics that have no
  // bound, measured on its untraced instances; those that do not apply to
  // the workload read 0, so every workload reports the same names.
  if (opt.trace) {
    for (const auto& [name, unit] : kSpecificEndToEnd) {
      if (e2e.Find(name) == nullptr) layers.Add(name, 0, unit, 0);
    }
  }
  bool stressed = true;
  for (const StressCheck& c : kStressChecks) {
    if (!opt.trace || opt.scale < 1 || opt.workload != c.workload) continue;
    const Metric* m = layers.Find(c.metric);
    double v = m != nullptr ? m->value : NAN;
    if (!(v >= c.min && v <= c.max)) {
      stressed = false;
      fprintf(stderr, "perfbench: %s: %s = %g, outside [%g, %g]\n",
              c.workload, c.metric, v, c.min, c.max);
    }
  }
  e2e.Print("e2e");
  layers.Print("layer");

  std::string metrics = e2e.Json(kEndToEndJson);
  if (opt.trace) {
    layers.Append(e2e);
    metrics = layers.Json(kPerLayerJson);
  }
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {%s}}\n",
         failed == 0 && stressed ? "true" : "false", attempted, failed,
         metrics.c_str());
  return 0;
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload read-cached|write-mixed"
          " --seed N --seconds S --trace 0|1 [--scale F]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) return perfbench::Usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--scale") {
      opt.scale = atof(v.c_str());
    } else {
      return perfbench::Usage();
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0 || opt.scale <= 0) {
    return perfbench::Usage();
  }
  return perfbench::Run(opt);
}
