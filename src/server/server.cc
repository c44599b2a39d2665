#include "server/server.h"

#include <atomic>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/shard_router.h"
#include "io/socket.h"
#include "server/wire_protocol.h"
#include "util/coding.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace blsm::server {

namespace {

// Scans larger than this would build response frames the client-side framer
// (kMaxFrameBytes) could refuse; reject them up front.
constexpr uint32_t kMaxScanLimit = 64 * 1024;

// Per-connection state. The event-loop thread owns fd registration and the
// frame reader; shard workers push response bytes straight into the socket
// under mu when it has room, so a response only waits for the loop when the
// kernel buffer is full. out is empty whenever want_write is false.
struct ServerConn {
  int fd = -1;
  FrameReader reader;  // event-loop thread only

  util::Mutex mu{util::lock_rank::kServerConnMu};
  std::string out GUARDED_BY(mu);          // encoded, unsent response bytes
  bool want_write GUARDED_BY(mu) = false;  // partial send pending
  bool armed GUARDED_BY(mu) = false;       // EPOLLOUT registered
  bool closed GUARDED_BY(mu) = false;
};

// Shared completion state for a request fanned out across shards
// (MULTIGET / WRITE_BATCH / SCAN). The last sub-task to finish assembles
// and sends the response.
struct FanState {
  OpCode op = OpCode::kMultiGet;
  uint64_t id = 0;
  std::shared_ptr<ServerConn> conn;
  std::atomic<int> remaining{0};
  uint32_t scan_limit = 0;

  util::Mutex mu{util::lock_rank::kFanStateMu};
  Status error GUARDED_BY(mu);  // first engine error wins
  std::vector<std::pair<bool, std::string>> mg_results GUARDED_BY(mu);
  std::vector<std::vector<std::pair<std::string, std::string>>> scan_parts
      GUARDED_BY(mu);
};

// One unit of dispatched work. Owns copies of the request bytes: the frame
// buffer the Request Slices alias is recycled as soon as the loop pops the
// frame, long before a worker runs.
struct ShardTask {
  OpCode op = OpCode::kGet;
  uint64_t id = 0;
  std::shared_ptr<ServerConn> conn;  // point ops; null for fan sub-tasks
  std::shared_ptr<FanState> fan;     // fan sub-tasks; null for point ops
  std::string key;                   // point key / scan start
  std::string value;
  uint32_t scan_limit = 0;
  int scan_slot = -1;  // index into fan->scan_parts
  std::vector<std::pair<size_t, std::string>> mg_keys;  // (caller pos, key)
  kv::WriteBatch batch;  // this shard's slice of a WRITE_BATCH
};

// A shard worker's replies for one dequeued run: the encoded frames for each
// connection the run touched, in completion order. The worker flushes it at
// the end of the run, one socket write per connection. Buffers keep their
// capacity from run to run, up to kRetainBytes each.
class Outbox {
 public:
  // The buffer to append conn's next response frame to.
  std::string* For(const std::shared_ptr<ServerConn>& conn) {
    // A run touches few connections, and the latest one most often.
    for (size_t i = used_; i-- > 0;) {
      if (entries_[i].conn == conn) return &entries_[i].frames;
    }
    if (used_ == entries_.size()) entries_.emplace_back();
    Entry& e = entries_[used_++];
    e.conn = conn;
    e.frames.clear();
    return &e.frames;
  }

  // Calls fn(conn, frames) once per touched connection, then empties the
  // outbox.
  template <typename Fn>
  void Drain(Fn&& fn) {
    for (size_t i = 0; i < used_; i++) {
      Entry& e = entries_[i];
      fn(e.conn, e.frames);
      e.conn.reset();
      if (e.frames.capacity() > kRetainBytes) std::string().swap(e.frames);
    }
    used_ = 0;
  }

 private:
  static constexpr size_t kRetainBytes = 256 * 1024;

  struct Entry {
    std::shared_ptr<ServerConn> conn;
    std::string frames;
  };
  std::vector<Entry> entries_;
  size_t used_ = 0;
};

struct ShardQueue {
  mutable util::Mutex mu{util::lock_rank::kShardQueueMu};
  util::CondVar cv;
  std::deque<ShardTask> tasks GUARDED_BY(mu);
  bool stop GUARDED_BY(mu) = false;
};

WireStatus ToWire(const Status& s) {
  if (s.ok()) return WireStatus::kOk;
  if (s.IsNotFound()) return WireStatus::kNotFound;
  return WireStatus::kError;
}

bool IsWriteOp(OpCode op) {
  return op == OpCode::kPut || op == OpCode::kDelete ||
         op == OpCode::kWriteBatch;
}

}  // namespace

class Server::Impl {
 public:
  Status Init(const ServerOptions& options) {
    options_ = options;
    if (!loop_.ok()) return loop_.error();
    Status s = engine::ShardRouter::Open(options.engine, options.engine_spec,
                                         options.dir, options.shards,
                                         &router_);
    if (!s.ok()) return s;
    s = net::Listen(options.host, options.port, /*backlog=*/128, &listen_fd_,
                    &port_);
    if (!s.ok()) return s;
    s = net::SetNonBlocking(listen_fd_);
    if (s.ok()) s = loop_.Add(listen_fd_, /*want_read=*/true, false);
    if (!s.ok()) {
      net::CloseFd(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    int shards = router_->num_shards();
    shard_ops_.reset(new std::atomic<uint64_t>[shards]);
    for (int i = 0; i < shards; i++) shard_ops_[i].store(0);
    unfinished_.reset(new std::atomic<uint32_t>[shards]);
    for (int i = 0; i < shards; i++) unfinished_[i].store(0);
    staged_.resize(static_cast<size_t>(shards));
    queues_.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; i++) {
      queues_.push_back(std::make_unique<ShardQueue>());
    }
    workers_.reserve(static_cast<size_t>(shards));
    for (int i = 0; i < shards; i++) {
      workers_.emplace_back([this, i] { ShardWorker(i); });
    }
    loop_thread_ = std::thread([this] { LoopMain(); });
    return Status::OK();
  }

  // Single-caller shutdown (Server::Stop or the destructor): stop reading,
  // drain the shard queues so accepted work is answered, then drop the
  // sockets.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    stop_.store(true, std::memory_order_release);
    loop_.Wake();
    if (loop_thread_.joinable()) loop_thread_.join();
    for (auto& q : queues_) {
      util::MutexLock l(&q->mu);
      q->stop = true;
      q->cv.NotifyAll();
    }
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    std::vector<int> fds;
    fds.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) fds.push_back(fd);
    for (int fd : fds) CloseConn(fd);
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      net::CloseFd(listen_fd_);
      listen_fd_ = -1;
    }
  }

  std::map<std::string, uint64_t> Stats() const {
    std::map<std::string, uint64_t> out = router_->Stats();
    out["server.conns_accepted"] = conns_accepted_.load();
    out["server.conns_active"] = conns_active_.load();
    out["server.requests"] = requests_.load();
    out["server.bytes_in"] = bytes_in_.load();
    out["server.bytes_out"] = bytes_out_.load();
    out["server.bad_frames"] = bad_frames_.load();
    out["server.bad_requests"] = bad_requests_.load();
    out["server.write_batches"] = write_batches_.load();
    out["server.write_ops"] = write_ops_.load();
    out["server.reads_coalesced"] = reads_coalesced_.load();
    out["server.reads_inline"] = reads_inline_.load();
    out["server.response_writes"] = response_writes_.load();
    uint64_t depth = 0;
    for (const auto& q : queues_) {
      util::MutexLock l(&q->mu);
      depth += q->tasks.size();
    }
    out["server.queue_depth"] = depth;
    for (int i = 0; i < router_->num_shards(); i++) {
      out["server.shard_ops_" + std::to_string(i)] = shard_ops_[i].load();
    }
    return out;
  }

  uint16_t port_ = 0;
  std::unique_ptr<engine::ShardRouter> router_;

 private:
  // ---- event-loop thread ---------------------------------------------------

  void LoopMain() {
    std::vector<net::EventLoop::Event> events;
    std::vector<char> buf(64 * 1024);
    while (!stop_.load(std::memory_order_acquire)) {
      events.clear();
      Status s = loop_.Poll(/*timeout_ms=*/100, &events);
      if (!s.ok()) {
        s.IgnoreError("event loop poll failed; retrying");
        continue;
      }
      // Closes are deferred to the end of the batch so an fd freed here is
      // not reused by an accept within the same batch and matched against a
      // stale event.
      std::vector<int> dead;
      for (const auto& e : events) {
        if (e.wakeup) {
          ArmWritable();
          continue;
        }
        if (e.fd == listen_fd_) {
          AcceptAll();
          continue;
        }
        auto it = conns_.find(e.fd);
        if (it == conns_.end()) continue;
        std::shared_ptr<ServerConn> conn = it->second;
        if (e.error) {
          dead.push_back(e.fd);
          continue;
        }
        if (e.writable && !FlushConn(conn)) {
          dead.push_back(e.fd);
          continue;
        }
        if (e.readable && !ReadConn(conn, buf.data(), buf.size())) {
          dead.push_back(e.fd);
        }
      }
      DispatchStaged();
      for (int fd : dead) CloseConn(fd);
    }
  }

  void AcceptAll() {
    for (;;) {
      int fd = -1;
      net::IoResult r = net::Accept(listen_fd_, &fd);
      if (r != net::IoResult::kOk) return;  // kWouldBlock, or transient error
      Status s = net::SetNonBlocking(fd);
      if (s.ok()) s = loop_.Add(fd, /*want_read=*/true, false);
      if (!s.ok()) {
        s.IgnoreError("dropping connection that failed setup");
        net::CloseFd(fd);
        continue;
      }
      auto conn = std::make_shared<ServerConn>();
      conn->fd = fd;
      conns_[fd] = std::move(conn);
      conns_accepted_.fetch_add(1, std::memory_order_relaxed);
      conns_active_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // False ends the connection (EOF, socket error, or protocol violation).
  bool ReadConn(const std::shared_ptr<ServerConn>& conn, char* buf,
                size_t len) {
    // Bounded rounds so one firehose connection cannot starve the rest;
    // level-triggered epoll re-delivers whatever is left.
    for (int round = 0; round < 4; round++) {
      size_t n = 0;
      net::IoResult r = net::RecvSome(conn->fd, buf, len, &n);
      if (r == net::IoResult::kWouldBlock) return true;
      if (r != net::IoResult::kOk) return false;  // kEof / kError
      bytes_in_.fetch_add(n, std::memory_order_relaxed);
      conn->reader.Feed(buf, n);
      if (!ProcessFrames(conn)) return false;
      if (n < len) return true;
    }
    return true;
  }

  bool ProcessFrames(const std::shared_ptr<ServerConn>& conn) {
    Slice payload;
    bool bad = false;
    while (conn->reader.Next(&payload, &bad)) {
      Request req;
      if (DecodeRequest(payload, &req)) {
        Dispatch(conn, req);
      } else {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        if (payload.size() < kRequestHeaderBytes) return false;
        // The header parsed, so answer in-band and keep the stream alive —
        // a pipelining client loses one request, not the connection.
        uint64_t id = DecodeFixed64(payload.data() + 1);
        SendResponse(conn, WireStatus::kBadRequest, id, "malformed request");
      }
      conn->reader.Pop();
    }
    if (bad) {
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  // Copies the request out of the frame buffer and stages it for its shard.
  // Single-key ops go to one shard; multi-shard ops fan out.
  void Dispatch(const std::shared_ptr<ServerConn>& conn, const Request& req) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    switch (req.op) {
      case OpCode::kGet:
      case OpCode::kPut:
      case OpCode::kDelete:
      case OpCode::kRmw: {
        ShardTask t;
        t.op = req.op;
        t.id = req.id;
        t.conn = conn;
        t.key = req.key.ToString();
        t.value = req.value.ToString();
        int shard = router_->ShardOf(req.key);
        Stage(shard, std::move(t));
        break;
      }
      case OpCode::kMultiGet: {
        if (req.keys.empty()) {
          std::string body;
          BeginCountedBody(&body, 0);
          SendResponse(conn, WireStatus::kOk, req.id, body);
          break;
        }
        std::vector<std::vector<std::pair<size_t, std::string>>> per(
            static_cast<size_t>(router_->num_shards()));
        for (size_t i = 0; i < req.keys.size(); i++) {
          per[static_cast<size_t>(router_->ShardOf(req.keys[i]))]
              .emplace_back(i, req.keys[i].ToString());
        }
        auto fan = std::make_shared<FanState>();
        fan->op = OpCode::kMultiGet;
        fan->id = req.id;
        fan->conn = conn;
        int touched = 0;
        for (const auto& p : per) touched += p.empty() ? 0 : 1;
        fan->remaining.store(touched, std::memory_order_relaxed);
        {
          util::MutexLock l(&fan->mu);
          fan->mg_results.assign(req.keys.size(), {false, std::string()});
        }
        for (size_t sh = 0; sh < per.size(); sh++) {
          if (per[sh].empty()) continue;
          ShardTask t;
          t.op = OpCode::kMultiGet;
          t.fan = fan;
          t.mg_keys = std::move(per[sh]);
          Stage(static_cast<int>(sh), std::move(t));
        }
        break;
      }
      case OpCode::kWriteBatch: {
        std::vector<kv::WriteBatch> per(
            static_cast<size_t>(router_->num_shards()));
        for (const WireBatchEntry& e : req.entries) {
          kv::WriteBatch& dst = per[static_cast<size_t>(router_->ShardOf(
              e.key))];
          if (e.is_delete) {
            dst.Delete(e.key);
          } else {
            dst.Put(e.key, e.value);
          }
        }
        int touched = 0;
        for (const auto& b : per) touched += b.Empty() ? 0 : 1;
        if (touched == 0) {
          SendResponse(conn, WireStatus::kOk, req.id, Slice());
          break;
        }
        auto fan = std::make_shared<FanState>();
        fan->op = OpCode::kWriteBatch;
        fan->id = req.id;
        fan->conn = conn;
        fan->remaining.store(touched, std::memory_order_relaxed);
        for (size_t sh = 0; sh < per.size(); sh++) {
          if (per[sh].Empty()) continue;
          ShardTask t;
          t.op = OpCode::kWriteBatch;
          t.fan = fan;
          t.batch = std::move(per[sh]);
          Stage(static_cast<int>(sh), std::move(t));
        }
        break;
      }
      case OpCode::kScan: {
        if (req.scan_limit > kMaxScanLimit) {
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
          SendResponse(conn, WireStatus::kBadRequest, req.id,
                       "scan limit too large");
          break;
        }
        auto fan = std::make_shared<FanState>();
        fan->op = OpCode::kScan;
        fan->id = req.id;
        fan->conn = conn;
        fan->scan_limit = req.scan_limit;
        int shards = router_->num_shards();
        fan->remaining.store(shards, std::memory_order_relaxed);
        {
          util::MutexLock l(&fan->mu);
          fan->scan_parts.resize(static_cast<size_t>(shards));
        }
        for (int sh = 0; sh < shards; sh++) {
          ShardTask t;
          t.op = OpCode::kScan;
          t.fan = fan;
          t.key = req.key.ToString();
          t.scan_limit = req.scan_limit;
          t.scan_slot = sh;
          Stage(sh, std::move(t));
        }
        break;
      }
      case OpCode::kStats: {
        // Diagnostics, not a hot path: one worker walks every shard's
        // counters.
        ShardTask t;
        t.op = OpCode::kStats;
        t.id = req.id;
        t.conn = conn;
        Stage(0, std::move(t));
        break;
      }
    }
  }

  // Re-arms EPOLLOUT for connections whose worker hit a full socket buffer.
  void ArmWritable() {
    for (const auto& [fd, conn] : conns_) {
      util::MutexLock l(&conn->mu);
      if (conn->closed || !conn->want_write || conn->armed) continue;
      Status s = loop_.Modify(fd, /*want_read=*/true, /*want_write=*/true);
      if (s.ok()) {
        conn->armed = true;
      } else {
        s.IgnoreError("retried on next wakeup");
      }
    }
  }

  // EPOLLOUT: push out buffered bytes; false closes the connection.
  bool FlushConn(const std::shared_ptr<ServerConn>& conn) {
    util::MutexLock l(&conn->mu);
    if (conn->closed) return false;
    if (!conn->out.empty()) {
      size_t sent = 0;
      net::IoResult r =
          net::SendSome(conn->fd, conn->out.data(), conn->out.size(), &sent);
      if (r == net::IoResult::kError) return false;
      if (r == net::IoResult::kOk) {
        bytes_out_.fetch_add(sent, std::memory_order_relaxed);
        conn->out.erase(0, sent);
      }
    }
    if (conn->out.empty() && conn->want_write) {
      conn->want_write = false;
      conn->armed = false;
      Status s = loop_.Modify(conn->fd, /*want_read=*/true, false);
      if (!s.ok()) {
        s.IgnoreError("connection closes below");
        return false;
      }
    }
    return true;
  }

  void CloseConn(int fd) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    std::shared_ptr<ServerConn> conn = std::move(it->second);
    conns_.erase(it);
    loop_.Remove(fd);
    util::MutexLock l(&conn->mu);
    conn->closed = true;
    net::CloseFd(conn->fd);
    conn->fd = -1;
    conns_active_.fetch_sub(1, std::memory_order_relaxed);
  }

  // ---- dispatch (event-loop thread) ----------------------------------------

  void Stage(int shard, ShardTask task) {
    staged_[static_cast<size_t>(shard)].push_back(std::move(task));
    staged_count_++;
    last_staged_shard_ = shard;
  }

  // Hands the tasks decoded in one loop iteration to their shards: one lock
  // and one wake-up per shard, not per request.
  //
  // A lone GET whose shard has nothing queued or running is answered here
  // instead; handing it over would only add the worker's wake-up to its
  // latency. Zero unfinished tasks means every request dispatched earlier to
  // that shard has been applied, so the GET observes them all (the per-key
  // ordering guarantee). This thread is the only producer, so the worker
  // stays idle while the GET runs.
  void DispatchStaged() {
    if (staged_count_ == 0) return;
    const size_t lone = static_cast<size_t>(last_staged_shard_);
    if (staged_count_ == 1 && staged_[lone][0].op == OpCode::kGet &&
        unfinished_[lone].load(std::memory_order_acquire) == 0) {
      const ShardTask& t = staged_[lone][0];
      std::string value;
      Status s = router_->shard(last_staged_shard_)->Get(t.key, &value);
      shard_ops_[lone].fetch_add(1, std::memory_order_relaxed);
      reads_inline_.fetch_add(1, std::memory_order_relaxed);
      std::string frame;
      AppendGetResponse(&frame, t.id, s, value);
      SendFrames(t.conn, frame);
      staged_[lone].clear();
      staged_count_ = 0;
      return;
    }
    for (size_t sh = 0; sh < staged_.size(); sh++) {
      std::vector<ShardTask>& tasks = staged_[sh];
      if (tasks.empty()) continue;
      unfinished_[sh].fetch_add(static_cast<uint32_t>(tasks.size()),
                                std::memory_order_relaxed);
      ShardQueue& q = *queues_[sh];
      {
        util::MutexLock l(&q.mu);
        for (ShardTask& t : tasks) q.tasks.push_back(std::move(t));
        q.cv.NotifyOne();
      }
      tasks.clear();
    }
    staged_count_ = 0;
  }

  // ---- shard workers -------------------------------------------------------

  void ShardWorker(int idx) {
    ShardQueue& q = *queues_[static_cast<size_t>(idx)];
    std::deque<ShardTask> local;
    Outbox outbox;
    for (;;) {
      {
        util::MutexLock l(&q.mu);
        while (q.tasks.empty() && !q.stop) q.cv.Wait(&q.mu);
        if (q.tasks.empty()) return;  // stopped and drained
        local.swap(q.tasks);
      }
      ProcessRun(idx, &local, &outbox);
      // Flush before the count drops: a shard the loop sees idle has
      // answered every request it applied, not only applied them.
      outbox.Drain([this](const std::shared_ptr<ServerConn>& conn,
                          const std::string& frames) {
        response_writes_.fetch_add(1, std::memory_order_relaxed);
        SendFrames(conn, frames);
      });
      // Release: an inline GET that reads zero sees this run's writes.
      unfinished_[idx].fetch_sub(static_cast<uint32_t>(local.size()),
                                 std::memory_order_release);
      local.clear();
    }
  }

  // Drains one dequeued run. This is where cross-connection group commit
  // happens: every queued write in the run — PUTs and DELETEs from any
  // number of connections, plus WRITE_BATCH slices — folds into one engine
  // Write, which is one WAL record group and one group-commit sync.
  // Consecutive GETs fold into one MultiGet the same way. Every response is
  // encoded into *outbox, which the caller flushes after the run.
  void ProcessRun(int idx, std::deque<ShardTask>* tasks, Outbox* outbox) {
    kv::Engine* eng = router_->shard(idx);
    shard_ops_[idx].fetch_add(tasks->size(), std::memory_order_relaxed);
    const size_t n = tasks->size();
    size_t i = 0;
    while (i < n) {
      ShardTask& t = (*tasks)[i];
      if (IsWriteOp(t.op)) {
        size_t j = i;
        kv::WriteBatch batch;
        while (j < n && IsWriteOp((*tasks)[j].op)) {
          ShardTask& w = (*tasks)[j];
          if (w.op == OpCode::kPut) {
            batch.Put(w.key, w.value);
          } else if (w.op == OpCode::kDelete) {
            batch.Delete(w.key);
          } else {
            for (const auto& e : w.batch.entries()) {
              if (e.type == RecordType::kTombstone) {
                batch.Delete(e.key);
              } else {
                batch.Put(e.key, e.value);
              }
            }
          }
          j++;
        }
        Status s = eng->Write(batch);
        write_batches_.fetch_add(1, std::memory_order_relaxed);
        write_ops_.fetch_add(j - i, std::memory_order_relaxed);
        std::string err = s.ok() ? std::string() : s.ToString();
        for (size_t k = i; k < j; k++) {
          ShardTask& w = (*tasks)[k];
          if (w.fan != nullptr) {
            if (!s.ok()) {
              util::MutexLock l(&w.fan->mu);
              if (w.fan->error.ok()) w.fan->error = s;
            }
            CompleteFan(w.fan, outbox);
          } else {
            EncodeResponse(outbox->For(w.conn), ToWire(s), w.id, err);
          }
        }
        i = j;
      } else if (t.op == OpCode::kGet) {
        size_t j = i;
        while (j < n && (*tasks)[j].op == OpCode::kGet) j++;
        if (j - i == 1) {
          std::string value;
          Status s = eng->Get(t.key, &value);
          AppendGetResponse(outbox->For(t.conn), t.id, s, value);
        } else {
          std::vector<Slice> keys;
          keys.reserve(j - i);
          for (size_t k = i; k < j; k++) keys.push_back((*tasks)[k].key);
          std::vector<std::string> vals;
          std::vector<Status> sts = eng->MultiGet(keys, &vals);
          reads_coalesced_.fetch_add(j - i, std::memory_order_relaxed);
          for (size_t k = i; k < j; k++) {
            const ShardTask& g = (*tasks)[k];
            AppendGetResponse(outbox->For(g.conn), g.id, sts[k - i],
                              vals[k - i]);
          }
        }
        i = j;
      } else {
        ProcessSingle(eng, &t, outbox);
        i++;
      }
    }
  }

  // Appends the response frame for a GET that returned (s, value).
  static void AppendGetResponse(std::string* frames, uint64_t id,
                                const Status& s, const std::string& value) {
    if (s.ok()) {
      EncodeResponse(frames, WireStatus::kOk, id, value);
    } else if (s.IsNotFound()) {
      EncodeResponse(frames, WireStatus::kNotFound, id, Slice());
    } else {
      EncodeResponse(frames, WireStatus::kError, id, s.ToString());
    }
  }

  void ProcessSingle(kv::Engine* eng, ShardTask* t, Outbox* outbox) {
    switch (t->op) {
      case OpCode::kRmw: {
        // Wire RMW is append-or-create: the one read-modify-write shape
        // expressible without shipping code, and enough to exercise the
        // engine's RMW path end to end.
        const std::string& delta = t->value;
        Status s = eng->ReadModifyWrite(
            t->key, [&delta](const std::string& old, bool absent) {
              return absent ? delta : old + delta;
            });
        std::string err = s.ok() ? std::string() : s.ToString();
        EncodeResponse(outbox->For(t->conn), ToWire(s), t->id, err);
        break;
      }
      case OpCode::kMultiGet: {
        std::vector<Slice> keys;
        keys.reserve(t->mg_keys.size());
        for (const auto& [pos, key] : t->mg_keys) keys.push_back(key);
        std::vector<std::string> vals;
        std::vector<Status> sts = eng->MultiGet(keys, &vals);
        {
          util::MutexLock l(&t->fan->mu);
          for (size_t i = 0; i < t->mg_keys.size(); i++) {
            if (sts[i].ok()) {
              t->fan->mg_results[t->mg_keys[i].first] = {true,
                                                         std::move(vals[i])};
            } else if (!sts[i].IsNotFound() && t->fan->error.ok()) {
              t->fan->error = sts[i];
            }
          }
        }
        CompleteFan(t->fan, outbox);
        break;
      }
      case OpCode::kScan: {
        std::vector<std::pair<std::string, std::string>> part;
        Status s = eng->Scan(kv::ReadOptions(), t->key, t->scan_limit, &part);
        {
          util::MutexLock l(&t->fan->mu);
          if (!s.ok() && t->fan->error.ok()) t->fan->error = s;
          t->fan->scan_parts[static_cast<size_t>(t->scan_slot)] =
              std::move(part);
        }
        CompleteFan(t->fan, outbox);
        break;
      }
      case OpCode::kStats: {
        std::map<std::string, uint64_t> stats = Stats();
        std::string body;
        BeginCountedBody(&body, static_cast<uint32_t>(stats.size()));
        for (const auto& [key, value] : stats) {
          AppendStatsResult(&body, key, value);
        }
        EncodeResponse(outbox->For(t->conn), WireStatus::kOk, t->id, body);
        break;
      }
      default:
        EncodeResponse(outbox->For(t->conn), WireStatus::kBadRequest, t->id,
                       Slice());
        break;
    }
  }

  // The last sub-task to finish encodes the response into its worker's
  // outbox.
  void CompleteFan(const std::shared_ptr<FanState>& fan, Outbox* outbox) {
    if (fan->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    util::MutexLock l(&fan->mu);
    std::string body;
    WireStatus ws = WireStatus::kOk;
    if (!fan->error.ok()) {
      ws = WireStatus::kError;
      body = fan->error.ToString();
    } else if (fan->op == OpCode::kMultiGet) {
      BeginCountedBody(&body, static_cast<uint32_t>(fan->mg_results.size()));
      for (const auto& [found, value] : fan->mg_results) {
        AppendMultiGetResult(&body, found, value);
      }
    } else if (fan->op == OpCode::kScan) {
      MergeScanParts(fan->scan_parts, fan->scan_limit, &body);
    }
    // WRITE_BATCH success: empty body.
    EncodeResponse(outbox->For(fan->conn), ws, fan->id, body);
  }

  // K-way merge of the per-shard sorted scan results, truncated to `limit`.
  static void MergeScanParts(
      const std::vector<std::vector<std::pair<std::string, std::string>>>&
          parts,
      uint32_t limit, std::string* body) {
    std::vector<size_t> cursor(parts.size(), 0);
    std::string entries;
    uint32_t count = 0;
    while (count < limit) {
      int best = -1;
      for (size_t sh = 0; sh < parts.size(); sh++) {
        if (cursor[sh] >= parts[sh].size()) continue;
        if (best < 0 ||
            parts[sh][cursor[sh]].first <
                parts[static_cast<size_t>(best)]
                     [cursor[static_cast<size_t>(best)]]
                         .first) {
          best = static_cast<int>(sh);
        }
      }
      if (best < 0) break;
      size_t b = static_cast<size_t>(best);
      AppendScanResult(&entries, parts[b][cursor[b]].first,
                       parts[b][cursor[b]].second);
      cursor[b]++;
      count++;
    }
    BeginCountedBody(body, count);
    body->append(entries);
  }

  // ---- response delivery ---------------------------------------------------

  // The event loop's own replies: one frame, sent at once.
  void SendResponse(const std::shared_ptr<ServerConn>& conn, WireStatus ws,
                    uint64_t id, const Slice& body) {
    std::string frame;
    EncodeResponse(&frame, ws, id, body);
    SendFrames(conn, frame);
  }

  // Pushes as much of `frames` as the (non-blocking) socket takes right now
  // and keeps the rest in the connection's out buffer. On a full kernel
  // buffer the event loop takes over via EPOLLOUT; until it has drained the
  // backlog, later frames queue behind it.
  void SendFrames(const std::shared_ptr<ServerConn>& conn,
                  const std::string& frames) {
    bool wake = false;
    {
      util::MutexLock l(&conn->mu);
      if (conn->closed) return;
      if (conn->want_write) {
        conn->out.append(frames);
        return;
      }
      size_t sent = 0;
      net::IoResult r =
          net::SendSome(conn->fd, frames.data(), frames.size(), &sent);
      if (r == net::IoResult::kError) {
        // Peer is gone; the loop reaps the fd on its EPOLLERR/HUP.
        return;
      }
      bytes_out_.fetch_add(sent, std::memory_order_relaxed);
      if (sent < frames.size()) {
        conn->out.append(frames, sent, std::string::npos);
        conn->want_write = true;
        wake = true;
      }
    }
    if (wake) loop_.Wake();
  }

  // ---- state ---------------------------------------------------------------

  ServerOptions options_;
  net::EventLoop loop_;
  int listen_fd_ = -1;

  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;

  // Event-loop thread only (Stop touches it after joining that thread).
  std::unordered_map<int, std::shared_ptr<ServerConn>> conns_;
  // Event-loop thread only: this iteration's tasks, per shard.
  std::vector<std::vector<ShardTask>> staged_;
  size_t staged_count_ = 0;
  int last_staged_shard_ = 0;

  // Per shard: tasks pushed to its queue whose run has not finished yet.
  std::unique_ptr<std::atomic<uint32_t>[]> unfinished_;

  std::atomic<uint64_t> conns_accepted_{0};
  std::atomic<uint64_t> conns_active_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> bad_requests_{0};
  std::atomic<uint64_t> write_batches_{0};   // coalesced engine Writes
  std::atomic<uint64_t> write_ops_{0};       // client write requests in them
  std::atomic<uint64_t> reads_coalesced_{0};  // GETs served via MultiGet
  std::atomic<uint64_t> reads_inline_{0};     // lone GETs served by the loop
  std::atomic<uint64_t> response_writes_{0};  // worker outbox flushes
  std::unique_ptr<std::atomic<uint64_t>[]> shard_ops_;
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::~Server() { impl_->Stop(); }

Status Server::Start(const ServerOptions& options,
                     std::unique_ptr<Server>* out) {
  auto impl = std::make_unique<Impl>();
  Status s = impl->Init(options);
  if (!s.ok()) {
    impl->Stop();
    return s;
  }
  out->reset(new Server(std::move(impl)));
  return Status::OK();
}

void Server::Stop() { impl_->Stop(); }

uint16_t Server::port() const { return impl_->port_; }

int Server::num_shards() const { return impl_->router_->num_shards(); }

std::map<std::string, uint64_t> Server::Stats() const {
  return impl_->Stats();
}

}  // namespace blsm::server
