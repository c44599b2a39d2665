// io_uring Env implemented on the raw syscalls (io_uring_setup /
// io_uring_enter / io_uring_register) against <linux/io_uring.h>, so the
// backend needs no liburing at build time and degrades to the posix Env at
// runtime when the kernel (or a seccomp policy) refuses the syscalls.

#include "io/uring_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>) && \
    !defined(BLSM_DISABLE_IO_URING)
#define BLSM_HAVE_IO_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#endif

namespace blsm {

namespace {

Status UringError(const std::string& context, int err) {
  if (err == ENOENT) {
    return Status::NotFound(context + ": " + strerror(err));
  }
  return Status::IOError(context + ": " + strerror(err));
}

#if defined(BLSM_HAVE_IO_URING) && defined(__NR_io_uring_setup)
#define BLSM_URING_RUNTIME 1

// SQ entries per random-access file ring (batched SQEs).
constexpr unsigned kQueueDepth = 32;
// Alignment unit for the direct-IO path (offset, length, and buffer address
// rounding). 4096 covers every current sector size.
constexpr size_t kAlignment = 4096;

// --- ring --------------------------------------------------------------------

// One submission/completion ring. Not thread-safe; the owning file serializes
// access. All kernel communication is through the three mmap'd regions; the
// only syscall per batch is io_uring_enter.
class UringQueue {
 public:
  struct Op {
    uint64_t off = 0;
    void* buf = nullptr;
    unsigned len = 0;
    bool write = false;  // WRITE instead of READ
    int buf_index = -1;  // >= 0 -> READ_FIXED against a registered buffer
    ssize_t res = 0;     // completion: bytes transferred, or -errno
  };

  static std::unique_ptr<UringQueue> Create(unsigned entries) {
    io_uring_params params;
    memset(&params, 0, sizeof(params));
    int fd = static_cast<int>(
        syscall(__NR_io_uring_setup, entries, &params));
    if (fd < 0) return nullptr;
    auto q = std::unique_ptr<UringQueue>(new UringQueue());
    q->ring_fd_ = fd;
    q->sq_entries_ = params.sq_entries;

    q->sq_ring_sz_ =
        params.sq_off.array + params.sq_entries * sizeof(unsigned);
    q->cq_ring_sz_ =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    q->sqes_sz_ = params.sq_entries * sizeof(io_uring_sqe);

    q->sq_ring_ = mmap(nullptr, q->sq_ring_sz_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
    q->cq_ring_ = mmap(nullptr, q->cq_ring_sz_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
    q->sqes_raw_ = mmap(nullptr, q->sqes_sz_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES);
    if (q->sq_ring_ == MAP_FAILED || q->cq_ring_ == MAP_FAILED ||
        q->sqes_raw_ == MAP_FAILED) {
      return nullptr;  // destructor unmaps whatever succeeded
    }

    auto* sq = static_cast<char*>(q->sq_ring_);
    q->sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    q->sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    q->sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    auto* cq = static_cast<char*>(q->cq_ring_);
    q->cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    q->cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    q->cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    q->cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
    q->sqes_ = static_cast<io_uring_sqe*>(q->sqes_raw_);
    return q;
  }

  ~UringQueue() {
    if (sq_ring_ != MAP_FAILED && sq_ring_ != nullptr) {
      munmap(sq_ring_, sq_ring_sz_);
    }
    if (cq_ring_ != MAP_FAILED && cq_ring_ != nullptr) {
      munmap(cq_ring_, cq_ring_sz_);
    }
    if (sqes_raw_ != MAP_FAILED && sqes_raw_ != nullptr) {
      munmap(sqes_raw_, sqes_sz_);
    }
    if (ring_fd_ >= 0) close(ring_fd_);
  }

  bool RegisterBuffers(const std::vector<struct iovec>& iov) {
    return syscall(__NR_io_uring_register, ring_fd_, IORING_REGISTER_BUFFERS,
                   iov.data(), iov.size()) == 0;
  }

  // Executes all of ops[0..n) against fd, batching up to sq_entries SQEs per
  // io_uring_enter. Returns false on a ring-level failure (the caller falls
  // back to synchronous reads); per-op results (bytes or -errno) in op.res.
  bool Run(int fd, Op* ops, size_t n) {
    size_t done = 0;
    while (done < n) {
      size_t chunk = n - done;
      if (chunk > sq_entries_) chunk = sq_entries_;
      if (!RunChunk(fd, ops + done, chunk, done)) return false;
      done += chunk;
    }
    return true;
  }

 private:
  UringQueue() = default;

  bool RunChunk(int fd, Op* ops, size_t chunk, size_t base_index) {
    unsigned tail = *sq_tail_;  // single producer: plain load is enough
    unsigned mask = *sq_mask_;
    for (size_t i = 0; i < chunk; i++) {
      unsigned idx = tail & mask;
      io_uring_sqe* sqe = &sqes_[idx];
      memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = ops[i].write
                        ? static_cast<uint8_t>(IORING_OP_WRITE)
                        : ops[i].buf_index >= 0
                              ? static_cast<uint8_t>(IORING_OP_READ_FIXED)
                              : static_cast<uint8_t>(IORING_OP_READ);
      sqe->fd = fd;
      sqe->off = ops[i].off;
      sqe->addr = reinterpret_cast<uint64_t>(ops[i].buf);
      sqe->len = ops[i].len;
      if (ops[i].buf_index >= 0) {
        sqe->buf_index = static_cast<uint16_t>(ops[i].buf_index);
      }
      sqe->user_data = base_index + i;
      sq_array_[idx] = idx;
      tail++;
    }
    __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);

    size_t submitted = 0;
    size_t reaped = 0;
    while (submitted < chunk || reaped < chunk) {
      unsigned to_submit = static_cast<unsigned>(chunk - submitted);
      unsigned want = static_cast<unsigned>(chunk - reaped);
      long ret = syscall(__NR_io_uring_enter, ring_fd_, to_submit, want,
                         IORING_ENTER_GETEVENTS, nullptr, 0);
      if (ret < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      submitted += static_cast<size_t>(ret);
      // Drain whatever completions are visible.
      unsigned head = *cq_head_;
      unsigned cq_tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      unsigned cmask = *cq_mask_;
      while (head != cq_tail) {
        const io_uring_cqe* cqe = &cqes_[head & cmask];
        size_t op_index = static_cast<size_t>(cqe->user_data) - base_index;
        if (op_index < chunk) ops[op_index].res = cqe->res;
        head++;
        reaped++;
      }
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
    }
    return true;
  }

  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;
  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  void* sqes_raw_ = nullptr;
  size_t sq_ring_sz_ = 0, cq_ring_sz_ = 0, sqes_sz_ = 0;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  io_uring_sqe* sqes_ = nullptr;
};

// --- aligned buffer pool -----------------------------------------------------

// Fixed set of alignment-sized slabs for the O_DIRECT read path, allocated
// up front so they can be registered with the ring (READ_FIXED skips the
// kernel's per-IO pin/unpin of user pages). Acquire returns -1 when the pool
// is exhausted or the request outgrows a slab; the caller then uses a
// one-shot aligned allocation with plain READ.
class AlignedBufferPool {
 public:
  static constexpr size_t kSlabBytes = 64 << 10;

  AlignedBufferPool(size_t alignment, size_t slabs) {
    for (size_t i = 0; i < slabs; i++) {
      void* p = nullptr;
      if (posix_memalign(&p, alignment, kSlabBytes) != 0) break;
      slabs_.push_back(static_cast<char*>(p));
      free_.push_back(static_cast<int>(i));
    }
  }
  ~AlignedBufferPool() {
    for (char* p : slabs_) free(p);
  }

  std::vector<struct iovec> Iovecs() const {
    std::vector<struct iovec> iov;
    iov.reserve(slabs_.size());
    for (char* p : slabs_) iov.push_back({p, kSlabBytes});
    return iov;
  }

  int Acquire(size_t len, char** buf) {
    if (len > kSlabBytes) return -1;
    util::MutexLock l(&mu_);
    if (free_.empty()) return -1;
    int idx = free_.back();
    free_.pop_back();
    *buf = slabs_[static_cast<size_t>(idx)];
    return idx;
  }

  void Release(int idx) {
    util::MutexLock l(&mu_);
    free_.push_back(idx);
  }

  size_t size() const { return slabs_.size(); }

 private:
  std::vector<char*> slabs_;
  util::Mutex mu_{util::lock_rank::kAlignedBufferPoolMu};
  std::vector<int> free_ GUARDED_BY(mu_);
};

// --- random-access file ------------------------------------------------------

class UringRandomAccessFile final : public RandomAccessFile {
 public:
  UringRandomAccessFile(std::string fname, int fd,
                        std::unique_ptr<UringQueue> queue, bool direct,
                        EnvIoCounters* counters)
      : fname_(std::move(fname)),
        fd_(fd),
        queue_(std::move(queue)),
        direct_(direct),
        counters_(counters) {
    if (direct_) {
      pool_ = std::make_unique<AlignedBufferPool>(kAlignment, /*slabs=*/32);
      if (pool_->size() > 0) {
        buffers_registered_ = queue_->RegisterBuffers(pool_->Iovecs());
      }
    }
  }
  ~UringRandomAccessFile() override { close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!direct_) {
      // A lone buffered read skips the ring: one pread beats an SQE
      // submit/reap round-trip, and it keeps concurrent readers off the
      // ring mutex. The ring earns its keep on MultiRead batches and on
      // O_DIRECT windows, both of which still go through DoReads.
      ssize_t r = pread(fd_, scratch, n, static_cast<off_t>(offset));
      if (r < 0) return UringError(fname_, errno);
      *result = Slice(scratch, static_cast<size_t>(r));
      tracker_.OnRead(offset, result->size(), counters_);
      return Status::OK();
    }
    ReadRequest req;
    req.offset = offset;
    req.len = n;
    req.scratch = scratch;
    DoReads(&req, 1);
    *result = req.result;
    return req.status;
  }

  Status MultiRead(ReadRequest* reqs, size_t n) const override {
    counters_->multiread_batches.fetch_add(1, std::memory_order_relaxed);
    counters_->multiread_requests.fetch_add(n, std::memory_order_relaxed);
    DoReads(reqs, n);
    return Status::OK();
  }

 private:
  struct DirectWindow {
    char* buf = nullptr;   // aligned buffer the kernel reads into
    int pool_index = -1;   // registered slab, or -1 for a one-shot alloc
    uint64_t aligned_off = 0;
    size_t lead = 0;       // bytes of rounding before the caller's offset
  };

  void DoReads(ReadRequest* reqs, size_t n) const {
    std::vector<UringQueue::Op> ops(n);
    std::vector<DirectWindow> windows(direct_ ? n : 0);
    for (size_t i = 0; i < n; i++) {
      if (direct_) {
        PrepareDirect(&reqs[i], &ops[i], &windows[i]);
      } else {
        ops[i].off = reqs[i].offset;
        ops[i].buf = reqs[i].scratch;
        ops[i].len = static_cast<unsigned>(reqs[i].len);
      }
    }
    // Only the ring submission itself needs the mutex (it serializes SQE/CQE
    // access); window prep hits the internally-locked buffer pool, and the
    // fallback preads plus result copies must not block other readers of
    // this file.
    bool ring_ok;
    {
      util::MutexLock l(&mu_);
      ring_ok = queue_->Run(fd_, ops.data(), n);
    }
    for (size_t i = 0; i < n; i++) {
      if (!ring_ok) {
        // Ring died mid-flight: synchronous fallback keeps the request
        // contract intact (the extra pread re-reads are the cost of a
        // once-per-file failure path).
        ops[i].res = FallbackRead(&ops[i]);
      }
      Finish(&reqs[i], &ops[i], direct_ ? &windows[i] : nullptr);
    }
  }

  void PrepareDirect(const ReadRequest* req, UringQueue::Op* op,
                     DirectWindow* win) const {
    win->aligned_off = req->offset & ~(kAlignment - 1);
    win->lead = static_cast<size_t>(req->offset - win->aligned_off);
    size_t want = win->lead + req->len;
    size_t aligned_len = (want + kAlignment - 1) & ~(kAlignment - 1);
    if (buffers_registered_) {
      win->pool_index = pool_->Acquire(aligned_len, &win->buf);
    }
    if (win->pool_index < 0) {
      void* p = nullptr;
      if (posix_memalign(&p, kAlignment, aligned_len) != 0) p = nullptr;
      win->buf = static_cast<char*>(p);
    }
    op->off = win->aligned_off;
    op->buf = win->buf;
    op->len = static_cast<unsigned>(aligned_len);
    op->buf_index = win->pool_index;
  }

  ssize_t FallbackRead(const UringQueue::Op* op) const {
    ssize_t r = pread(fd_, op->buf, op->len, static_cast<off_t>(op->off));
    return r < 0 ? -errno : r;
  }

  void Finish(ReadRequest* req, const UringQueue::Op* op,
              DirectWindow* win) const {
    if (win != nullptr && win->buf == nullptr) {
      req->status = Status::IOError(fname_ + ": aligned allocation failed");
      return;
    }
    if (op->res < 0) {
      req->status = UringError(fname_, static_cast<int>(-op->res));
    } else {
      size_t got = static_cast<size_t>(op->res);
      if (win != nullptr) {
        size_t usable = got > win->lead ? got - win->lead : 0;
        size_t len = usable < req->len ? usable : req->len;
        memcpy(req->scratch, win->buf + win->lead, len);
        req->result = Slice(req->scratch, len);
      } else {
        req->result = Slice(req->scratch, got);
      }
      req->status = Status::OK();
      tracker_.OnRead(req->offset, req->result.size(), counters_);
    }
    if (win != nullptr && win->buf != nullptr) {
      if (win->pool_index >= 0) {
        pool_->Release(win->pool_index);
      } else {
        free(win->buf);
      }
    }
  }

  std::string fname_;
  int fd_;
  // analyze:allow(blocking-under-lock) mu_ serializes SQE/CQE access on the
  // per-file ring; the submit-and-wait is the operation it protects. The
  // fallback preads and result copies run outside it (see DoReads).
  mutable util::Mutex mu_{util::lock_rank::kUringRandomAccessFileMu};  // ring
  std::unique_ptr<UringQueue> queue_;
  bool direct_;
  EnvIoCounters* counters_;
  std::unique_ptr<AlignedBufferPool> pool_;
  bool buffers_registered_ = false;
  mutable FileIoTracker tracker_;
};

// --- writable file -----------------------------------------------------------

// Append-only writer owned by the uring env so write/sync totals land in the
// same counters as the ring reads. Buffered mode mirrors the posix writer;
// direct mode accumulates into one alignment-sized staging buffer and only
// ever issues sector-aligned writes — submitted as IORING_OP_WRITE SQEs when
// the file has a ring — with the padded tail rewritten in place on the next
// flush and the file truncated to its logical size at Close. A direct write
// the filesystem rejects mid-stream (EINVAL: the open succeeded but this
// extent or mount refuses O_DIRECT) re-opens the file buffered and
// re-windows the padded range back to its exact logical bytes, so the
// caller never sees the downgrade.
class UringWritableFile final : public WritableFile {
 public:
  UringWritableFile(std::string fname, int fd,
                    std::unique_ptr<UringQueue> queue, bool direct,
                    int einval_after, EnvIoCounters* counters)
      : fname_(std::move(fname)),
        fd_(fd),
        queue_(std::move(queue)),
        direct_(direct),
        inject_einval_countdown_(einval_after),
        counters_(counters) {
    if (direct_) {
      void* p = nullptr;
      if (posix_memalign(&p, kAlignment, kBufferSize) != 0) p = nullptr;
      aligned_buf_ = static_cast<char*>(p);
    }
    buf_used_ = 0;
  }

  ~UringWritableFile() override {
    if (fd_ >= 0) {
      Close().IgnoreError("destructor has no caller to report to");
    }
    free(aligned_buf_);
  }

  Status Append(const Slice& data) override { return AppendV(&data, 1); }

  Status AppendV(const Slice* parts, size_t n) override {
    size_t total = 0;
    for (size_t i = 0; i < n; i++) {
      total += parts[i].size();
      const char* p = parts[i].data();
      size_t left = parts[i].size();
      while (left > 0) {
        if (direct_ && aligned_buf_ == nullptr) {
          return Status::IOError(fname_ + ": aligned allocation failed");
        }
        char* buf = direct_ ? aligned_buf_ : plain_buf_;
        size_t room = kBufferSize - buf_used_;
        size_t take = left < room ? left : room;
        memcpy(buf + buf_used_, p, take);
        buf_used_ += take;
        p += take;
        left -= take;
        if (buf_used_ == kBufferSize) {
          Status s = FlushFullBuffer();
          if (!s.ok()) return s;
        }
      }
    }
    counters_->CountAppend(total);
    return Status::OK();
  }

  size_t PreferredAppendAlignment() const override {
    return direct_ ? kAlignment : 1;
  }

  Status Flush() override {
    // Direct mode cannot push a partial sector without also padding it;
    // Sync() and Close() handle that. Buffered mode drains eagerly.
    if (direct_) return Status::OK();
    return DrainPlain();
  }

  Status Sync() override {
    Status s = direct_ ? FlushTailPadded() : DrainPlain();
    if (!s.ok()) return s;
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    if (fdatasync(fd_) != 0) return UringError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    Status s = direct_ ? FlushTailPadded() : DrainPlain();
    if (s.ok() && direct_) {
      if (ftruncate(fd_, static_cast<off_t>(logical_size_)) != 0) {
        s = UringError(fname_, errno);
      }
    }
    if (close(fd_) != 0 && s.ok()) s = UringError(fname_, errno);
    fd_ = -1;
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 256 << 10;

  Status WriteRange(const char* p, size_t len, uint64_t off) {
    while (len > 0) {
      ssize_t r = pwrite(fd_, p, len, static_cast<off_t>(off));
      if (r < 0) {
        if (errno == EINTR) continue;
        return UringError(fname_, errno);
      }
      p += r;
      off += static_cast<uint64_t>(r);
      len -= static_cast<size_t>(r);
    }
    return Status::OK();
  }

  // One write, preferring a ring SQE; bytes transferred or -errno. A ring
  // that dies degrades this file to pwrite permanently.
  ssize_t SubmitWrite(const char* p, size_t len, uint64_t off) {
    if (queue_ != nullptr) {
      UringQueue::Op op;
      op.off = off;
      op.buf = const_cast<char*>(p);
      op.len = static_cast<unsigned>(len);
      op.write = true;
      if (queue_->Run(fd_, &op, 1)) {
        counters_->ring_writes.fetch_add(1, std::memory_order_relaxed);
        return op.res;
      }
      queue_.reset();
    }
    ssize_t r = pwrite(fd_, p, len, static_cast<off_t>(off));
    return r < 0 ? -errno : r;
  }

  // Direct-mode range write of aligned_buf_[0, padded_len) at `off`, where
  // only the first `logical_len` bytes are real data. On a mid-stream
  // EINVAL the writer re-opens buffered and re-windows: the bytes still
  // owed are rewritten without sector padding and any padding already on
  // disk past the logical end is truncated away.
  Status WriteDirect(size_t logical_len, size_t padded_len, uint64_t off) {
    const char* p = aligned_buf_;
    const uint64_t logical_end = off + logical_len;
    size_t left = padded_len;
    while (left > 0) {
      ssize_t r;
      if (inject_einval_countdown_ >= 0 && inject_einval_countdown_-- == 0) {
        r = -EINVAL;  // test hook: the Nth direct write is rejected
      } else {
        r = SubmitWrite(p, left, off);
      }
      if (r < 0) {
        if (r == -EINTR) continue;
        if (r == -EINVAL) return ReopenBuffered(p, off, logical_end);
        return UringError(fname_, static_cast<int>(-r));
      }
      p += r;
      off += static_cast<uint64_t>(r);
      left -= static_cast<size_t>(r);
    }
    return Status::OK();
  }

  // The mid-stream fallback: swap the O_DIRECT fd for a buffered one on the
  // same path, finish the interrupted range byte-exact, and drop any padded
  // sectors past the logical end. direct_ flips off, so every later append
  // runs the plain buffered path.
  Status ReopenBuffered(const char* p, uint64_t off, uint64_t logical_end) {
    counters_->direct_write_fallbacks.fetch_add(1, std::memory_order_relaxed);
    int fd = open(fname_.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return UringError(fname_, errno);
    close(fd_);
    fd_ = fd;
    direct_ = false;
    queue_.reset();  // the ring was bound to the old fd's direct windows
    if (off < logical_end) {
      Status s = WriteRange(p, static_cast<size_t>(logical_end - off), off);
      if (!s.ok()) return s;
    }
    if (ftruncate(fd_, static_cast<off_t>(logical_end)) != 0) {
      return UringError(fname_, errno);
    }
    return Status::OK();
  }

  Status FlushFullBuffer() {
    if (direct_) {
      // If this downgrades mid-flush the whole buffer still lands byte-exact
      // and future appends stage into plain_buf_.
      Status s = WriteDirect(kBufferSize, kBufferSize, flushed_offset_);
      if (!s.ok()) return s;
    } else {
      Status s = WriteRange(plain_buf_, kBufferSize, flushed_offset_);
      if (!s.ok()) return s;
    }
    flushed_offset_ += kBufferSize;
    logical_size_ = flushed_offset_;
    buf_used_ = 0;
    return Status::OK();
  }

  Status DrainPlain() {
    if (buf_used_ == 0) return Status::OK();
    Status s = WriteRange(plain_buf_, buf_used_, flushed_offset_);
    if (!s.ok()) return s;
    flushed_offset_ += buf_used_;
    logical_size_ = flushed_offset_;
    buf_used_ = 0;
    return Status::OK();
  }

  // Writes the buffered tail padded with zeros to a sector boundary. The
  // buffer keeps its contents and flushed_offset_ stays put, so subsequent
  // appends extend the same staging buffer and the next aligned write
  // replaces the padded sector with real bytes.
  Status FlushTailPadded() {
    logical_size_ = flushed_offset_ + buf_used_;
    if (buf_used_ == 0) return Status::OK();
    size_t padded = (buf_used_ + kAlignment - 1) & ~(kAlignment - 1);
    memset(aligned_buf_ + buf_used_, 0, padded - buf_used_);
    Status s = WriteDirect(buf_used_, padded, flushed_offset_);
    if (!s.ok()) return s;
    if (!direct_) {
      // The tail went out through the buffered fallback, byte-exact: adopt
      // drained-buffer bookkeeping so later appends start a fresh window.
      flushed_offset_ += buf_used_;
      buf_used_ = 0;
    }
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  std::unique_ptr<UringQueue> queue_;  // null -> synchronous pwrite
  bool direct_;
  // Test hook (UringEnvOptions::direct_write_einval_after): counts down per
  // direct write attempt; hitting zero forges one EINVAL. -1 = inactive.
  int inject_einval_countdown_;
  EnvIoCounters* counters_;
  char* aligned_buf_ = nullptr;
  char plain_buf_[kBufferSize];
  size_t buf_used_ = 0;
  uint64_t flushed_offset_ = 0;
  uint64_t logical_size_ = 0;
};

#endif  // BLSM_URING_RUNTIME

}  // namespace

// --- env ---------------------------------------------------------------------

#if defined(BLSM_URING_RUNTIME)

bool UringEnv::Supported() {
  static const bool supported = [] {
    auto q = UringQueue::Create(4);
    if (q == nullptr) return false;
    int fd = open("/dev/zero", O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    char buf[16];
    UringQueue::Op op;
    op.off = 0;
    op.buf = buf;
    op.len = sizeof(buf);
    bool ok = q->Run(fd, &op, 1) && op.res == sizeof(buf);
    close(fd);
    return ok;
  }();
  return supported;
}

UringEnv::UringEnv(Env* base, UringEnvOptions options)
    : EnvWrapper(base != nullptr ? base : Env::Default()),
      options_(options),
      uring_ok_(Supported()) {}

UringEnv::~UringEnv() = default;

Status UringEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  if (!uring_ok_) return base()->NewRandomAccessFile(fname, result);
  bool direct = options_.direct_io;
  int flags = O_RDONLY | O_CLOEXEC;
#if defined(O_DIRECT)
  if (direct) flags |= O_DIRECT;
#endif
  int fd = open(fname.c_str(), flags);
#if defined(O_DIRECT)
  if (fd < 0 && direct && errno == EINVAL) {
    // Filesystem without O_DIRECT (tmpfs): buffered ring reads instead.
    direct = false;
    fd = open(fname.c_str(), O_RDONLY | O_CLOEXEC);
  }
#endif
  if (fd < 0) return UringError(fname, errno);
  auto queue = UringQueue::Create(kQueueDepth);
  if (queue == nullptr) {
    // Per-file ring exhaustion (fd or memlock limits): this file falls back
    // to the base env's synchronous reads.
    close(fd);
    return base()->NewRandomAccessFile(fname, result);
  }
  *result = std::make_unique<UringRandomAccessFile>(
      fname, fd, std::move(queue), direct, &counters_);
  return Status::OK();
}

Status UringEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) {
  if (!uring_ok_) return base()->NewWritableFile(fname, result);
  bool direct = options_.direct_io;
  int flags = O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC;
#if defined(O_DIRECT)
  if (direct) flags |= O_DIRECT;
#endif
  int fd = open(fname.c_str(), flags, 0644);
#if defined(O_DIRECT)
  if (fd < 0 && direct && errno == EINVAL) {
    direct = false;
    fd = open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  }
#endif
  if (fd < 0) return UringError(fname, errno);
  // Direct-mode writers get their own small ring so flushes are SQE
  // submissions; nullptr (limits exhausted) quietly degrades to pwrite.
  std::unique_ptr<UringQueue> queue;
  if (direct) queue = UringQueue::Create(/*entries=*/4);
  *result = std::make_unique<UringWritableFile>(
      fname, fd, std::move(queue), direct,
      direct ? options_.direct_write_einval_after : -1, &counters_);
  return Status::OK();
}

const EnvIoCounters* UringEnv::io_counters() const {
  return uring_ok_ ? &counters_ : base()->io_counters();
}

#else  // !BLSM_URING_RUNTIME

bool UringEnv::Supported() { return false; }

UringEnv::UringEnv(Env* base, UringEnvOptions options)
    : EnvWrapper(base != nullptr ? base : Env::Default()),
      options_(options),
      uring_ok_(false) {}

UringEnv::~UringEnv() = default;

Status UringEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  return base()->NewRandomAccessFile(fname, result);
}

Status UringEnv::NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) {
  return base()->NewWritableFile(fname, result);
}

const EnvIoCounters* UringEnv::io_counters() const {
  return base()->io_counters();
}

#endif  // BLSM_URING_RUNTIME

}  // namespace blsm
