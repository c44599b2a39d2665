#include "io/env.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "io/unbatched_env.h"
#include "io/uring_env.h"

namespace blsm {
namespace {

// Shared conformance suite, run against MemEnv and against every Env
// decorator stacked directly on one: each stack must behave exactly like
// the MemEnv it wraps (the fault injector is idle).
enum class EnvStack {
  kMem,
  kWrapper,
  kUnbatched,
  kFaultInjection,
};

class EnvTest : public ::testing::TestWithParam<EnvStack> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case EnvStack::kMem:
        break;
      case EnvStack::kWrapper:
        decorator_ = std::make_unique<EnvWrapper>(&mem_env_);
        break;
      case EnvStack::kUnbatched:
        decorator_ = std::make_unique<UnbatchedEnv>(&mem_env_);
        break;
      case EnvStack::kFaultInjection:
        decorator_ = std::make_unique<FaultInjectionEnv>(&mem_env_);
        break;
    }
    env_ = decorator_ != nullptr ? decorator_.get() : &mem_env_;
  }

  MemEnv mem_env_;
  std::unique_ptr<Env> decorator_;
  Env* env_ = nullptr;
};

TEST_P(EnvTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteStringToFile(env_, "hello world", "f", true).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, "f", &data).ok());
  EXPECT_EQ(data, "hello world");
}

TEST_P(EnvTest, FileExists) {
  EXPECT_FALSE(env_->FileExists("nope"));
  ASSERT_TRUE(WriteStringToFile(env_, "x", "yes", false).ok());
  EXPECT_TRUE(env_->FileExists("yes"));
}

TEST_P(EnvTest, GetFileSize) {
  ASSERT_TRUE(WriteStringToFile(env_, std::string(12345, 'a'), "f", false).ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize("f", &size).ok());
  EXPECT_EQ(size, 12345u);
}

TEST_P(EnvTest, MissingFileIsNotFound) {
  std::unique_ptr<SequentialFile> f;
  Status s = env_->NewSequentialFile("missing", &f);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST_P(EnvTest, RenameReplaces) {
  ASSERT_TRUE(WriteStringToFile(env_, "new", "a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "old", "b", false).ok());
  ASSERT_TRUE(env_->RenameFile("a", "b").ok());
  EXPECT_FALSE(env_->FileExists("a"));
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_, "b", &data).ok());
  EXPECT_EQ(data, "new");
}

TEST_P(EnvTest, RemoveFile) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", "f", false).ok());
  ASSERT_TRUE(env_->RemoveFile("f").ok());
  EXPECT_FALSE(env_->FileExists("f"));
  EXPECT_TRUE(env_->RemoveFile("f").IsNotFound());
}

TEST_P(EnvTest, RemoveDirRecursive) {
  ASSERT_TRUE(env_->CreateDir("d").ok());
  ASSERT_TRUE(env_->CreateDir("d/sub").ok());
  ASSERT_TRUE(WriteStringToFile(env_, "x", "d/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "y", "d/sub/b", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "z", "other", false).ok());

  ASSERT_TRUE(env_->RemoveDirRecursive("d").ok());
  EXPECT_FALSE(env_->FileExists("d/a"));
  EXPECT_FALSE(env_->FileExists("d/sub/b"));
  // Gone: either NotFound or an empty listing, depending on the env.
  std::vector<std::string> children;
  Status s = env_->GetChildren("d", &children);
  EXPECT_TRUE(s.IsNotFound() || (s.ok() && children.empty())) << s.ToString();
  // Siblings survive, and removing a missing dir is success (idempotent).
  EXPECT_TRUE(env_->FileExists("other"));
  EXPECT_TRUE(env_->RemoveDirRecursive("d").ok());
}

TEST_P(EnvTest, RandomAccessRead) {
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", "f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile("f", &f).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Read past EOF returns short/empty, not an error.
  ASSERT_TRUE(f->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
  ASSERT_TRUE(f->Read(100, 4, &result, scratch).ok());
  EXPECT_TRUE(result.empty());
}

TEST_P(EnvTest, RandomRWFile) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env_->NewRandomRWFile("rw", &f).ok());
  ASSERT_TRUE(f->Write(0, "AAAA").ok());
  ASSERT_TRUE(f->Write(8, "BBBB").ok());  // hole at 4..7
  ASSERT_TRUE(f->Write(2, "cc").ok());    // overwrite
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(0, 12, &result, scratch).ok());
  EXPECT_EQ(result.size(), 12u);
  EXPECT_EQ(result.ToString().substr(0, 4), "AAcc");
  EXPECT_EQ(result.ToString().substr(8, 4), "BBBB");
}

TEST_P(EnvTest, SequentialSkip) {
  ASSERT_TRUE(WriteStringToFile(env_, "0123456789", "f", false).ok());
  std::unique_ptr<SequentialFile> f;
  ASSERT_TRUE(env_->NewSequentialFile("f", &f).ok());
  ASSERT_TRUE(f->Skip(4).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(f->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "456");
}

TEST_P(EnvTest, GetChildren) {
  ASSERT_TRUE(WriteStringToFile(env_, "x", "dir/a", false).ok());
  ASSERT_TRUE(WriteStringToFile(env_, "x", "dir/b", false).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("dir", &children).ok());
  EXPECT_EQ(children.size(), 2u);
}

// Every stack reports the terminal Env's data-path totals, so an engine's
// io.* stats do not depend on which decorators it runs under.
TEST_P(EnvTest, IoCountersAreTheTerminalEnvs) {
  ASSERT_NE(mem_env_.io_counters(), nullptr);
  EXPECT_EQ(env_->io_counters(), mem_env_.io_counters());
}

std::string EnvStackName(const ::testing::TestParamInfo<EnvStack>& info) {
  static const char* const kNames[] = {"Mem", "Wrapper", "Unbatched",
                                       "FaultInjection"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, EnvTest,
    ::testing::Values(EnvStack::kMem, EnvStack::kWrapper,
                      EnvStack::kUnbatched, EnvStack::kFaultInjection),
    EnvStackName);

// --- terminal IO counters ----------------------------------------------------

// Every terminal Env counts ops, bytes and seeks into its own EnvIoCounters,
// with one seek classification (EnvIoCounters' header comment). PosixEnv's
// counters are process-wide, so every case measures deltas from Mark().
enum class Terminal { kMem, kPosix, kUring };

class TerminalCountersTest : public ::testing::TestWithParam<Terminal> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case Terminal::kMem:
        env_ = &mem_env_;
        break;
      case Terminal::kPosix:
        env_ = Env::Default();
        break;
      case Terminal::kUring:
        if (!UringEnv::Supported()) {
          GTEST_SKIP() << "io_uring unavailable on this kernel";
        }
        uring_ = std::make_unique<UringEnv>(Env::Default());
        env_ = uring_.get();
        break;
    }
    if (GetParam() != Terminal::kMem) {
      dir_ = ::testing::TempDir() + "env_test_counters_" +
             std::to_string(::getpid());
      ASSERT_TRUE(Env::Default()->CreateDir(dir_).ok());
    }
    // UringEnv counts the ring files it opens itself (random-access and
    // writable); its sequential and RW files are its base Env's.
    counters_ = {env_->io_counters()};
    if (uring_ != nullptr) counters_.push_back(Env::Default()->io_counters());
    Mark();
  }
  void TearDown() override {
    if (!dir_.empty()) {
      Env::Default()->RemoveDirRecursive(dir_).IgnoreError("test teardown");
    }
  }

  std::string Path(const std::string& name) const {
    return dir_.empty() ? name : dir_ + "/" + name;
  }

  void Mark() {
    marks_.clear();
    for (const EnvIoCounters* c : counters_) marks_.push_back(c->snapshot());
  }

  // One counter's growth since Mark(), over every counter set this env's
  // files land in.
  uint64_t Since(uint64_t EnvIoCounters::Snapshot::*field) const {
    uint64_t total = 0;
    for (size_t i = 0; i < counters_.size(); i++) {
      total += (counters_[i]->snapshot() - marks_[i]).*field;
    }
    return total;
  }

  // A 1 MiB file whose opening bytes are not counted.
  std::unique_ptr<RandomAccessFile> OpenBlob() {
    EXPECT_TRUE(
        WriteStringToFile(env_, std::string(1 << 20, 'z'), Path("blob"), false)
            .ok());
    std::unique_ptr<RandomAccessFile> f;
    EXPECT_TRUE(env_->NewRandomAccessFile(Path("blob"), &f).ok());
    Mark();
    return f;
  }

  using Snap = EnvIoCounters::Snapshot;
  MemEnv mem_env_;
  std::unique_ptr<UringEnv> uring_;
  Env* env_ = nullptr;
  std::string dir_;
  std::vector<const EnvIoCounters*> counters_;
  std::vector<Snap> marks_;
};

TEST_P(TerminalCountersTest, ClassifiesSeeksAndSequentialReads) {
  auto f = OpenBlob();
  char scratch[4096];
  Slice r;
  ASSERT_TRUE(f->Read(0, 4096, &r, scratch).ok());
  EXPECT_EQ(Since(&Snap::read_seeks), 1u) << "first read is a seek";
  // Contiguous follow-up reads: no new seeks.
  ASSERT_TRUE(f->Read(4096, 4096, &r, scratch).ok());
  ASSERT_TRUE(f->Read(8192, 4096, &r, scratch).ok());
  EXPECT_EQ(Since(&Snap::read_seeks), 1u);
  // A jump far away: one more seek.
  ASSERT_TRUE(f->Read(900000, 4096, &r, scratch).ok());
  EXPECT_EQ(Since(&Snap::read_seeks), 2u);
  // Backward read: seek.
  ASSERT_TRUE(f->Read(0, 4096, &r, scratch).ok());
  EXPECT_EQ(Since(&Snap::read_seeks), 3u);
  EXPECT_EQ(Since(&Snap::read_ops), 5u);
  EXPECT_EQ(Since(&Snap::read_bytes), 5u * 4096);
}

// The preadv-coalesced (posix) and ring-batched (uring) paths must count
// each request as the serial Read of it would.
TEST_P(TerminalCountersTest, MultiReadCountsLikeSerialReads) {
  auto f = OpenBlob();
  const uint64_t offsets[5] = {0, 4096, 8192, 12288, 900000};
  char scratch[5][4096];
  for (int i = 0; i < 5; i++) {
    Slice r;
    ASSERT_TRUE(f->Read(offsets[i], 4096, &r, scratch[i]).ok());
  }
  const uint64_t serial_seeks = Since(&Snap::read_seeks);
  EXPECT_EQ(serial_seeks, 2u);  // the first read and the far one
  EXPECT_EQ(Since(&Snap::read_ops), 5u);

  std::unique_ptr<RandomAccessFile> g;  // fresh handle: first read seeks
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("blob"), &g).ok());
  Mark();
  ReadRequest reqs[5];
  for (int i = 0; i < 5; i++) {
    reqs[i] = {offsets[i], 4096, scratch[i], Slice(), Status::OK()};
  }
  ASSERT_TRUE(g->MultiRead(reqs, 5).ok());
  for (int i = 0; i < 5; i++) ASSERT_TRUE(reqs[i].status.ok()) << i;
  EXPECT_EQ(Since(&Snap::read_ops), 5u);
  EXPECT_EQ(Since(&Snap::read_seeks), serial_seeks);
  EXPECT_EQ(Since(&Snap::read_bytes), 5u * 4096);
  // The batch reached the terminal intact.
  EXPECT_EQ(Since(&Snap::multiread_batches), 1u);
  EXPECT_EQ(Since(&Snap::multiread_requests), 5u);
}

TEST_P(TerminalCountersTest, SequentialFileOpenIsOneSeek) {
  ASSERT_TRUE(
      WriteStringToFile(env_, std::string(10000, 's'), Path("seq"), false)
          .ok());
  Mark();
  std::unique_ptr<SequentialFile> f;
  ASSERT_TRUE(env_->NewSequentialFile(Path("seq"), &f).ok());
  EXPECT_EQ(Since(&Snap::read_seeks), 1u);
  char scratch[4096];
  uint64_t reads = 0;
  Slice r;
  do {
    ASSERT_TRUE(f->Read(sizeof(scratch), &r, scratch).ok());
    reads++;
  } while (!r.empty());
  EXPECT_EQ(Since(&Snap::read_seeks), 1u) << "sequential reads never seek";
  EXPECT_EQ(Since(&Snap::read_ops), reads);
  EXPECT_EQ(Since(&Snap::read_bytes), 10000u);
}

TEST_P(TerminalCountersTest, AppendsAreWriteOpsWithoutSeeks) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile(Path("log"), &f).ok());
  ASSERT_TRUE(f->Append("hello").ok());
  ASSERT_TRUE(f->Append("world").ok());
  Slice parts[3] = {Slice("abc"), Slice(""), Slice("defg")};
  ASSERT_TRUE(f->AppendV(parts, 3).ok());  // one gathered op
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(Since(&Snap::write_ops), 3u);
  EXPECT_EQ(Since(&Snap::write_bytes), 17u);
  EXPECT_EQ(Since(&Snap::write_seeks), 0u);
  EXPECT_EQ(Since(&Snap::syncs), 1u);
}

TEST_P(TerminalCountersTest, RandomRWFileAccessesAreClassified) {
  std::unique_ptr<RandomRWFile> f;
  ASSERT_TRUE(env_->NewRandomRWFile(Path("pages"), &f).ok());
  ASSERT_TRUE(f->Write(1 << 20, "page").ok());
  ASSERT_TRUE(f->Write(0, "page").ok());
  ASSERT_TRUE(f->Write(4, "page").ok());  // contiguous with the previous
  EXPECT_EQ(Since(&Snap::write_ops), 3u);
  EXPECT_EQ(Since(&Snap::write_seeks), 2u);
  EXPECT_EQ(Since(&Snap::write_bytes), 12u);
  // Reads are classified against the previous read, not the last write.
  char scratch[8];
  Slice r;
  ASSERT_TRUE(f->Read(4, 4, &r, scratch).ok());
  ASSERT_TRUE(f->Read(8, 4, &r, scratch).ok());
  EXPECT_EQ(Since(&Snap::read_ops), 2u);
  EXPECT_EQ(Since(&Snap::read_seeks), 1u);
  EXPECT_EQ(Since(&Snap::read_bytes), 8u);
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(Since(&Snap::syncs), 1u);
  ASSERT_TRUE(f->Close().ok());
}

TEST_P(TerminalCountersTest, SnapshotDifferenceIsTheIoBetween) {
  const EnvIoCounters* io = env_->io_counters();
  Snap s0 = io->snapshot();
  ASSERT_TRUE(WriteStringToFile(env_, std::string(300, 'w'), Path("d"), false)
                  .ok());
  Snap s1 = io->snapshot();
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("d"), &f).ok());
  char scratch[300];
  Slice r;
  ASSERT_TRUE(f->Read(0, 300, &r, scratch).ok());
  Snap s2 = io->snapshot();
  EXPECT_EQ((s1 - s0).write_bytes, 300u);
  EXPECT_EQ((s1 - s0).read_bytes, 0u);
  EXPECT_EQ((s2 - s1).write_bytes, 0u);
  EXPECT_EQ((s2 - s1).read_bytes, 300u);
  EXPECT_EQ((s2 - s1).read_seeks, 1u);
  EXPECT_EQ((s2 - s0).read_ops, 1u);
}

std::string TerminalName(const ::testing::TestParamInfo<Terminal>& info) {
  static const char* const kNames[] = {"Mem", "Posix", "Uring"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Terminals, TerminalCountersTest,
                         ::testing::Values(Terminal::kMem, Terminal::kPosix,
                                           Terminal::kUring),
                         TerminalName);

// --- MultiRead conformance ---------------------------------------------------

// Builds a 4-request batch over "0123456789" exercising in-bounds reads, an
// EOF-straddling read, and a past-EOF read; asserts the Read()-equivalent
// results. Runs against whatever env the fixture parameterizes.
void CheckMultiReadContract(Env* env) {
  ASSERT_TRUE(WriteStringToFile(env, "0123456789", "mr", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile("mr", &f).ok());
  char scratch[4][16];
  ReadRequest reqs[4];
  reqs[0] = {0, 4, scratch[0], Slice(), Status::OK()};
  reqs[1] = {6, 3, scratch[1], Slice(), Status::OK()};
  reqs[2] = {8, 10, scratch[2], Slice(), Status::OK()};   // straddles EOF
  reqs[3] = {100, 4, scratch[3], Slice(), Status::OK()};  // entirely past EOF
  ASSERT_TRUE(f->MultiRead(reqs, 4).ok());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_EQ(reqs[0].result.ToString(), "0123");
  EXPECT_TRUE(reqs[1].status.ok());
  EXPECT_EQ(reqs[1].result.ToString(), "678");
  // EOF matches Read(): OK with a short (or empty) result, not an error.
  EXPECT_TRUE(reqs[2].status.ok());
  EXPECT_EQ(reqs[2].result.ToString(), "89");
  EXPECT_TRUE(reqs[3].status.ok());
  EXPECT_TRUE(reqs[3].result.empty());
}

TEST_P(EnvTest, MultiReadContract) { CheckMultiReadContract(env_); }

TEST(MemEnvIoCountersTest, TracksReadsWritesAndMultiReads) {
  MemEnv env;
  const EnvIoCounters* io = env.io_counters();
  ASSERT_NE(io, nullptr);
  ASSERT_TRUE(WriteStringToFile(&env, std::string(1000, 'a'), "f", true).ok());
  EXPECT_EQ(io->write_bytes.load(), 1000u);
  EXPECT_EQ(io->syncs.load(), 1u);

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());
  char scratch[512];
  ReadRequest reqs[2];
  reqs[0] = {0, 100, scratch, Slice(), Status::OK()};
  reqs[1] = {600, 100, scratch + 100, Slice(), Status::OK()};
  ASSERT_TRUE(f->MultiRead(reqs, 2).ok());
  EXPECT_EQ(io->multiread_batches.load(), 1u);
  EXPECT_EQ(io->multiread_requests.load(), 2u);
  EXPECT_EQ(io->read_bytes.load(), 200u);
}

TEST(UnbatchedEnvTest, SerializesMultiReadIntoSingleReads) {
  MemEnv base;
  UnbatchedEnv env(&base);
  CheckMultiReadContract(&env);
  // The ablation wrapper must dismantle the batch: the terminal sees four
  // plain Reads and zero MultiRead batches.
  EXPECT_EQ(base.io_counters()->multiread_batches.load(), 0u);
  EXPECT_EQ(base.io_counters()->read_bytes.load(), 4u + 3u + 2u + 0u);
}

TEST(FaultInjectionMultiReadTest, FaultedSubReadFailsOnlyThatRequest) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  ASSERT_TRUE(WriteStringToFile(&env, "0123456789", "f", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env.NewRandomAccessFile("f", &f).ok());

  env.TripAfter(2);  // first two sub-reads succeed, then the device dies
  char scratch[4][8];
  ReadRequest reqs[4];
  for (int i = 0; i < 4; i++) {
    reqs[i] = {static_cast<uint64_t>(i * 2), 2, scratch[i], Slice(),
               Status::OK()};
  }
  // Batch status stays OK; the damage is per-request.
  ASSERT_TRUE(f->MultiRead(reqs, 4).ok());
  EXPECT_TRUE(reqs[0].status.ok());
  EXPECT_EQ(reqs[0].result.ToString(), "01");
  EXPECT_TRUE(reqs[1].status.ok());
  EXPECT_EQ(reqs[1].result.ToString(), "23");
  EXPECT_TRUE(reqs[2].status.IsIOError());
  EXPECT_TRUE(reqs[3].status.IsIOError());

  // Healed, the same batch succeeds whole.
  env.Heal();
  for (int i = 0; i < 4; i++) {
    reqs[i] = {static_cast<uint64_t>(i * 2), 2, scratch[i], Slice(),
               Status::OK()};
  }
  ASSERT_TRUE(f->MultiRead(reqs, 4).ok());
  for (int i = 0; i < 4; i++) {
    EXPECT_TRUE(reqs[i].status.ok()) << i;
  }
}

// --- real-filesystem envs: posix and io_uring -------------------------------

class RealFsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "env_test_io_" +
           std::to_string(::getpid());
    ASSERT_TRUE(Env::Default()->CreateDir(dir_).ok());
  }
  void TearDown() override {
    Env::Default()->RemoveDirRecursive(dir_).IgnoreError("test teardown");
  }
  std::string dir_;
};

TEST_F(RealFsEnvTest, PosixMultiReadContract) {
  // Posix coalesces contiguous runs into preadv; the contract must hold
  // regardless.
  Env* env = Env::Default();
  ASSERT_TRUE(
      WriteStringToFile(env, "0123456789", dir_ + "/mr", false).ok());
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(env->NewRandomAccessFile(dir_ + "/mr", &f).ok());
  char scratch[3][16];
  ReadRequest reqs[3];
  reqs[0] = {0, 4, scratch[0], Slice(), Status::OK()};
  reqs[1] = {4, 4, scratch[1], Slice(), Status::OK()};  // contiguous with [0]
  reqs[2] = {8, 10, scratch[2], Slice(), Status::OK()};  // EOF-short
  ASSERT_TRUE(f->MultiRead(reqs, 3).ok());
  EXPECT_EQ(reqs[0].result.ToString(), "0123");
  EXPECT_EQ(reqs[1].result.ToString(), "4567");
  EXPECT_TRUE(reqs[2].status.ok());
  EXPECT_EQ(reqs[2].result.ToString(), "89");
}

TEST_F(RealFsEnvTest, UringMatchesPosixByteForByte) {
  if (!UringEnv::Supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  Env* posix = Env::Default();
  UringEnv uring(posix);
  ASSERT_TRUE(uring.using_uring());

  // A file larger than one batch, with unaligned probe offsets.
  std::string blob;
  blob.reserve(300000);
  for (int i = 0; blob.size() < 300000; i++) blob += std::to_string(i);
  ASSERT_TRUE(WriteStringToFile(posix, blob, dir_ + "/f", false).ok());

  std::unique_ptr<RandomAccessFile> pf, uf;
  ASSERT_TRUE(posix->NewRandomAccessFile(dir_ + "/f", &pf).ok());
  ASSERT_TRUE(uring.NewRandomAccessFile(dir_ + "/f", &uf).ok());

  const uint64_t offsets[] = {0, 1, 4095, 4096, 65537, 131071, 299990};
  constexpr size_t kLen = 1000;
  std::vector<std::string> pscratch(7, std::string(kLen, 0));
  std::vector<std::string> uscratch(7, std::string(kLen, 0));
  ReadRequest preqs[7], ureqs[7];
  for (int i = 0; i < 7; i++) {
    preqs[i] = {offsets[i], kLen, pscratch[i].data(), Slice(), Status::OK()};
    ureqs[i] = {offsets[i], kLen, uscratch[i].data(), Slice(), Status::OK()};
  }
  ASSERT_TRUE(pf->MultiRead(preqs, 7).ok());
  ASSERT_TRUE(uf->MultiRead(ureqs, 7).ok());
  for (int i = 0; i < 7; i++) {
    ASSERT_TRUE(preqs[i].status.ok()) << i;
    ASSERT_TRUE(ureqs[i].status.ok()) << i;
    EXPECT_EQ(preqs[i].result.ToString(), ureqs[i].result.ToString())
        << "offset " << offsets[i];
  }
  EXPECT_EQ(uring.io_counters()->multiread_batches.load(), 1u);
  EXPECT_EQ(uring.io_counters()->multiread_requests.load(), 7u);
}

TEST_F(RealFsEnvTest, UringDirectIoUnalignedRequests) {
  if (!UringEnv::Supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  // Byte-granular requests at deliberately misaligned offsets/lengths must
  // come back exact even when served via sector-aligned O_DIRECT windows.
  // On filesystems that reject O_DIRECT (tmpfs) the file silently reopens
  // buffered — the results must be identical either way.
  UringEnvOptions opts;
  opts.direct_io = true;
  UringEnv uring(Env::Default(), opts);
  ASSERT_TRUE(uring.using_uring());

  std::string blob(200000, 0);
  for (size_t i = 0; i < blob.size(); i++) {
    blob[i] = static_cast<char>('a' + (i % 23));
  }
  ASSERT_TRUE(WriteStringToFile(Env::Default(), blob, dir_ + "/d", false).ok());

  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(uring.NewRandomAccessFile(dir_ + "/d", &f).ok());
  struct Probe { uint64_t off; size_t len; };
  const Probe probes[] = {
      {1, 10},          // misaligned head
      {4093, 10},       // straddles a sector boundary
      {8192, 4096},     // exactly aligned
      {100001, 70000},  // bigger than one pool slab -> one-shot path
      {199995, 100},    // EOF-short
  };
  std::vector<std::string> scratch;
  for (const Probe& p : probes) scratch.emplace_back(p.len, 0);
  ReadRequest reqs[5];
  for (int i = 0; i < 5; i++) {
    reqs[i] = {probes[i].off, probes[i].len, scratch[i].data(), Slice(),
               Status::OK()};
  }
  ASSERT_TRUE(f->MultiRead(reqs, 5).ok());
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(reqs[i].status.ok()) << "probe " << i;
    size_t expect_len =
        std::min<uint64_t>(probes[i].len, blob.size() - probes[i].off);
    ASSERT_EQ(reqs[i].result.size(), expect_len) << "probe " << i;
    EXPECT_EQ(reqs[i].result.ToString(),
              blob.substr(probes[i].off, expect_len))
        << "probe " << i;
  }
}

TEST_F(RealFsEnvTest, UringWritableFileRoundTrip) {
  if (!UringEnv::Supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  for (bool direct : {false, true}) {
    UringEnvOptions opts;
    opts.direct_io = direct;
    UringEnv uring(Env::Default(), opts);
    std::string fname =
        dir_ + (direct ? "/w_direct" : "/w_buffered");
    // An odd size forces the direct path's padded-tail handling.
    std::string payload(300001, 0);
    for (size_t i = 0; i < payload.size(); i++) {
      payload[i] = static_cast<char>(i * 131 % 251);
    }
    {
      std::unique_ptr<WritableFile> w;
      ASSERT_TRUE(uring.NewWritableFile(fname, &w).ok());
      // Fragmented appends: tail rewrites exercise the staging buffer.
      size_t at = 0;
      const size_t frags[] = {1, 4095, 4096, 100000, 65536, 130273};
      for (size_t frag : frags) {
        size_t n = std::min(frag, payload.size() - at);
        ASSERT_TRUE(w->Append(Slice(payload.data() + at, n)).ok());
        at += n;
        ASSERT_TRUE(w->Flush().ok());
      }
      ASSERT_EQ(at, payload.size());
      ASSERT_TRUE(w->Sync().ok());
      ASSERT_TRUE(w->Close().ok());
    }
    uint64_t size = 0;
    ASSERT_TRUE(uring.GetFileSize(fname, &size).ok());
    EXPECT_EQ(size, payload.size()) << (direct ? "direct" : "buffered");
    std::string back;
    ASSERT_TRUE(ReadFileToString(Env::Default(), fname, &back).ok());
    EXPECT_TRUE(back == payload) << (direct ? "direct" : "buffered");
  }
}

// True when this directory's filesystem accepts O_DIRECT opens (ext4 yes,
// tmpfs no); tests that assert direct-path behavior skip their strong
// assertions on filesystems where the env legitimately downgrades at open.
bool DirectIoSupported(const std::string& dir) {
#if defined(O_DIRECT)
  std::string probe = dir + "/direct_probe";
  int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT | O_DIRECT | O_CLOEXEC,
                  0644);
  if (fd >= 0) {
    ::close(fd);
    Env::Default()->RemoveFile(probe).IgnoreError("probe cleanup");
    return true;
  }
#endif
  return false;
}

TEST_F(RealFsEnvTest, UringDirectWritesAreRingSubmitted) {
  if (!UringEnv::Supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  if (!DirectIoSupported(dir_)) {
    GTEST_SKIP() << "filesystem rejects O_DIRECT";
  }
  UringEnvOptions opts;
  opts.direct_io = true;
  UringEnv uring(Env::Default(), opts);
  ASSERT_TRUE(uring.using_uring());

  std::string payload(600000, 0);
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<char>(i * 37 % 251);
  }
  std::string fname = dir_ + "/ring_write";
  {
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(uring.NewWritableFile(fname, &w).ok());
    ASSERT_TRUE(w->Append(payload).ok());
    ASSERT_TRUE(w->Sync().ok());
    ASSERT_TRUE(w->Close().ok());
  }
  std::string back;
  ASSERT_TRUE(ReadFileToString(Env::Default(), fname, &back).ok());
  EXPECT_TRUE(back == payload);
  // 600000 bytes = two full 256 KiB staging buffers plus a padded tail, all
  // of which must have been SQE submissions, not pwrites.
  EXPECT_GE(uring.io_counters()->ring_writes.load(), 3u);
  EXPECT_EQ(uring.io_counters()->direct_write_fallbacks.load(), 0u);
}

TEST_F(RealFsEnvTest, UringDirectWriteMidStreamEinvalFallback) {
  if (!UringEnv::Supported()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  if (!DirectIoSupported(dir_)) {
    GTEST_SKIP() << "filesystem rejects O_DIRECT";
  }
  // Forge EINVAL on the Nth direct write: N=0 fails before anything is on
  // disk, N=1 fails the padded-tail write of the first Sync, N=2 fails a
  // full-buffer flush that follows a padded tail (the re-windowing case —
  // the padded sector must be replaced by exact bytes).
  for (int fail_at : {0, 1, 2}) {
    UringEnvOptions opts;
    opts.direct_io = true;
    opts.direct_write_einval_after = fail_at;
    UringEnv uring(Env::Default(), opts);
    ASSERT_TRUE(uring.using_uring());

    std::string payload(700001, 0);
    for (size_t i = 0; i < payload.size(); i++) {
      payload[i] = static_cast<char>((i * 131 + fail_at) % 249);
    }
    std::string fname = dir_ + "/einval_" + std::to_string(fail_at);
    {
      std::unique_ptr<WritableFile> w;
      ASSERT_TRUE(uring.NewWritableFile(fname, &w).ok());
      // First window: one full staging buffer plus an odd tail, then a Sync
      // that pads the tail.
      ASSERT_TRUE(w->Append(Slice(payload.data(), 300000)).ok());
      ASSERT_TRUE(w->Sync().ok());
      // Keep appending after the (possible) downgrade.
      ASSERT_TRUE(
          w->Append(Slice(payload.data() + 300000, payload.size() - 300000))
              .ok());
      ASSERT_TRUE(w->Sync().ok());
      ASSERT_TRUE(w->Close().ok());
    }
    uint64_t size = 0;
    ASSERT_TRUE(uring.GetFileSize(fname, &size).ok());
    EXPECT_EQ(size, payload.size()) << "fail_at=" << fail_at;
    std::string back;
    ASSERT_TRUE(ReadFileToString(Env::Default(), fname, &back).ok());
    EXPECT_TRUE(back == payload) << "fail_at=" << fail_at;
    EXPECT_EQ(uring.io_counters()->direct_write_fallbacks.load(), 1u)
        << "fail_at=" << fail_at;
  }
}

TEST_F(RealFsEnvTest, UringFallsThroughWhenUnsupported) {
  // Regardless of kernel support, the env must behave identically through
  // the generic interface; this exercises the pass-through plumbing (and on
  // kernels without io_uring, the whole stub).
  UringEnv uring(Env::Default());
  ASSERT_TRUE(
      WriteStringToFile(&uring, "payload", dir_ + "/p", true).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(&uring, dir_ + "/p", &back).ok());
  EXPECT_EQ(back, "payload");
  std::unique_ptr<RandomAccessFile> f;
  ASSERT_TRUE(uring.NewRandomAccessFile(dir_ + "/p", &f).ok());
  char scratch[8];
  ReadRequest req = {0, 7, scratch, Slice(), Status::OK()};
  ASSERT_TRUE(f->MultiRead(&req, 1).ok());
  EXPECT_EQ(req.result.ToString(), "payload");
}

TEST(WritableFileAppendVTest, MatchesSequentialAppends) {
  MemEnv env;
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("v", &f).ok());
  Slice parts[3] = {Slice("abc"), Slice(""), Slice("defg")};
  ASSERT_TRUE(f->AppendV(parts, 3).ok());
  ASSERT_TRUE(f->Sync().ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(&env, "v", &back).ok());
  EXPECT_EQ(back, "abcdefg");
  EXPECT_GE(f->PreferredAppendAlignment(), 1u);
}

TEST(MemEnvTest, DropUnsyncedSimulatesCrash) {
  MemEnv env;
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env.NewWritableFile("f", &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("lost").ok());
  env.DropUnsynced();
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env, "f", &data).ok());
  EXPECT_EQ(data, "durable");
}

}  // namespace
}  // namespace blsm
