#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/mem_env.h"
#include "util/random.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/logical_log.h"

namespace blsm {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void WriteRecords(const std::vector<std::string>& records) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_.NewWritableFile("log", &file).ok());
    wal::LogWriter writer(std::move(file));
    for (const auto& r : records) ASSERT_TRUE(writer.AddRecord(r).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  std::vector<std::string> ReadAll(uint64_t* dropped = nullptr) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_.NewSequentialFile("log", &file).ok());
    wal::LogReader reader(std::move(file));
    std::vector<std::string> out;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      out.push_back(record.ToString());
    }
    if (dropped != nullptr) *dropped = reader.dropped_bytes();
    return out;
  }

  void Corrupt(size_t offset, char xor_mask) {
    std::string data;
    ASSERT_TRUE(ReadFileToString(&env_, "log", &data).ok());
    ASSERT_LT(offset, data.size());
    data[offset] ^= xor_mask;
    ASSERT_TRUE(WriteStringToFile(&env_, data, "log", false).ok());
  }

  void Truncate(size_t new_size) {
    std::string data;
    ASSERT_TRUE(ReadFileToString(&env_, "log", &data).ok());
    data.resize(new_size);
    ASSERT_TRUE(WriteStringToFile(&env_, data, "log", false).ok());
  }

  MemEnv env_;
};

TEST_F(LogTest, EmptyLog) {
  WriteRecords({});
  EXPECT_TRUE(ReadAll().empty());
}

TEST_F(LogTest, SmallRecords) {
  WriteRecords({"foo", "bar", ""});
  auto got = ReadAll();
  EXPECT_EQ(got, (std::vector<std::string>{"foo", "bar", ""}));
}

TEST_F(LogTest, BlockSpanningRecord) {
  // Larger than one 32KB block: forces FIRST/MIDDLE/LAST fragmentation.
  std::string big(100000, 'q');
  WriteRecords({"head", big, "tail"});
  auto got = ReadAll();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "head");
  EXPECT_EQ(got[1], big);
  EXPECT_EQ(got[2], "tail");
}

TEST_F(LogTest, ManyRecordsAcrossBlocks) {
  std::vector<std::string> records;
  Random rnd(11);
  for (int i = 0; i < 2000; i++) {
    records.push_back(std::string(rnd.Uniform(200), static_cast<char>('a' + i % 26)));
  }
  WriteRecords(records);
  EXPECT_EQ(ReadAll(), records);
}

TEST_F(LogTest, ExactBlockBoundaryTrailer) {
  // A record sized so < 7 bytes remain in the block; the trailer must be
  // zero-filled and skipped on read.
  std::string nearly(wal::kBlockSize - wal::kHeaderSize - 3, 'x');
  WriteRecords({nearly, "next"});
  auto got = ReadAll();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].size(), nearly.size());
  EXPECT_EQ(got[1], "next");
}

TEST_F(LogTest, TruncatedTailIsCleanEof) {
  WriteRecords({"first", "second"});
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, "log", &data).ok());
  Truncate(data.size() - 3);  // rip into "second"
  auto got = ReadAll();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "first");
}

TEST_F(LogTest, ChecksumCorruptionDropsRecord) {
  WriteRecords({"aaaa", "bbbb"});
  Corrupt(wal::kHeaderSize + 1, 0x40);  // payload of first record
  uint64_t dropped = 0;
  auto got = ReadAll(&dropped);
  // First record fails its CRC; remaining data in the block is dropped too
  // (we cannot trust record boundaries after corruption).
  EXPECT_GT(dropped, 0u);
  for (const auto& r : got) EXPECT_NE(r, "aaaa");
}

TEST_F(LogTest, FragmentedRecordInterruptedByCrash) {
  // Write a FIRST fragment with no LAST by truncating mid-record.
  std::string big(50000, 'z');
  WriteRecords({big});
  Truncate(wal::kBlockSize);  // keep FIRST, lose the rest
  auto got = ReadAll();
  EXPECT_TRUE(got.empty());
}

// --- LogicalLog -------------------------------------------------------------

struct ReplayedRecord {
  std::string key;
  SequenceNumber seq;
  RecordType type;
  std::string value;
};

std::vector<ReplayedRecord> ReplayAll(Env* env, const std::string& path) {
  std::vector<ReplayedRecord> out;
  EXPECT_TRUE(LogicalLog::Replay(env, path,
                                 [&](const Slice& k, SequenceNumber seq,
                                     RecordType t, const Slice& v) {
                                   out.push_back({k.ToString(), seq, t,
                                                  v.ToString()});
                                 })
                  .ok());
  return out;
}

TEST(LogicalLogTest, AppendAndReplay) {
  MemEnv env;
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.Append("k1", 1, RecordType::kBase, "v1").ok());
  ASSERT_TRUE(log.Append("k2", 2, RecordType::kDelta, "+d").ok());
  ASSERT_TRUE(log.Append("k1", 3, RecordType::kTombstone, "").ok());
  ASSERT_TRUE(log.Close().ok());

  auto records = ReplayAll(&env, "wal");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, "k1");
  EXPECT_EQ(records[0].seq, 1u);
  EXPECT_EQ(records[0].type, RecordType::kBase);
  EXPECT_EQ(records[1].value, "+d");
  EXPECT_EQ(records[2].type, RecordType::kTombstone);
}

TEST(LogicalLogTest, MissingFileReplaysNothing) {
  MemEnv env;
  auto records = ReplayAll(&env, "absent");
  EXPECT_TRUE(records.empty());
}

TEST(LogicalLogTest, NoneModeWritesNothing) {
  MemEnv env;
  LogicalLog log(&env, "wal", DurabilityMode::kNone);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.Append("k", 1, RecordType::kBase, "v").ok());
  ASSERT_TRUE(log.Close().ok());
  EXPECT_FALSE(env.FileExists("wal"));
}

TEST(LogicalLogTest, SyncModeSurvivesCrash) {
  MemEnv env;
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.Append("durable", 1, RecordType::kBase, "v").ok());
  env.DropUnsynced();  // crash without Close
  auto records = ReplayAll(&env, "wal");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST(LogicalLogTest, AsyncModeMayLoseUnsynced) {
  // Documents the paper's degraded-durability contract (§4.4.2): kAsync
  // writes are lost if the crash precedes any flush.
  MemEnv env;
  LogicalLog log(&env, "wal", DurabilityMode::kAsync);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.Append("maybe", 1, RecordType::kBase, "v").ok());
  env.DropUnsynced();
  auto records = ReplayAll(&env, "wal");
  EXPECT_TRUE(records.empty());
}

TEST(LogicalLogTest, RestartTruncatesAndRelogs) {
  MemEnv env;
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(log.Append("k" + std::to_string(i), i + 1, RecordType::kBase,
                           "v")
                    .ok());
  }
  // Truncate, relogging only one surviving record.
  ASSERT_TRUE(log.Restart([&](wal::LogWriter* w) {
                   std::string payload;
                   EncodeRecord(&payload, "survivor", 42, RecordType::kBase,
                                "sv");
                   return w->AddRecord(payload);
                 })
                  .ok());
  ASSERT_TRUE(log.Append("after", 101, RecordType::kBase, "v").ok());
  ASSERT_TRUE(log.Close().ok());

  auto records = ReplayAll(&env, "wal");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "survivor");
  EXPECT_EQ(records[0].seq, 42u);
  EXPECT_EQ(records[1].key, "after");
}

TEST(LogicalLogTest, LargeValuesRoundTrip) {
  MemEnv env;
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  std::string big(200000, 'B');
  ASSERT_TRUE(log.Append("big", 7, RecordType::kBase, big).ok());
  ASSERT_TRUE(log.Close().ok());
  auto records = ReplayAll(&env, "wal");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value, big);
}

// --- group commit -----------------------------------------------------------

// Forwards to a MemEnv (which is final) but runs a hook inside every
// WritableFile::Sync: a sleep makes syncs slow enough for group commit to
// form real batches (MemEnv syncs are near-instant, which would degrade
// every batch to size 1); an error return injects a sync failure.
class SyncHookEnv : public EnvWrapper {
 public:
  // The base is handed the address of mem_ before mem_ is constructed;
  // EnvWrapper only stores it.
  explicit SyncHookEnv(std::function<Status()> hook)
      : EnvWrapper(&mem_), hook_(std::move(hook)) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    Status s = mem_.NewWritableFile(fname, &file);
    if (!s.ok()) return s;
    *result = std::make_unique<HookedFile>(std::move(file), this);
    return Status::OK();
  }

  uint64_t syncs() const { return syncs_.load(); }
  MemEnv* mem() { return &mem_; }

 private:
  class HookedFile : public WritableFile {
   public:
    HookedFile(std::unique_ptr<WritableFile> base, SyncHookEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      env_->syncs_.fetch_add(1);
      Status s = env_->hook_();
      if (!s.ok()) return s;
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    SyncHookEnv* env_;
  };

  MemEnv mem_;
  std::function<Status()> hook_;
  std::atomic<uint64_t> syncs_{0};
};

TEST(GroupCommitTest, SingleWriterPaysOneSyncPerAppend) {
  SyncHookEnv env([] { return Status::OK(); });
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  const int kAppends = 25;
  for (int i = 0; i < kAppends; i++) {
    ASSERT_TRUE(log.Append("k" + std::to_string(i), i + 1, RecordType::kBase,
                           "v")
                    .ok());
  }
  // A lone writer must never batch with itself: strict one-sync-per-commit.
  auto c = log.counters();
  EXPECT_EQ(c.records, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(c.batches, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(c.syncs, static_cast<uint64_t>(kAppends));
  EXPECT_EQ(env.syncs(), static_cast<uint64_t>(kAppends));
  ASSERT_TRUE(log.Close().ok());
}

TEST(GroupCommitTest, ConcurrentWritersShareSyncs) {
  // The sleep keeps each sync long enough that followers pile up behind the
  // leader, so batches form the way they do behind a real fsync.
  SyncHookEnv env([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::OK();
  });
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());

  const int kThreads = 8;
  const int kPerThread = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        SequenceNumber seq =
            static_cast<SequenceNumber>(t * kPerThread + i + 1);
        Status s = log.Append("t" + std::to_string(t) + "k" +
                                  std::to_string(i),
                              seq, RecordType::kBase, "v");
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const uint64_t total = kThreads * kPerThread;
  auto c = log.counters();
  EXPECT_EQ(c.records, total);
  EXPECT_EQ(c.batches, c.syncs);
  // The amortization bar: well under one sync per acked write.
  EXPECT_LT(static_cast<double>(c.syncs), 0.5 * static_cast<double>(total))
      << "group commit failed to amortize syncs: " << c.syncs << " syncs for "
      << total << " appends";

  ASSERT_TRUE(log.Close().ok());
  // Every acked write must be in the replayed log exactly once.
  auto records = ReplayAll(env.mem(), "wal");
  EXPECT_EQ(records.size(), total);
  std::vector<bool> seen(total + 1, false);
  for (const auto& r : records) {
    ASSERT_GE(r.seq, 1u);
    ASSERT_LE(r.seq, total);
    EXPECT_FALSE(seen[r.seq]) << "duplicate seq " << r.seq;
    seen[r.seq] = true;
  }
}

TEST(GroupCommitTest, AppendGroupIsOneCommitUnit) {
  SyncHookEnv env([] { return Status::OK(); });
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  std::vector<std::string> payloads;
  for (int i = 0; i < 10; i++) {
    std::string p;
    EncodeRecord(&p, "g" + std::to_string(i), i + 1, RecordType::kBase, "v");
    payloads.push_back(std::move(p));
  }
  ASSERT_TRUE(log.AppendGroup(payloads).ok());
  auto c = log.counters();
  EXPECT_EQ(c.records, 10u);
  EXPECT_EQ(c.batches, 1u);
  EXPECT_EQ(c.syncs, 1u);
  ASSERT_TRUE(log.Close().ok());
  auto records = ReplayAll(env.mem(), "wal");
  ASSERT_EQ(records.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(records[i].key, "g" + std::to_string(i));
  }
}

TEST(GroupCommitTest, FailedBatchSyncPoisonsEveryWaiter) {
  std::atomic<bool> fail{false};
  SyncHookEnv env([&]() -> Status {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (fail.load()) return Status::IOError("injected sync failure");
    return Status::OK();
  });
  LogicalLog log(&env, "wal", DurabilityMode::kSync);
  ASSERT_TRUE(log.Open().ok());
  ASSERT_TRUE(log.Append("before", 1, RecordType::kBase, "v").ok());

  fail.store(true);
  const int kThreads = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  std::vector<std::string> messages(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Status s = log.Append("k" + std::to_string(t), t + 2, RecordType::kBase,
                            "v");
      if (s.ok()) {
        ok_count.fetch_add(1);
      } else {
        messages[t] = s.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();

  // No writer may be acknowledged: whichever batch hit the failing sync
  // fails every waiter in it, and the poison fails all later appends.
  EXPECT_EQ(ok_count.load(), 0);
  for (int t = 0; t < kThreads; t++) {
    EXPECT_NE(messages[t].find("injected sync failure"), std::string::npos)
        << "writer " << t << " got: " << messages[t];
  }
  EXPECT_FALSE(log.bad().ok());
  Status again = log.Append("after", 100, RecordType::kBase, "v");
  EXPECT_FALSE(again.ok());

  // A successful Restart clears the poison and appends flow again.
  fail.store(false);
  ASSERT_TRUE(log.Restart([](wal::LogWriter*) { return Status::OK(); }).ok());
  EXPECT_TRUE(log.bad().ok());
  EXPECT_TRUE(log.Append("recovered", 101, RecordType::kBase, "v").ok());
  ASSERT_TRUE(log.Close().ok());
}

}  // namespace
}  // namespace blsm
