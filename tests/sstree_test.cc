#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "buffer/block_cache.h"
#include "io/fault_injection_env.h"
#include "io/mem_env.h"
#include "lsm/record.h"
#include "sstree/block.h"
#include "sstree/tree_builder.h"
#include "sstree/tree_reader.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace blsm::sstree {
namespace {

std::string Ikey(const std::string& user_key, SequenceNumber seq,
                 RecordType t = RecordType::kBase) {
  std::string k;
  AppendInternalKey(&k, user_key, seq, t);
  return k;
}

std::string PaddedKey(uint64_t i) {
  char buf[24];
  snprintf(buf, sizeof(buf), "key%012llu", static_cast<unsigned long long>(i));
  return buf;
}

// --- Block ------------------------------------------------------------------

TEST(BlockTest, BuildAndCursor) {
  BlockBuilder builder;
  builder.Add(Ikey("a", 1), "va");
  builder.Add(Ikey("b", 2), "vb");
  builder.Add(Ikey("c", 3), "vc");
  std::string sealed;
  SealBlock(builder.Finish(), &sealed);

  Slice payload;
  ASSERT_TRUE(VerifyBlock(sealed, &payload).ok());
  BlockCursor cursor(payload);
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(ExtractUserKey(cursor.key()).ToString(), "a");
  cursor.Next();
  EXPECT_EQ(cursor.value().ToString(), "vb");
  cursor.Next();
  cursor.Next();
  EXPECT_FALSE(cursor.Valid());
}

TEST(BlockTest, CursorSeek) {
  BlockBuilder builder;
  builder.Add(Ikey("b", 1), "vb");
  builder.Add(Ikey("d", 1), "vd");
  std::string sealed;
  SealBlock(builder.Finish(), &sealed);
  Slice payload;
  ASSERT_TRUE(VerifyBlock(sealed, &payload).ok());

  BlockCursor cursor(payload);
  cursor.Seek(InternalLookupKey("a"));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(ExtractUserKey(cursor.key()).ToString(), "b");
  cursor.Seek(InternalLookupKey("c"));
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(ExtractUserKey(cursor.key()).ToString(), "d");
  cursor.Seek(InternalLookupKey("e"));
  EXPECT_FALSE(cursor.Valid());
}

TEST(BlockTest, CorruptionDetected) {
  BlockBuilder builder;
  builder.Add(Ikey("a", 1), "va");
  std::string sealed;
  SealBlock(builder.Finish(), &sealed);
  sealed[2] ^= 0x01;
  Slice payload;
  EXPECT_TRUE(VerifyBlock(sealed, &payload).IsCorruption());
}

TEST(BlockTest, TooSmallIsCorrupt) {
  Slice payload;
  EXPECT_TRUE(VerifyBlock(Slice("ab"), &payload).IsCorruption());
}

// --- TreeBuilder / TreeReader -------------------------------------------------

class TreeTest : public ::testing::Test {
 protected:
  TreeTest() : cache_(4 << 20) {}

  // Builds a component with `n` sequential records; returns the reader.
  std::unique_ptr<TreeReader> BuildTree(uint64_t n, size_t value_size = 100,
                                        bool bloom = true) {
    TreeBuilderOptions opts;
    opts.build_bloom = bloom;
    TreeBuilder builder(&mem_env_, "t.tree", opts);
    EXPECT_TRUE(builder.Open().ok());
    for (uint64_t i = 0; i < n; i++) {
      EXPECT_TRUE(builder
                      .Add(Ikey(PaddedKey(i), i + 1),
                           std::string(value_size, static_cast<char>('a' + i % 26)))
                      .ok());
    }
    EXPECT_TRUE(builder.Finish().ok());
    std::unique_ptr<TreeReader> reader;
    EXPECT_TRUE(
        TreeReader::Open(&mem_env_, &cache_, 1, "t.tree", &reader).ok());
    return reader;
  }

  MemEnv mem_env_;
  BlockCache cache_;
};

TEST_F(TreeTest, EmptyTree) {
  auto reader = BuildTree(0);
  EXPECT_EQ(reader->num_entries(), 0u);
  EXPECT_FALSE(reader->Get("anything", true).has_value());
  auto it = reader->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST_F(TreeTest, SingleEntry) {
  auto reader = BuildTree(1);
  EXPECT_EQ(reader->num_entries(), 1u);
  auto rec = reader->Get(PaddedKey(0), true);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, RecordType::kBase);
  EXPECT_EQ(rec->value, std::string(100, 'a'));
}

TEST_F(TreeTest, GetEveryKeyMultiLevelIndex) {
  // 20000 * ~120B entries: thousands of blocks, at least 2 index levels.
  auto reader = BuildTree(20000);
  EXPECT_GE(reader->footer().index_levels, 2u);
  for (uint64_t i = 0; i < 20000; i += 37) {
    auto rec = reader->Get(PaddedKey(i), true);
    ASSERT_TRUE(rec.has_value()) << i;
    EXPECT_EQ(rec->seq, i + 1);
  }
}

TEST_F(TreeTest, GetMissingKeys) {
  auto reader = BuildTree(1000);
  EXPECT_FALSE(reader->Get("zzz-way-past-everything", true).has_value());
  EXPECT_FALSE(reader->Get("aaa-before-everything", true).has_value());
  EXPECT_FALSE(reader->Get(PaddedKey(500) + "x", true).has_value());
}

TEST_F(TreeTest, BloomFilterSkipsMissingKeysWithZeroIo) {
  auto reader = BuildTree(5000);
  auto before = mem_env_.io_counters()->snapshot();
  int admitted = 0;
  for (int i = 0; i < 1000; i++) {
    if (reader->MayContain("absent-" + std::to_string(i))) admitted++;
  }
  auto diff = mem_env_.io_counters()->snapshot() - before;
  EXPECT_EQ(diff.read_ops, 0u) << "MayContain must not touch the disk";
  EXPECT_LT(admitted, 50);  // ~1% false positive rate
}

TEST_F(TreeTest, IteratorFullScanInOrder) {
  auto reader = BuildTree(5000);
  auto it = reader->NewIterator();
  uint64_t i = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ASSERT_EQ(ExtractUserKey(it->key()).ToString(), PaddedKey(i)) << i;
    i++;
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(i, 5000u);
}

TEST_F(TreeTest, IteratorSeek) {
  auto reader = BuildTree(5000);
  auto it = reader->NewIterator();
  it->Seek(InternalLookupKey(PaddedKey(3210)));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), PaddedKey(3210));
  it->Next();
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), PaddedKey(3211));

  // Seek between keys lands on the successor.
  it->Seek(InternalLookupKey(PaddedKey(3210) + "0"));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), PaddedKey(3211));

  // Seek past the end.
  it->Seek(InternalLookupKey("zzzz"));
  EXPECT_FALSE(it->Valid());
}

TEST_F(TreeTest, ScanIteratorsNeverHint) {
  auto reader = BuildTree(5000);
  const EnvIoCounters* io = mem_env_.io_counters();
  uint64_t before = io->readahead_hints.load();
  auto it = reader->NewIterator();
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(n, 5000);
  // A scan's hinted-but-unread tail is wasted IO: scans never hint.
  EXPECT_EQ(io->readahead_hints.load(), before);
}

TEST_F(TreeTest, MergeInputIteratorsHint) {
  auto reader = BuildTree(5000);
  const EnvIoCounters* io = mem_env_.io_counters();
  EnvIoCounters::Snapshot before = io->snapshot();
  auto it = reader->NewIterator(/*sequential=*/true);
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(n, 5000);
  // Merge inputs keep a fixed 256 KiB window ahead of the traversal from
  // their first data block: the exact stream pinned here.
  EnvIoCounters::Snapshot d = io->snapshot() - before;
  EXPECT_EQ(d.readahead_hints, 3u);
  EXPECT_EQ(d.readahead_hits, 152u);
}

TEST_F(TreeTest, SequentialIteratorBypassesCache) {
  auto reader = BuildTree(2000);
  uint64_t cache_usage_before = cache_.usage();
  auto it = reader->NewIterator(/*sequential=*/true);
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  EXPECT_EQ(n, 2000);
  // The sequential scan does not pollute the block cache.
  EXPECT_EQ(cache_.usage(), cache_usage_before);
}

TEST_F(TreeTest, CachedGetsCostNoSeeksAfterWarmup) {
  auto reader = BuildTree(2000);
  // Warm up.
  for (uint64_t i = 0; i < 2000; i += 100) reader->Get(PaddedKey(i), true);
  auto before = mem_env_.io_counters()->snapshot();
  for (uint64_t i = 0; i < 2000; i += 100) reader->Get(PaddedKey(i), true);
  auto diff = mem_env_.io_counters()->snapshot() - before;
  EXPECT_EQ(diff.read_ops, 0u);
}

TEST_F(TreeTest, UncachedGetCostsOneSeekWithHotIndex) {
  auto reader = BuildTree(50000, 1000);  // ~50MB of values: real index depth
  // Warm the index by touching a spread of keys, then measure fresh keys.
  for (uint64_t i = 0; i < 50000; i += 500) reader->Get(PaddedKey(i), true);
  Random rnd(3);
  // Statistically: with index blocks cached, each fresh Get should cost
  // about one data-block seek.
  auto before = mem_env_.io_counters()->snapshot();
  const int kProbes = 200;
  for (int i = 0; i < kProbes; i++) {
    uint64_t k = rnd.Uniform(50000);
    reader->Get(PaddedKey(k), true);
  }
  auto diff = mem_env_.io_counters()->snapshot() - before;
  EXPECT_LT(static_cast<double>(diff.read_seeks) / kProbes, 2.2);
}

TEST_F(TreeTest, RecordTypesPreserved) {
  TreeBuilder builder(&mem_env_, "types.tree", TreeBuilderOptions{});
  ASSERT_TRUE(builder.Open().ok());
  ASSERT_TRUE(builder.Add(Ikey("del", 9, RecordType::kTombstone), "").ok());
  ASSERT_TRUE(builder.Add(Ikey("delta", 8, RecordType::kDelta), "+d").ok());
  ASSERT_TRUE(builder.Finish().ok());
  std::unique_ptr<TreeReader> reader;
  ASSERT_TRUE(
      TreeReader::Open(&mem_env_, &cache_, 2, "types.tree", &reader).ok());
  auto del = reader->Get("del", true);
  ASSERT_TRUE(del.has_value());
  EXPECT_EQ(del->type, RecordType::kTombstone);
  auto delta = reader->Get("delta", true);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->type, RecordType::kDelta);
  EXPECT_EQ(delta->value, "+d");
}

TEST_F(TreeTest, SmallestLargestTracked) {
  TreeBuilder builder(&mem_env_, "sl.tree", TreeBuilderOptions{});
  ASSERT_TRUE(builder.Open().ok());
  ASSERT_TRUE(builder.Add(Ikey("aaa", 1), "v").ok());
  ASSERT_TRUE(builder.Add(Ikey("zzz", 2), "v").ok());
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(ExtractUserKey(builder.smallest_key()).ToString(), "aaa");
  EXPECT_EQ(ExtractUserKey(builder.largest_key()).ToString(), "zzz");
}

TEST_F(TreeTest, CorruptFooterRejected) {
  BuildTree(10);
  std::string data;
  ASSERT_TRUE(ReadFileToString(&mem_env_, "t.tree", &data).ok());
  data[data.size() - 1] ^= 0xff;  // clobber the magic
  ASSERT_TRUE(WriteStringToFile(&mem_env_, data, "bad.tree", false).ok());
  std::unique_ptr<TreeReader> reader;
  EXPECT_TRUE(TreeReader::Open(&mem_env_, &cache_, 3, "bad.tree", &reader)
                  .IsCorruption());
}

// The footer has no checksum, so its fields are checked for plausibility:
// a forged index depth or Bloom size must not drive an allocation.
TEST_F(TreeTest, ForgedFooterFieldsRejected) {
  BuildTree(10);
  std::string good;
  ASSERT_TRUE(ReadFileToString(&mem_env_, "t.tree", &good).ok());
  const size_t footer = good.size() - Footer::kEncodedLength;
  const size_t index_levels_at = footer + 16;
  const size_t bloom_size_at = footer + 28;

  std::string data = good;
  EncodeFixed32(data.data() + index_levels_at, 0xffffffffu);
  ASSERT_TRUE(WriteStringToFile(&mem_env_, data, "deep.tree", false).ok());
  std::unique_ptr<TreeReader> reader;
  EXPECT_TRUE(TreeReader::Open(&mem_env_, &cache_, 6, "deep.tree", &reader)
                  .IsCorruption());

  data = good;
  EncodeFixed64(data.data() + bloom_size_at, 1ull << 40);
  ASSERT_TRUE(WriteStringToFile(&mem_env_, data, "bloom.tree", false).ok());
  EXPECT_TRUE(
      TreeReader::Open(&mem_env_, &cache_, 7, "bloom.tree", &reader)
          .IsCorruption());
}

TEST_F(TreeTest, TruncatedFileRejected) {
  ASSERT_TRUE(WriteStringToFile(&mem_env_, "short", "tiny.tree", false).ok());
  std::unique_ptr<TreeReader> reader;
  EXPECT_TRUE(
      TreeReader::Open(&mem_env_, &cache_, 4, "tiny.tree", &reader)
          .IsCorruption());
}

TEST_F(TreeTest, CorruptDataBlockSurfacesAsError) {
  BuildTree(1000);
  std::string data;
  ASSERT_TRUE(ReadFileToString(&mem_env_, "t.tree", &data).ok());
  data[100] ^= 0xff;  // inside the first data block
  ASSERT_TRUE(WriteStringToFile(&mem_env_, data, "t.tree", false).ok());
  std::unique_ptr<TreeReader> reader;
  ASSERT_TRUE(
      TreeReader::Open(&mem_env_, &cache_, 5, "t.tree", &reader).ok());
  Status io;
  auto rec = reader->Get(PaddedKey(0), true, &io);
  EXPECT_FALSE(rec.has_value());
  EXPECT_TRUE(io.IsCorruption()) << io.ToString();
}

TEST_F(TreeTest, NoBloomVariant) {
  auto reader = BuildTree(1000, 100, /*bloom=*/false);
  EXPECT_FALSE(reader->has_bloom());
  EXPECT_TRUE(reader->MayContain("whatever"));  // no filter: always admit
  auto rec = reader->Get(PaddedKey(10), true);
  ASSERT_TRUE(rec.has_value());
}

TEST_F(TreeTest, DataBytesReflectsValueVolume) {
  auto reader = BuildTree(1000, 1000);
  EXPECT_GT(reader->data_bytes(), 1000u * 1000u);
  EXPECT_LT(reader->data_bytes(), 1200u * 1000u);
}

// Pins the builder's on-disk format: a fixed input must produce the same
// bytes however the builder schedules its appends.
TEST_F(TreeTest, BuilderOutputIsByteStable) {
  TreeBuilderOptions opts;
  TreeBuilder builder(&mem_env_, "stable.tree", opts);
  ASSERT_TRUE(builder.Open().ok());
  for (uint64_t i = 0; i < 5000; i++) {
    const RecordType type = i % 11 == 0  ? RecordType::kTombstone
                            : i % 7 == 0 ? RecordType::kDelta
                                         : RecordType::kBase;
    const std::string value =
        type == RecordType::kTombstone
            ? std::string()
            : std::string(i * 37 % 200 + 1, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(builder.Add(Ikey(PaddedKey(i), i + 1, type), value).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(&mem_env_, "stable.tree", &data).ok());
  EXPECT_EQ(data.size(), builder.file_size());
  EXPECT_EQ(data.size(), 594869u);
  EXPECT_EQ(crc32c::Value(data.data(), data.size()), 4020701573u);
}

// A failed block append must reach the caller, and the failed build must
// still tear down cleanly.
TEST_F(TreeTest, BuilderSurfacesAppendError) {
  FaultInjectionEnv env(&mem_env_);
  TreeBuilder builder(&env, "fail.tree", TreeBuilderOptions());
  ASSERT_TRUE(builder.Open().ok());
  FaultPolicy policy;
  policy.write_error_prob = 1.0;
  env.SetPolicy(policy);
  Status s;
  for (uint64_t i = 0; i < 1000 && s.ok(); i++) {
    s = builder.Add(Ikey(PaddedKey(i), i + 1), std::string(100, 'v'));
  }
  if (s.ok()) s = builder.Finish();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_GT(env.faults_injected(), 0u);
  builder.Abandon();
  env.Heal();
  std::string data;
  ASSERT_TRUE(ReadFileToString(&mem_env_, "fail.tree", &data).ok());
  EXPECT_EQ(data.size(), 0u);
}

}  // namespace
}  // namespace blsm::sstree
