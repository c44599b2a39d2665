#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/random.h"

namespace blsm::crc32c {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

void CheckStandardVectors(ExtendFn extend) {
  // Known-answer tests from RFC 3720 / the iSCSI CRC32C test vectors.
  char zeros[32];
  memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(0x8a9136aau, extend(0, zeros, sizeof(zeros)));

  char ones[32];
  memset(ones, 0xff, sizeof(ones));
  EXPECT_EQ(0x62a8ab43u, extend(0, ones, sizeof(ones)));

  char ascending[32];
  for (int i = 0; i < 32; i++) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(0x46dd794eu, extend(0, ascending, sizeof(ascending)));

  char descending[32];
  for (int i = 0; i < 32; i++) descending[i] = static_cast<char>(31 - i);
  EXPECT_EQ(0x113fdb5cu, extend(0, descending, sizeof(descending)));
}

TEST(Crc32cTest, StandardVectors) { CheckStandardVectors(Extend); }

TEST(Crc32cTest, StandardVectorsPortable) {
  CheckStandardVectors(ExtendPortable);
}

std::string RandomBytes(size_t n, uint32_t seed) {
  Random rnd(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rnd.Uniform(256));
  return s;
}

TEST(Crc32cTest, MatchesPortableAtEveryLengthAndOffset) {
  // Every length across a 4 KiB block and a little past it, at every start
  // offset within an 8-byte word: the hardware path's unaligned loads and
  // its byte-wise tail both meet the reference.
  const size_t kMaxLen = 4200;
  std::string buf = RandomBytes(kMaxLen + 8, 301);
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t len = 0; len <= kMaxLen; len++) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(ExtendPortable(0, p, len), Extend(0, p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cTest, SplitExtendEqualsOnePass) {
  std::string data = RandomBytes(10007, 302);
  const uint32_t whole = Value(data.data(), data.size());
  ASSERT_EQ(ExtendPortable(0, data.data(), data.size()), whole);
  Random rnd(303);
  for (int trial = 0; trial < 200; trial++) {
    // Cut at random points, most of them not on an 8-byte boundary.
    std::vector<size_t> cuts = {0, data.size()};
    for (int i = 0; i < 5; i++) cuts.push_back(rnd.Uniform(data.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    uint32_t crc = 0;
    for (size_t i = 0; i + 1 < cuts.size(); i++) {
      crc = Extend(crc, data.data() + cuts[i], cuts[i + 1] - cuts[i]);
    }
    ASSERT_EQ(whole, crc) << "trial " << trial;
  }
}

TEST(Crc32cTest, DispatchUsesHardwareWhenPresent) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // A refactor that silently falls back to the table routine on a CPU with
  // SSE4.2 fails here, not only in a benchmark.
  __builtin_cpu_init();
  EXPECT_EQ(static_cast<bool>(__builtin_cpu_supports("sse4.2")),
            IsAccelerated());
#else
  EXPECT_FALSE(IsAccelerated());
#endif
}

TEST(Crc32cTest, DistinguishesValues) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("foo", 3), Value("bar", 3));
}

TEST(Crc32cTest, ExtendEqualsConcatenation) {
  std::string hello = "hello ";
  std::string world = "world";
  std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(),
                   world.size()));
}

TEST(Crc32cTest, MaskRoundTrip) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

}  // namespace
}  // namespace blsm::crc32c
