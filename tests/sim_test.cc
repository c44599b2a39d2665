#include <gtest/gtest.h>

#include <cmath>

#include "sim/device_model.h"
#include "sim/ram_requirements.h"
#include "sim/read_amplification.h"

namespace blsm {
namespace {

// --- DeviceModel ----------------------------------------------------------

TEST(DeviceModelTest, SeekBoundWorkload) {
  DeviceModel hdd = HardDiskArray();
  EnvIoCounters::Snapshot io{};
  io.read_seeks = 400;  // exactly one second of seeks
  io.read_bytes = 0;
  EXPECT_NEAR(hdd.DeviceSeconds(io), 1.0, 1e-9);
}

TEST(DeviceModelTest, BandwidthBoundWorkload) {
  DeviceModel hdd = HardDiskArray();
  EnvIoCounters::Snapshot io{};
  io.write_bytes = 240000000;  // one second of sequential writes
  EXPECT_NEAR(hdd.DeviceSeconds(io), 1.0, 1e-9);
}

TEST(DeviceModelTest, SsdHasFarMoreIops) {
  EnvIoCounters::Snapshot io{};
  io.read_seeks = 10000;
  double hdd_time = HardDiskArray().DeviceSeconds(io);
  double ssd_time = SsdArray().DeviceSeconds(io);
  EXPECT_GT(hdd_time / ssd_time, 50.0);
}

TEST(DeviceModelTest, SsdPenalizesRandomWrites) {
  // §5.4: "SSDs ... severely penalize random writes".
  DeviceModel ssd = SsdArray();
  EnvIoCounters::Snapshot reads{}, writes{};
  reads.read_seeks = 1000;
  writes.write_seeks = 1000;
  EXPECT_GT(ssd.DeviceSeconds(writes) / ssd.DeviceSeconds(reads), 5.0);
}

TEST(DeviceModelTest, OpsPerSecond) {
  DeviceModel hdd = HardDiskArray();
  EnvIoCounters::Snapshot io{};
  io.read_seeks = 400;
  EXPECT_NEAR(hdd.OpsPerSecond(400, io), 400.0, 1e-6);
}

TEST(DeviceModelTest, ZeroIoIsNeverDeviceBound) {
  // An all-cache profile must not model as the slowest one.
  DeviceModel hdd = HardDiskArray();
  EnvIoCounters::Snapshot io{};
  double ops = hdd.OpsPerSecond(400, io);
  EXPECT_TRUE(std::isinf(ops) && ops > 0) << ops;
}

// --- Table 2 (Appendix A) ----------------------------------------------------

TEST(RamRequirementsTest, MatchesPaperTable2) {
  // Spot-check against the published table (GiB, 100B keys, 1000B values,
  // 4096B pages): we should land within rounding of the paper's numbers.
  RamCalcParams p;
  auto devices = Table2Devices();
  const auto& sata = devices[0];
  const auto& pcie = devices[1];
  const auto& server = devices[2];
  const auto& media = devices[3];

  auto expect_near = [](std::optional<double> got, double want) {
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(*got, want, want * 0.06);
  };

  expect_near(RamGiBForPeriod(sata, 60, p), 0.302);
  expect_near(RamGiBForPeriod(sata, 300, p), 1.51);
  expect_near(RamGiBForPeriod(sata, 1800, p), 9.05);
  expect_near(RamGiBForPeriod(pcie, 60, p), 6.03);
  expect_near(RamGiBForPeriod(pcie, 300, p), 30.2);
  expect_near(RamGiBForPeriod(server, 300, p), 0.015);
  expect_near(RamGiBForPeriod(server, 86400, p), 4.35);
  expect_near(RamGiBForPeriod(media, 604800, p), 15.2);

  EXPECT_NEAR(RamGiBFullDisk(sata, p), 12.5, 0.3);
  EXPECT_NEAR(RamGiBFullDisk(pcie, p), 122, 3);
  EXPECT_NEAR(RamGiBFullDisk(server, p), 7.32, 0.2);
  EXPECT_NEAR(RamGiBFullDisk(media, p), 48.8, 1.5);
}

TEST(RamRequirementsTest, CapacityBoundReturnsNullopt) {
  // The paper prints "-" when the period is long enough that the whole disk
  // is hot (e.g. SATA SSD at one hour).
  RamCalcParams p;
  auto sata = Table2Devices()[0];
  EXPECT_FALSE(RamGiBForPeriod(sata, 3600, p).has_value());
  EXPECT_FALSE(RamGiBForPeriod(sata, 86400, p).has_value());
}

TEST(RamRequirementsTest, ReadFanout) {
  // Appendix A.1: page_size/key_size ~= 40 for 4KB pages and ~100B keys.
  RamCalcParams p;
  EXPECT_NEAR(ReadFanout(p), 4096.0 / 108.0, 0.01);
}

TEST(RamRequirementsTest, BloomOverheadAboutFivePercent) {
  // Appendix A: 1.25 B/key, ~4 entries/leaf -> ~5% of the index cache.
  RamCalcParams p;
  double overhead = BloomOverheadFraction(p, 10.0);
  EXPECT_NEAR(overhead, 0.05, 0.015);
}

// --- Figure 2 model -----------------------------------------------------------

TEST(ReadAmplificationTest, BloomCurveStaysNearOne) {
  ReadAmpParams p;
  auto curve = BloomThreeLevelCurve(16.0, 1.0, p);
  ASSERT_FALSE(curve.empty());
  for (const auto& pt : curve) {
    EXPECT_GE(pt.seeks, 1.0);
    EXPECT_LE(pt.seeks, 1.05) << "at " << pt.data_multiple
                              << "x RAM (paper: max 1.03)";
  }
}

TEST(ReadAmplificationTest, FractionalCascadingGrowsWithData) {
  ReadAmpParams p;
  auto curve = FractionalCascadingCurve(2, 16.0, 1.0, p);
  ASSERT_FALSE(curve.empty());
  EXPECT_GT(curve.back().seeks, curve.front().seeks);
  EXPECT_GT(curve.back().seeks, 2.0) << "R=2 at 16x RAM needs several seeks";
}

TEST(ReadAmplificationTest, SmallerRMeansMoreSeeks) {
  ReadAmpParams p;
  auto r2 = FractionalCascadingCurve(2, 16.0, 16.0, p);
  auto r10 = FractionalCascadingCurve(10, 16.0, 16.0, p);
  ASSERT_EQ(r2.size(), 1u);
  ASSERT_EQ(r10.size(), 1u);
  EXPECT_GT(r2[0].seeks, r10[0].seeks);
}

TEST(ReadAmplificationTest, BandwidthGrowsWithR) {
  // Figure 2 right panel: per-seek bandwidth is proportional to R, so large
  // R costs more transfer even with fewer seeks.
  ReadAmpParams p;
  auto r4 = FractionalCascadingCurve(4, 16.0, 16.0, p);
  auto r10 = FractionalCascadingCurve(10, 16.0, 16.0, p);
  double bw_per_seek_4 = r4[0].bandwidth_pages / std::max(r4[0].seeks, 1e-9);
  double bw_per_seek_10 =
      r10[0].bandwidth_pages / std::max(r10[0].seeks, 1e-9);
  EXPECT_GT(bw_per_seek_10, bw_per_seek_4);
}

TEST(ReadAmplificationTest, BloomBeatsEveryRAtScale) {
  // The paper's conclusion: no setting of R makes fractional cascading
  // competitive with Bloom filters at read amplification ~1.
  ReadAmpParams p;
  auto bloom = BloomThreeLevelCurve(16.0, 16.0, p);
  ASSERT_EQ(bloom.size(), 1u);
  for (int r = 2; r <= 10; r++) {
    auto fc = FractionalCascadingCurve(r, 16.0, 16.0, p);
    EXPECT_GT(fc[0].seeks, bloom[0].seeks) << "R=" << r;
  }
}

TEST(ReadAmplificationTest, TinyDataIsFreeForEveryone) {
  // When the data fits in RAM, nobody pays seeks.
  ReadAmpParams p;
  auto fc = FractionalCascadingCurve(4, 0.5, 0.5, p);
  ASSERT_EQ(fc.size(), 1u);
  EXPECT_LT(fc[0].seeks, 0.5);
}

}  // namespace
}  // namespace blsm
