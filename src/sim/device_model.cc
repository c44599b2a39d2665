#include "sim/device_model.h"

#include <limits>

namespace blsm {

double DeviceModel::DeviceSeconds(const EnvIoCounters::Snapshot& io) const {
  double seek_time = static_cast<double>(io.read_seeks) / read_iops +
                     static_cast<double>(io.write_seeks) / write_iops;
  double transfer_time =
      static_cast<double>(io.read_bytes) / seq_read_bw +
      static_cast<double>(io.write_bytes) / seq_write_bw;
  return seek_time + transfer_time;
}

double DeviceModel::OpsPerSecond(uint64_t ops,
                                 const EnvIoCounters::Snapshot& io) const {
  double secs = DeviceSeconds(io);
  // Work the device never sees (all cache hits) is never device-bound.
  if (secs <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(ops) / secs;
}

DeviceModel HardDiskArray() {
  // Two 10K RPM drives, RAID-0: ~5 ms mean access each => ~200 IOPS/drive.
  // Random writes on a disk cost the same as random reads (one seek).
  return DeviceModel{
      .name = "hdd",
      .read_iops = 400,
      .write_iops = 400,
      .seq_read_bw = 240e6,   // 2 x 120 MB/s
      .seq_write_bw = 240e6,
  };
}

DeviceModel SsdArray() {
  // Two OCZ Vertex 2, RAID-0. Read IOPS from Table 2's SATA-class SSD
  // (50K/device); random writes are severely penalized (§5.4) — on-device
  // garbage collection cuts sustained random-write IOPS by roughly an order
  // of magnitude relative to reads.
  return DeviceModel{
      .name = "ssd",
      .read_iops = 100000,  // 2 x 50K
      .write_iops = 8000,   // random-write penalty
      .seq_read_bw = 570e6,  // 2 x 285 MB/s
      .seq_write_bw = 550e6, // 2 x 275 MB/s
  };
}

DeviceModel SataSsd() {
  return DeviceModel{.name = "sata-ssd",
                     .read_iops = 50e3,
                     .write_iops = 5e3,
                     .seq_read_bw = 285e6,
                     .seq_write_bw = 275e6};
}

DeviceModel PcieSsd() {
  return DeviceModel{.name = "pcie-ssd",
                     .read_iops = 1e6,
                     .write_iops = 100e3,
                     .seq_read_bw = 1.5e9,
                     .seq_write_bw = 1.2e9};
}

DeviceModel ServerHdd() {
  return DeviceModel{.name = "server-hdd",
                     .read_iops = 500,
                     .write_iops = 500,
                     .seq_read_bw = 150e6,
                     .seq_write_bw = 150e6};
}

DeviceModel MediaHdd() {
  return DeviceModel{.name = "media-hdd",
                     .read_iops = 250,
                     .write_iops = 250,
                     .seq_read_bw = 120e6,
                     .seq_write_bw = 120e6};
}

}  // namespace blsm
