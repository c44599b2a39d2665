#ifndef BLSM_SIM_DEVICE_MODEL_H_
#define BLSM_SIM_DEVICE_MODEL_H_

#include <cstdint>
#include <string>

#include "io/env.h"

namespace blsm {

// Storage device cost model. The benchmark harness runs each engine against
// real files and takes the delta of the terminal Env's EnvIoCounters over
// the run (that Env classifies every access as a seek or a sequential
// transfer). It feeds this I/O profile (seeks, sequential bytes, random
// writes) through these models to obtain the device-time the same I/O would
// have taken on the paper's hard-disk and SSD arrays (§5.1). This is the
// substitution documented in DESIGN.md §1: the paper's comparisons are
// determined by seek counts and amplification, which we measure exactly.
struct DeviceModel {
  std::string name;
  double read_iops;          // random reads per second (seek-bound)
  double write_iops;         // random writes per second
  double seq_read_bw;        // bytes/second
  double seq_write_bw;       // bytes/second

  // Device-seconds to execute the I/O profile in `io`, assuming reads and
  // writes share the device serially (worst case, as in the paper's
  // amplification convention).
  double DeviceSeconds(const EnvIoCounters::Snapshot& io) const;

  // Operations/second the device sustains for a workload that issued `ops`
  // logical operations while producing profile `io`; +inf when `io` costs
  // no device time (the device is never the bottleneck). When the workload
  // is CPU-bound rather than I/O-bound, callers should take
  // min(device_ops_per_sec, measured_ops_per_sec) themselves.
  double OpsPerSecond(uint64_t ops, const EnvIoCounters::Snapshot& io) const;
};

// Parameter sets.
//
// The paper's HDD array: two 10K RPM enterprise SATA drives, RAID-0, 512KB
// stripes; 110-130 MB/s and ~5 ms access each (§2.2, §5.1).
DeviceModel HardDiskArray();

// The paper's SSD array: two OCZ Vertex 2, RAID-0; 285/275 MB/s sequential
// read/write each; SSDs provide many more IOPS per MB/s of sequential
// bandwidth but "severely penalize random writes" (§5.4).
DeviceModel SsdArray();

// Single-device models used by Table 2 (Appendix A).
DeviceModel SataSsd();    // 512 GB, 50K reads/s
DeviceModel PcieSsd();    // 5 TB, 1M reads/s
DeviceModel ServerHdd();  // 300 GB, 500 reads/s
DeviceModel MediaHdd();   // 2 TB, 250 reads/s

}  // namespace blsm

#endif  // BLSM_SIM_DEVICE_MODEL_H_
