// Regenerates Table 2 (Appendix A): GiB of RAM needed to cache B-tree
// bottom-level index entries — read amplification of one — per storage
// device, as a function of how hot the data is (five-minute-rule variant).
// Also prints the Appendix A.1 read-fanout computation and the Bloom-filter
// memory overhead estimate.
//
// Output: BENCH_table2_ram_requirements.json, one row per printed table row
// with one field per device, keyed ssd_model_<name> or hdd_model_<name>.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>

#include "harness.h"
#include "sim/ram_requirements.h"

namespace {

// "SATA SSD" -> "ssd_model_sata", "Server HDD" -> "hdd_model_server".
std::string DeviceKey(const std::string& name) {
  std::string kind = name.find("SSD") != std::string::npos ? "ssd" : "hdd";
  std::string rest;
  for (char c : name.substr(0, name.rfind(' '))) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      rest += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return kind + "_model_" + rest;
}

}  // namespace

int main() {
  using namespace blsm;
  using namespace blsm::bench;

  printf("Table 2 reproduction: RAM required to cache B-Tree nodes\n");
  printf("(100 byte keys, 1000 byte values, 4096 byte pages)\n\n");

  RamCalcParams params;
  auto devices = Table2Devices();
  JsonReport report("table2_ram_requirements");

  printf("%-14s", "");
  for (const auto& dev : devices) printf("%14s", dev.name.c_str());
  printf("\n%-14s", "Capacity (GB)");
  auto& capacity = report.AddRow().Str("row", "Capacity (GB)");
  for (const auto& dev : devices) {
    printf("%14.0f", dev.capacity_bytes / 1e9);
    capacity.Num(DeviceKey(dev.name), dev.capacity_bytes / 1e9);
  }
  printf("\n%-14s", "Reads/second");
  auto& reads = report.AddRow().Str("row", "Reads/second");
  for (const auto& dev : devices) {
    printf("%14.0f", dev.reads_per_second);
    reads.Num(DeviceKey(dev.name), dev.reads_per_second);
  }
  printf("\n\n%-14s%s\n", "Access freq.",
         "  GB of B-Tree index cache per drive");

  // RAM rows: GiB per drive; null where the device cannot serve the rate.
  for (const auto& [label, seconds] : Table2Periods()) {
    printf("%-14s", label.c_str());
    auto& row = report.AddRow().Str("row", label).Num("period_seconds",
                                                       seconds);
    for (const auto& dev : devices) {
      auto gib = RamGiBForPeriod(dev, seconds, params);
      if (gib.has_value()) {
        printf("%14.3f", *gib);
      } else {
        printf("%14s", "-");
      }
      row.Num(DeviceKey(dev.name), gib.value_or(NAN));
    }
    printf("\n");
  }
  printf("%-14s", "Full disk");
  auto& full = report.AddRow().Str("row", "Full disk");
  for (const auto& dev : devices) {
    printf("%14.2f", RamGiBFullDisk(dev, params));
    full.Num(DeviceKey(dev.name), RamGiBFullDisk(dev, params));
  }
  printf("\n");

  printf("\nAppendix A.1: read fanout ~= page/(key+pointer) = %.1f\n",
         ReadFanout(params));
  printf("Bloom filter overhead at 10 bits/key: %.1f%% of the index cache\n",
         100.0 * BloomOverheadFraction(params, 10.0));
  printf("(paper: 4 * 1.25 = 5%%)\n");
  report.AddRow()
      .Str("row", "Appendix A.1")
      .Num("read_fanout", ReadFanout(params))
      .Num("bloom_overhead_fraction", BloomOverheadFraction(params, 10.0));
  return 0;
}
