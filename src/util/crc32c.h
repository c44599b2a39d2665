#ifndef BLSM_UTIL_CRC32C_H_
#define BLSM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace blsm::crc32c {

// Returns the CRC32C (Castagnoli) of data[0, n-1] continuing from `init_crc`,
// where init_crc is the CRC32C of an earlier prefix. Uses the SSE4.2 crc32
// instruction when the CPU has it and the table routine otherwise; both give
// identical values.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// The portable table routine, one byte per step: the fallback on CPUs
// without SSE4.2 and the reference that Extend is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

// True when Extend runs on the hardware instruction.
bool IsAccelerated();

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Stored CRCs are masked so that computing the CRC of a string that embeds a
// CRC does not degenerate (same scheme as LevelDB / RocksDB logs).
static const uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace blsm::crc32c

#endif  // BLSM_UTIL_CRC32C_H_
