#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BLSM_CRC32C_SSE42 1
#endif

namespace blsm::crc32c {

namespace {

// Table-driven CRC32C, one byte at a time with a 256-entry table generated at
// static-init time via constexpr (trivially destructible, per style rules).
constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli polynomial

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#ifdef BLSM_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes the same reflected Castagnoli CRC,
// eight bytes per step. Loads go through memcpy, so any alignment is safe.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; data++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// Constant-initialised to the portable routine, so a checksum taken by
// another translation unit's static initialiser before the probe below runs
// is still correct. Written once during static initialisation, before any
// thread starts; read-only afterwards.
ExtendFn extend_impl = ExtendPortable;

[[maybe_unused]] const bool kProbed = [] {
#ifdef BLSM_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) extend_impl = ExtendSse42;
#endif
  return true;
}();

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return extend_impl(init_crc, data, n);
}

bool IsAccelerated() { return extend_impl != ExtendPortable; }

}  // namespace blsm::crc32c
