#include "common/crc32.h"

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define EDADB_CRC32C_SSE42 1
#else
#define EDADB_CRC32C_SSE42 0
#endif

namespace edadb {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // Reflected Castagnoli.

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if EDADB_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes exactly this polynomial over the
// same (pre-inverted) register. Compiled for SSE4.2 by attribute only, so
// the rest of the build keeps its baseline target; callers reach it only
// after the run-time CPU check below.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const char* p,
                                                       size_t n) {
  uint64_t state = ~crc;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    state = _mm_crc32_u8(static_cast<uint32_t>(state),
                         static_cast<uint8_t>(*p++));
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    state = _mm_crc32_u8(static_cast<uint32_t>(state),
                         static_cast<uint8_t>(*p++));
    --n;
  }
  return ~static_cast<uint32_t>(state);
}
#endif

}  // namespace

namespace crc32c_internal {

uint32_t ExtendTable(uint32_t crc, std::string_view data) {
  const auto& table = Table();
  crc = ~crc;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<uint8_t>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

bool HardwareAvailable() {
#if EDADB_CRC32C_SSE42
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

uint32_t ExtendHardware(uint32_t crc, std::string_view data) {
#if EDADB_CRC32C_SSE42
  return ExtendSse42(crc, data.data(), data.size());
#else
  (void)data;
  return crc;
#endif
}

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, std::string_view data) {
  if (crc32c_internal::HardwareAvailable()) {
    return crc32c_internal::ExtendHardware(crc, data);
  }
  return crc32c_internal::ExtendTable(crc, data);
}

uint32_t Crc32c(std::string_view data) { return Crc32cExtend(0, data); }

}  // namespace edadb
