#ifndef EDADB_COMMON_CRC32_H_
#define EDADB_COMMON_CRC32_H_

#include <cstdint>
#include <string_view>

namespace edadb {

/// CRC-32C (Castagnoli). Used to checksum write-ahead-log records so torn
/// or corrupted tails are detected on recovery. On x86-64 CPUs with
/// SSE4.2 (checked at run time) it uses the crc32 instruction, 8 bytes
/// per step; elsewhere a byte-at-a-time table. Both give identical values.
uint32_t Crc32c(std::string_view data);

/// Extends a running CRC with more data.
uint32_t Crc32cExtend(uint32_t crc, std::string_view data);

/// The two implementations behind Crc32cExtend, exposed so tests can
/// check them against each other.
namespace crc32c_internal {
uint32_t ExtendTable(uint32_t crc, std::string_view data);
/// True when this CPU has the SSE4.2 crc32 instruction.
bool HardwareAvailable();
/// Requires HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, std::string_view data);
}  // namespace crc32c_internal

/// Masks a CRC so that checksums of data containing embedded CRCs stay
/// well-distributed (same scheme as LevelDB/RocksDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace edadb

#endif  // EDADB_COMMON_CRC32_H_
