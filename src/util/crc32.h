#ifndef VERSO_UTIL_CRC32_H_
#define VERSO_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace verso {

/// CRC-32 (IEEE 802.3 polynomial, reflected), computed eight bytes per
/// step (slicing-by-8). Used to protect WAL frames — and the store files
/// framed the same way — against torn writes and bit rot.
uint32_t Crc32(const void* data, size_t length);

/// Incremental variant: feed `crc` from a previous call (start with 0).
uint32_t Crc32Extend(uint32_t crc, const void* data, size_t length);

}  // namespace verso

#endif  // VERSO_UTIL_CRC32_H_
