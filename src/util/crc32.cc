#include "util/crc32.h"

namespace verso {

namespace {

/// Slicing-by-8 tables: table[0] is the classic bytewise table of the
/// reflected polynomial, and table[k][b] is the CRC of byte b followed by
/// k zero bytes, so one step folds eight input bytes with eight lookups.
struct Crc32Tables {
  uint32_t table[8][256] = {};

  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = table[k - 1][i];
        table[k][i] = (prev >> 8) ^ table[0][prev & 0xffu];
      }
    }
  }
};

constexpr Crc32Tables kTables;

/// Little-endian load, whatever the host's byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const void* data, size_t length) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kTables.table;
  uint32_t c = crc ^ 0xffffffffu;
  for (; length >= 8; bytes += 8, length -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ c;
    const uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; length > 0; ++bytes, --length) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(const void* data, size_t length) {
  return Crc32Extend(0, data, length);
}

}  // namespace verso
