#include "net/crc32c.hpp"

#include <array>

namespace gpa::net {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, bit-reflected

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// t[0] is the bytewise table; t[s][b] is the CRC contribution of byte
/// b followed by s zero bytes, so eight lookups fold one 8-byte word.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (kPoly & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[s][b] = (t[s - 1][b] >> 8) ^ t[0][t[s - 1][b] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 8-byte load, independent of host byte order.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

}  // namespace

namespace detail {

#if defined(GPA_CRC32C_SSE42)
std::uint32_t crc32c_sse42(std::uint32_t crc, const std::uint8_t* data, std::size_t n);
#endif

std::uint32_t crc32c_portable(std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    const std::uint64_t w = load_le64(data) ^ c;
    c = kTables[7][w & 0xffu] ^ kTables[6][(w >> 8) & 0xffu] ^ kTables[5][(w >> 16) & 0xffu] ^
        kTables[4][(w >> 24) & 0xffu] ^ kTables[3][(w >> 32) & 0xffu] ^
        kTables[2][(w >> 40) & 0xffu] ^ kTables[1][(w >> 48) & 0xffu] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++data, --n) c = (c >> 8) ^ kTables[0][(c ^ *data) & 0xffu];
  return ~c;
}

bool crc32c_hardware() noexcept {
#if defined(GPA_CRC32C_SSE42)
  static const bool hw = __builtin_cpu_supports("sse4.2") != 0;
  return hw;
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32c_extend(std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
#if defined(GPA_CRC32C_SSE42)
  if (detail::crc32c_hardware()) return detail::crc32c_sse42(crc, data, n);
#endif
  return detail::crc32c_portable(crc, data, n);
}

}  // namespace gpa::net
