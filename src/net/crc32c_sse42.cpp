// SSE4.2 arm of CRC32C: the `crc32` instruction implements exactly the
// Castagnoli polynomial, eight bytes per instruction. This is the only
// TU built with -msse4.2; crc32c.cpp calls it only after cpuid confirms
// the instruction exists.

#include <nmmintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gpa::net::detail {

std::uint32_t crc32c_sse42(std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
  std::uint64_t c = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, data, sizeof(w));  // the instruction reads the word little-endian
    c = _mm_crc32_u64(c, w);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++data, --n) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}

}  // namespace gpa::net::detail
