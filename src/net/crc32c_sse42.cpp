// SSE4.2 arm of CRC32C: the `crc32` instruction implements exactly the
// Castagnoli polynomial, eight bytes per instruction. This is the only
// TU built with -msse4.2; crc32c.cpp calls it only after cpuid confirms
// the instruction exists.
//
// The instruction has a latency of three cycles but issues one per
// cycle, so one dependent chain runs at a third of its throughput.
// Long buffers run three independent chains over three adjacent blocks
// and join them: the register after a‖b, starting from state s, is
// shift(register after a, |b|) ^ (register over b from 0), because a
// CRC register is linear over GF(2) and appending |b| zero bytes is a
// fixed 32×32 bit matrix. Those matrices, for the two block sizes, are
// built at compile time as byte tables (Adler's crc32c.c scheme, no
// carry-less multiply needed).

#include <nmmintrin.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gpa::net::detail {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, bit-reflected

/// Bytes each of the three chains covers per block, long then short.
constexpr std::size_t kLong = 8192;
constexpr std::size_t kShort = 256;

using Gf2Matrix = std::array<std::uint32_t, 32>;  ///< column n = image of bit n

constexpr std::uint32_t gf2_times(const Gf2Matrix& mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (std::size_t n = 0; vec != 0; vec >>= 1, ++n) {
    if ((vec & 1u) != 0) sum ^= mat[n];
  }
  return sum;
}

constexpr Gf2Matrix gf2_square(const Gf2Matrix& mat) {
  Gf2Matrix sq{};
  for (std::size_t n = 0; n < 32; ++n) sq[n] = gf2_times(mat, mat[n]);
  return sq;
}

/// The operator that appends `bytes` zero bytes (a power of two) to a
/// CRC register: the one-zero-bit operator squared 3 + log2(bytes)
/// times.
constexpr Gf2Matrix zeros_operator(std::size_t bytes) {
  Gf2Matrix op{};
  op[0] = kPoly;
  for (std::size_t n = 1; n < 32; ++n) op[n] = 1u << (n - 1);
  for (std::size_t bits = 1; bits < 8 * bytes; bits *= 2) op = gf2_square(op);
  return op;
}

/// zeros_operator(bytes) as four byte-indexed tables, so applying it
/// costs four lookups.
using ShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTables shift_tables(std::size_t bytes) {
  const Gf2Matrix op = zeros_operator(bytes);
  ShiftTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (std::size_t s = 0; s < 4; ++s) t[s][b] = gf2_times(op, b << (8 * s));
  }
  return t;
}

constexpr ShiftTables kShiftLong = shift_tables(kLong);
constexpr ShiftTables kShiftShort = shift_tables(kShort);

std::uint64_t shift(const ShiftTables& t, std::uint64_t crc) {
  return t[0][crc & 0xffu] ^ t[1][(crc >> 8) & 0xffu] ^ t[2][(crc >> 16) & 0xffu] ^
         t[3][(crc >> 24) & 0xffu];
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));  // the instruction reads the word little-endian
  return w;
}

/// Folds 3 × `block` bytes from `data` into c0 on three chains.
template <std::size_t block>
std::uint64_t three_blocks(std::uint64_t c0, const std::uint8_t* data, const ShiftTables& t) {
  std::uint64_t c1 = 0, c2 = 0;
  for (std::size_t at = 0; at < block; at += 8) {
    c0 = _mm_crc32_u64(c0, load64(data + at));
    c1 = _mm_crc32_u64(c1, load64(data + block + at));
    c2 = _mm_crc32_u64(c2, load64(data + 2 * block + at));
  }
  return shift(t, shift(t, c0) ^ c1) ^ c2;
}

}  // namespace

std::uint32_t crc32c_sse42(std::uint32_t crc, const std::uint8_t* data, std::size_t n) {
  std::uint64_t c = ~crc;
  for (; n >= 3 * kLong; data += 3 * kLong, n -= 3 * kLong) {
    c = three_blocks<kLong>(c, data, kShiftLong);
  }
  for (; n >= 3 * kShort; data += 3 * kShort, n -= 3 * kShort) {
    c = three_blocks<kShort>(c, data, kShiftShort);
  }
  for (; n >= 8; data += 8, n -= 8) c = _mm_crc32_u64(c, load64(data));
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++data, --n) c32 = _mm_crc32_u8(c32, *data);
  return ~c32;
}

}  // namespace gpa::net::detail
