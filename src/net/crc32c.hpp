#pragma once
// CRC32C (Castagnoli): the frame checksum. Reflected polynomial
// 0x82F63B78, init and xorout 0xFFFFFFFF — the iSCSI / ext4 / SSE4.2
// `crc32` instruction variant, so "123456789" hashes to 0xE3069283.
//
// Two arms compute identical values: the SSE4.2 `crc32` instruction
// (crc32c_sse42.cpp, the only TU built with -msse4.2) and a portable
// slicing-by-8 table. crc32c_extend picks the hardware arm by cpuid
// once per process; there is no override.

#include <cstddef>
#include <cstdint>

namespace gpa::net {

/// Extends a finished CRC32C over n more bytes and returns the finished
/// CRC of the concatenation: crc32c_extend(crc32c_extend(0, a), b) is
/// the CRC of a‖b, and crc32c_extend(0, data, n) is the CRC of one
/// buffer.
std::uint32_t crc32c_extend(std::uint32_t crc, const std::uint8_t* data, std::size_t n);

namespace detail {

/// The slicing-by-8 arm: what crc32c_extend runs on CPUs without
/// SSE4.2, and the reference the hardware arm is tested against.
std::uint32_t crc32c_portable(std::uint32_t crc, const std::uint8_t* data, std::size_t n);

/// True when crc32c_extend runs the SSE4.2 arm (compiled in and
/// reported by cpuid).
bool crc32c_hardware() noexcept;

}  // namespace detail

}  // namespace gpa::net
