// Internal: the two AES backends behind crypto::Aes and the sector ciphers.
//
// The software backend is the FIPS-197 T-table reference (crypto/aes.cpp).
// The hardware backend runs the host's AES instructions (crypto/aes_ni.cpp,
// x86 AES-NI) and interleaves independent blocks to hide their latency.
// The process picks one at first use, by CPUID, and never switches; there
// is deliberately no knob to choose. Tests reach both directly through this
// header (the kernels, and sector ciphers bound to one backend) to check
// that they compute the same bytes.
//
// Every kernel is in-place safe (in == out) and takes unaligned buffers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/aes.hpp"

namespace mobiceal::crypto::detail {

/// ECB over `blocks` 16-byte blocks.
using BlockKernel = void (*)(const AesSchedule& ks, const std::uint8_t* in,
                             std::uint8_t* out, std::size_t blocks);

/// `units` independent data units of `len` bytes (a multiple of 16) laid
/// end to end; unit u starts from the 16-byte value at `starts + 16 u`.
using UnitKernel = void (*)(const AesSchedule& ks, const std::uint8_t* starts,
                            std::size_t units, std::size_t len,
                            const std::uint8_t* in, std::uint8_t* out);

struct AesBackend {
  const char* name;
  BlockKernel ecb_encrypt;
  BlockKernel ecb_decrypt;
  /// CBC chains; a unit's start value is its IV.
  UnitKernel cbc_encrypt;
  UnitKernel cbc_decrypt;
  /// XTS data units (IEEE 1619); a unit's start value is its tweak,
  /// already encrypted under the tweak key.
  UnitKernel xts_encrypt;
  UnitKernel xts_decrypt;
};

/// The T-table reference; always available.
const AesBackend& software_backend() noexcept;

/// The AES-instruction backend, or null when this build or CPU has none.
const AesBackend* hardware_backend() noexcept;

/// What this process uses: the hardware backend when there is one.
const AesBackend& active_backend() noexcept;

}  // namespace mobiceal::crypto::detail
