// XTEA block cipher in CTR mode.
//
// TOPOGUARD+'s Link Latency Inspector embeds the LLDP departure time in
// an *encrypted* timestamp TLV so that relaying hosts can neither read
// nor rewrite it. XTEA-CTR is small, has no external dependencies, and
// its per-64-bit-block cost is representative of the "LLDP construction"
// overhead the paper measures in Table II.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace tmg::crypto {

/// 128-bit XTEA key.
struct XteaKey {
  std::array<std::uint32_t, 4> words{};

  /// Derive from arbitrary bytes via SHA-256 (first 16 bytes).
  static XteaKey derive(std::span<const std::uint8_t> seed);
};

/// Encrypt one 64-bit block (32 rounds).
std::uint64_t xtea_encrypt_block(const XteaKey& key, std::uint64_t block);

/// Decrypt one 64-bit block.
std::uint64_t xtea_decrypt_block(const XteaKey& key, std::uint64_t block);

/// CTR-mode keystream XOR: encrypt == decrypt. `nonce` selects the
/// keystream; reusing a (key, nonce) pair leaks plaintext XORs, so the
/// LLI uses a per-packet nonce.
void xtea_ctr_apply(const XteaKey& key, std::uint64_t nonce,
                    std::span<std::uint8_t> data);

/// Convenience: encrypt a 64-bit timestamp with an authenticating tag is
/// handled at the TLV layer; this seals just the value (big-endian).
std::array<std::uint8_t, 8> seal_u64(const XteaKey& key, std::uint64_t nonce,
                                     std::uint64_t value);

/// Inverse of seal_u64. Returns false if `sealed` has the wrong size.
bool open_u64(const XteaKey& key, std::uint64_t nonce,
              std::span<const std::uint8_t> sealed, std::uint64_t& value_out);

}  // namespace tmg::crypto
