// HMAC-SHA256 (RFC 2104).
//
// TopoGuard authenticates controller-emitted LLDP packets with a keyed
// MAC so that end-hosts cannot forge LLDP contents (they can still relay
// intact packets, which is exactly what the port-amnesia attacks exploit).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace tmg::crypto {

/// A symmetric key held by the controller.
///
/// The HMAC inner and outer midstates (SHA-256 contexts that have
/// absorbed the ipad and opad key blocks) are computed once here, so a
/// MAC over a short message costs two compression blocks instead of four.
/// A key is immutable after construction, which keeps the midstates
/// consistent with bytes().
class Key {
 public:
  /// Keys longer than the 64-byte SHA-256 block are hashed first
  /// (RFC 2104), here rather than on every MAC.
  explicit Key(std::span<const std::uint8_t> bytes);

  /// Derive a key deterministically from a seed label (test fixtures and
  /// scenario setup; production code would use a CSPRNG).
  static Key derive(std::span<const std::uint8_t> seed);

  /// The raw key bytes, as given to the constructor.
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  friend Digest256 hmac_sha256(const Key& key,
                               std::span<const std::uint8_t> data);

  std::vector<std::uint8_t> bytes_;
  Sha256 inner_;  // has absorbed K ^ ipad
  Sha256 outer_;  // has absorbed K ^ opad
};

/// HMAC-SHA256 of `data` under `key`.
Digest256 hmac_sha256(const Key& key, std::span<const std::uint8_t> data);

/// Constant-time comparison of two digests.
bool digest_equal(const Digest256& a, const Digest256& b);

/// Truncated MAC (first `N` bytes of the HMAC), as carried in the LLDP
/// authenticator TLV.
template <std::size_t N>
std::array<std::uint8_t, N> truncated_mac(const Key& key,
                                          std::span<const std::uint8_t> data) {
  static_assert(N <= std::tuple_size_v<Digest256>);
  const Digest256 d = hmac_sha256(key, data);
  std::array<std::uint8_t, N> out;
  std::copy_n(d.begin(), N, out.begin());
  return out;
}

}  // namespace tmg::crypto
