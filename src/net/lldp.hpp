// Link Layer Discovery Protocol packets.
//
// The controller's link-discovery service crafts LLDP packets carrying
// the emitting switch's DPID and port. TopoGuard adds an HMAC
// authenticator TLV; TOPOGUARD+ adds an encrypted departure-timestamp
// TLV (paper Sec. VI-D). Packets are (de)serialized to bytes so the
// cryptographic operations run over real wire content.
//
// Every TLV has a fixed size, so a packet holds its optional TLVs in
// fixed arrays with presence flags and computes its wire size by
// arithmetic: copying, signing, verifying and sizing a packet never
// allocate. Absent TLVs stay zeroed, so the defaulted operator== compares
// presence and contents.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "sim/time.hpp"

namespace tmg::net {

/// Switch datapath identifier.
using Dpid = std::uint64_t;
/// Switch-local port number (1-based; 0 is reserved).
using PortNo = std::uint16_t;

class LldpPacket {
 public:
  LldpPacket() = default;
  LldpPacket(Dpid chassis, PortNo port, std::uint16_t ttl_seconds = 120)
      : chassis_{chassis}, port_{port}, ttl_{ttl_seconds} {}

  [[nodiscard]] Dpid chassis_id() const { return chassis_; }
  [[nodiscard]] PortNo port_id() const { return port_; }
  [[nodiscard]] std::uint16_t ttl() const { return ttl_; }

  // --- Authenticator TLV (TopoGuard) ---

  /// Sign the core TLVs (chassis/port/ttl) with a truncated HMAC-SHA256.
  void sign(const crypto::Key& key);

  /// Verify the authenticator. False if absent or mismatched.
  [[nodiscard]] bool verify(const crypto::Key& key) const;

  [[nodiscard]] bool has_authenticator() const { return has_auth_; }

  /// Corrupt the authenticator (attack modeling / negative tests).
  void tamper_authenticator();

  // --- Encrypted timestamp TLV (TOPOGUARD+ LLI) ---

  /// Seal the departure time under the controller's key. `nonce` must be
  /// unique per packet.
  void set_encrypted_timestamp(const crypto::XteaKey& key,
                               std::uint64_t nonce, sim::SimTime departure);

  /// Decrypt the departure timestamp. nullopt if the TLV is absent.
  [[nodiscard]] std::optional<sim::SimTime> decrypt_timestamp(
      const crypto::XteaKey& key) const;

  [[nodiscard]] bool has_timestamp() const { return has_ts_; }

  /// Overwrite the sealed timestamp bytes (attacker tampering; the value
  /// decrypts to garbage, which the LLI flags as an implausible latency).
  void tamper_timestamp();

  // --- Wire format ---

  /// Serialize the full packet (core + present optional TLVs).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// serialize().size(), by arithmetic.
  [[nodiscard]] std::size_t wire_size() const {
    constexpr std::size_t kOrgHeader = 3;  // type, length, subtype
    constexpr std::size_t kEnd = 2;
    return kCoreLen + (has_auth_ ? kOrgHeader + kAuthLen : 0) +
           (has_ts_ ? kOrgHeader + kNonceLen + kSealedLen : 0) + kEnd;
  }

  /// Parse from bytes: chassis ID, port ID and TTL first, in that order
  /// and once each, then optional TLVs up to the End TLV; bytes after
  /// it are padding. nullopt on malformed input.
  static std::optional<LldpPacket> parse(std::span<const std::uint8_t> bytes);

  bool operator==(const LldpPacket&) const = default;

 private:
  /// Authenticator TLV payload: a truncated HMAC-SHA256.
  static constexpr std::size_t kAuthLen = 16;
  /// Sealed timestamp TLV payload: an XTEA-CTR ciphertext of a u64.
  static constexpr std::size_t kSealedLen = 8;
  /// Sealed timestamp TLV: the CTR nonce that precedes the ciphertext.
  static constexpr std::size_t kNonceLen = 8;
  /// Chassis (2+8), port (2+2) and TTL (2+2) TLVs.
  static constexpr std::size_t kCoreLen = 18;

  /// The byte string covered by the authenticator.
  [[nodiscard]] std::array<std::uint8_t, kCoreLen> core_bytes() const;

  Dpid chassis_ = 0;
  PortNo port_ = 0;
  std::uint16_t ttl_ = 120;
  bool has_auth_ = false;
  bool has_ts_ = false;
  std::array<std::uint8_t, kAuthLen> auth_{};        // truncated HMAC
  std::uint64_t ts_nonce_ = 0;                       // CTR nonce
  std::array<std::uint8_t, kSealedLen> sealed_ts_{};  // XTEA-CTR ciphertext
};

}  // namespace tmg::net
