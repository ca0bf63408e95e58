#include "net/lldp.hpp"

#include <algorithm>

namespace tmg::net {

namespace {

// TLV type codes (loosely modeled on 802.1AB: type 1 chassis, 2 port,
// 3 TTL, 127 org-specific with a one-byte subtype).
constexpr std::uint8_t kTlvChassis = 1;
constexpr std::uint8_t kTlvPort = 2;
constexpr std::uint8_t kTlvTtl = 3;
constexpr std::uint8_t kTlvOrg = 127;
constexpr std::uint8_t kSubAuth = 0x01;
constexpr std::uint8_t kSubTimestamp = 0x02;

/// Big-endian TLV writer into a buffer sized by LldpPacket::wire_size().
struct Writer {
  std::uint8_t* out;

  void put_u8(std::uint8_t v) { *out++ = v; }

  void put_u16(std::uint16_t v) {
    put_u8(static_cast<std::uint8_t>(v >> 8));
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_u64(std::uint64_t v) {
    for (int i = 7; i >= 0; --i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void put_bytes(std::span<const std::uint8_t> v) {
    out = std::copy(v.begin(), v.end(), out);
  }

  void put_header(std::uint8_t type, std::size_t len) {
    put_u8(type);
    put_u8(static_cast<std::uint8_t>(len));
  }
};

struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  [[nodiscard]] bool done() const { return pos >= data.size(); }

  bool read_tlv(std::uint8_t& type, std::span<const std::uint8_t>& value) {
    if (pos + 2 > data.size()) return false;
    type = data[pos];
    const std::size_t len = data[pos + 1];
    if (pos + 2 + len > data.size()) return false;
    value = data.subspan(pos + 2, len);
    pos += 2 + len;
    return true;
  }
};

std::uint16_t get_u16(std::span<const std::uint8_t> v) {
  return static_cast<std::uint16_t>((v[0] << 8) | v[1]);
}

std::uint64_t get_u64(std::span<const std::uint8_t> v) {
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x = (x << 8) | v[static_cast<std::size_t>(i)];
  return x;
}

}  // namespace

std::array<std::uint8_t, LldpPacket::kCoreLen> LldpPacket::core_bytes() const {
  std::array<std::uint8_t, kCoreLen> out;
  Writer w{out.data()};
  w.put_header(kTlvChassis, 8);
  w.put_u64(chassis_);
  w.put_header(kTlvPort, 2);
  w.put_u16(port_);
  w.put_header(kTlvTtl, 2);
  w.put_u16(ttl_);
  return out;
}

void LldpPacket::sign(const crypto::Key& key) {
  auth_ = crypto::truncated_mac<kAuthLen>(key, core_bytes());
  has_auth_ = true;
}

bool LldpPacket::verify(const crypto::Key& key) const {
  if (!has_auth_) return false;
  const auto expect = crypto::truncated_mac<kAuthLen>(key, core_bytes());
  // Constant-time compare.
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < kAuthLen; ++i) diff |= auth_[i] ^ expect[i];
  return diff == 0;
}

void LldpPacket::tamper_authenticator() {
  // An absent authenticator is all zeros, so this also plants one.
  has_auth_ = true;
  auth_[0] ^= 0xff;
}

void LldpPacket::set_encrypted_timestamp(const crypto::XteaKey& key,
                                         std::uint64_t nonce,
                                         sim::SimTime departure) {
  ts_nonce_ = nonce;
  sealed_ts_ = crypto::seal_u64(
      key, nonce, static_cast<std::uint64_t>(departure.count_nanos()));
  has_ts_ = true;
}

std::optional<sim::SimTime> LldpPacket::decrypt_timestamp(
    const crypto::XteaKey& key) const {
  if (!has_ts_) return std::nullopt;
  std::uint64_t v = 0;
  if (!crypto::open_u64(key, ts_nonce_, sealed_ts_, v)) return std::nullopt;
  return sim::SimTime::from_nanos(static_cast<std::int64_t>(v));
}

void LldpPacket::tamper_timestamp() {
  // An absent sealed timestamp is all zeros, so this also plants one.
  has_ts_ = true;
  sealed_ts_[0] ^= 0xff;
}

std::vector<std::uint8_t> LldpPacket::serialize() const {
  std::vector<std::uint8_t> out(wire_size());
  Writer w{out.data()};
  w.put_bytes(core_bytes());
  if (has_auth_) {
    w.put_header(kTlvOrg, 1 + kAuthLen);
    w.put_u8(kSubAuth);
    w.put_bytes(auth_);
  }
  if (has_ts_) {
    w.put_header(kTlvOrg, 1 + kNonceLen + kSealedLen);
    w.put_u8(kSubTimestamp);
    w.put_u64(ts_nonce_);
    w.put_bytes(sealed_ts_);
  }
  // End-of-LLDPDU marker.
  w.put_header(0, 0);
  return out;
}

std::optional<LldpPacket> LldpPacket::parse(
    std::span<const std::uint8_t> bytes) {
  Reader r{bytes};
  LldpPacket pkt;
  std::uint8_t type = 0;
  std::span<const std::uint8_t> value;
  // 802.1AB: the LLDPDU opens with the chassis ID, port ID and TTL
  // TLVs, in that order, and none of them may repeat later.
  if (!r.read_tlv(type, value) || type != kTlvChassis || value.size() != 8) {
    return std::nullopt;
  }
  pkt.chassis_ = get_u64(value);
  if (!r.read_tlv(type, value) || type != kTlvPort || value.size() != 2) {
    return std::nullopt;
  }
  pkt.port_ = get_u16(value);
  if (!r.read_tlv(type, value) || type != kTlvTtl || value.size() != 2) {
    return std::nullopt;
  }
  pkt.ttl_ = get_u16(value);
  while (!r.done()) {
    if (!r.read_tlv(type, value)) return std::nullopt;
    switch (type) {
      case 0:
        // End of LLDPDU. Whatever follows is Ethernet padding up to the
        // 64-byte minimum frame on a real wire, so it is ignored.
        return pkt;
      case kTlvChassis:
      case kTlvPort:
      case kTlvTtl:
        return std::nullopt;
      case kTlvOrg: {
        if (value.empty()) return std::nullopt;
        const std::uint8_t sub = value[0];
        const auto body = value.subspan(1);
        if (sub == kSubAuth) {
          if (body.size() != kAuthLen) return std::nullopt;
          std::copy(body.begin(), body.end(), pkt.auth_.begin());
          pkt.has_auth_ = true;
        } else if (sub == kSubTimestamp) {
          if (body.size() != kNonceLen + kSealedLen) return std::nullopt;
          pkt.ts_nonce_ = get_u64(body.first(kNonceLen));
          std::copy(body.begin() + kNonceLen, body.end(),
                    pkt.sealed_ts_.begin());
          pkt.has_ts_ = true;
        }
        // Unknown subtypes are skipped (forward compatibility).
        break;
      }
      default:
        // Unknown TLV types are skipped.
        break;
    }
  }
  return std::nullopt;  // missing end marker
}

}  // namespace tmg::net
