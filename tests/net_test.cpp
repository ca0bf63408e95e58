// Unit tests for the network model: addresses, packets, LLDP.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "net/lldp.hpp"
#include "net/packet.hpp"

namespace tmg::net {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---------------- MacAddress ----------------

TEST(MacAddress, ParseAndFormatRoundTrip) {
  const auto m = MacAddress::parse("aa:bb:cc:dd:ee:ff");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to_string(), "aa:bb:cc:dd:ee:ff");
}

TEST(MacAddress, ParseUppercase) {
  const auto m = MacAddress::parse("AA:BB:CC:00:11:22");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->to_string(), "aa:bb:cc:00:11:22");
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::parse("").has_value());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee").has_value());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee:f").has_value());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee:fff").has_value());
  EXPECT_FALSE(MacAddress::parse("gg:bb:cc:dd:ee:ff").has_value());
  EXPECT_FALSE(MacAddress::parse("aa-bb-cc-dd-ee-ff").has_value());
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_TRUE(MacAddress::lldp_multicast().is_multicast());
  EXPECT_FALSE(MacAddress::lldp_multicast().is_broadcast());
  EXPECT_FALSE(MacAddress::host(1).is_multicast());
}

TEST(MacAddress, HostAddressesAreDistinct) {
  EXPECT_NE(MacAddress::host(1), MacAddress::host(2));
  EXPECT_EQ(MacAddress::host(7), MacAddress::host(7));
}

TEST(MacAddress, U64AndHash) {
  const auto m = *MacAddress::parse("00:00:00:00:01:02");
  EXPECT_EQ(m.to_u64(), 0x0102u);
  EXPECT_EQ(std::hash<MacAddress>{}(m), std::hash<MacAddress>{}(m));
}

// ---------------- Ipv4Address ----------------

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  const auto a = Ipv4Address::parse("10.0.0.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.0.1");
  EXPECT_EQ(*a, Ipv4Address(10, 0, 0, 1));
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..0.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.0.0.x").has_value());
}

TEST(Ipv4Address, SameSubnet) {
  const Ipv4Address a{10, 0, 0, 1};
  const Ipv4Address b{10, 0, 0, 200};
  const Ipv4Address c{10, 0, 1, 1};
  EXPECT_TRUE(a.same_subnet(b, 24));
  EXPECT_FALSE(a.same_subnet(c, 24));
  EXPECT_TRUE(a.same_subnet(c, 16));
  EXPECT_TRUE(a.same_subnet(c, 0));
}

TEST(Ipv4Address, HostFactory) {
  EXPECT_EQ(Ipv4Address::host(1).to_string(), "10.0.0.1");
  EXPECT_EQ(Ipv4Address::host(258).to_string(), "10.0.1.2");
}

// ---------------- Packet constructors ----------------

TEST(Packet, ArpRequestShape) {
  const Packet p = make_arp_request(MacAddress::host(1),
                                    Ipv4Address::host(1),
                                    Ipv4Address::host(2));
  EXPECT_EQ(p.ethertype, EtherType::Arp);
  EXPECT_TRUE(p.dst_mac.is_broadcast());
  ASSERT_NE(p.arp(), nullptr);
  EXPECT_EQ(p.arp()->op, ArpPayload::Op::Request);
  EXPECT_EQ(p.arp()->target_ip, Ipv4Address::host(2));
  EXPECT_FALSE(p.ip.has_value());
}

TEST(Packet, ArpReplyShape) {
  const Packet p =
      make_arp_reply(MacAddress::host(2), Ipv4Address::host(2),
                     MacAddress::host(1), Ipv4Address::host(1));
  ASSERT_NE(p.arp(), nullptr);
  EXPECT_EQ(p.arp()->op, ArpPayload::Op::Reply);
  EXPECT_EQ(p.dst_mac, MacAddress::host(1));
}

TEST(Packet, IcmpEchoShape) {
  const Packet p = make_icmp_echo(MacAddress::host(1), Ipv4Address::host(1),
                                  MacAddress::host(2), Ipv4Address::host(2),
                                  7, 3);
  ASSERT_NE(p.icmp(), nullptr);
  EXPECT_EQ(p.icmp()->type, IcmpPayload::Type::EchoRequest);
  EXPECT_EQ(p.icmp()->ident, 7);
  ASSERT_TRUE(p.ip.has_value());
  EXPECT_EQ(p.ip->protocol, IpProto::Icmp);
}

TEST(Packet, TcpShapeAndFlags) {
  const Packet p = make_tcp(MacAddress::host(1), Ipv4Address::host(1),
                            MacAddress::host(2), Ipv4Address::host(2), 40000,
                            80, TcpFlags{.syn = true}, 0);
  ASSERT_NE(p.tcp(), nullptr);
  EXPECT_TRUE(p.tcp()->flags.syn);
  EXPECT_FALSE(p.tcp()->flags.ack);
  EXPECT_EQ(p.tcp()->flags.to_string(), "S");
  EXPECT_EQ((TcpFlags{.syn = true, .ack = true}.to_string()), "SA");
  EXPECT_EQ(TcpFlags{}.to_string(), "-");
}

TEST(Packet, TraceIdsAreUnique) {
  const Packet a = make_arp_request(MacAddress::host(1),
                                    Ipv4Address::host(1),
                                    Ipv4Address::host(2));
  const Packet b = make_arp_request(MacAddress::host(1),
                                    Ipv4Address::host(1),
                                    Ipv4Address::host(2));
  EXPECT_NE(a.trace_id, b.trace_id);
}

TEST(Packet, WireSizeRespectsEthernetMinimum) {
  const Packet p = make_arp_request(MacAddress::host(1),
                                    Ipv4Address::host(1),
                                    Ipv4Address::host(2));
  EXPECT_GE(p.wire_size(), 64u);
}

TEST(Packet, WireSizeGrowsWithPayload) {
  const Packet small = make_raw(MacAddress::host(1), Ipv4Address::host(1),
                                MacAddress::host(2), Ipv4Address::host(2),
                                "x", 10);
  const Packet big = make_raw(MacAddress::host(1), Ipv4Address::host(1),
                              MacAddress::host(2), Ipv4Address::host(2),
                              "x", 1000);
  EXPECT_GT(big.wire_size(), small.wire_size());
  EXPECT_EQ(big.wire_size(), 14u + 20u + 1000u);
}

TEST(Packet, DescribeMentionsKeyFields) {
  const Packet p = make_icmp_echo(MacAddress::host(1), Ipv4Address::host(1),
                                  MacAddress::host(2), Ipv4Address::host(2),
                                  7, 3);
  const std::string d = p.describe();
  EXPECT_NE(d.find("ICMP"), std::string::npos);
  EXPECT_NE(d.find("10.0.0.1"), std::string::npos);
}

// ---------------- LLDP ----------------

TEST(Lldp, SerializeParseRoundTrip) {
  const LldpPacket in{0x1234, 7, 120};
  const auto parsed = LldpPacket::parse(in.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, in);
}

TEST(Lldp, ParseRejectsTruncated) {
  const auto bytes = LldpPacket{0x1, 1}.serialize();
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    const auto parsed = LldpPacket::parse(
        std::span<const std::uint8_t>(bytes.data(), bytes.size() - cut));
    EXPECT_FALSE(parsed.has_value()) << "cut=" << cut;
  }
}

TEST(Lldp, ParseRejectsEmpty) {
  EXPECT_FALSE(LldpPacket::parse({}).has_value());
}

namespace {

/// The wire bytes of `pkt` with `tlv` inserted just before the End TLV.
std::vector<std::uint8_t> splice_before_end(const LldpPacket& pkt,
                                            std::vector<std::uint8_t> tlv) {
  auto bytes = pkt.serialize();
  bytes.insert(bytes.end() - 2, tlv.begin(), tlv.end());
  return bytes;
}

}  // namespace

TEST(Lldp, ParseRejectsRepeatedChassisBeforeEnd) {
  // A genuine signed frame with a second chassis TLV {0xCD} spliced in
  // front of its end marker and junk after it. Accepting it would let
  // the last chassis win, so an unauthenticated suite would read 0xCD.
  const crypto::Key key = crypto::Key::derive(bytes_of("ctl"));
  LldpPacket genuine{0xAB, 3};
  genuine.sign(key);
  auto bytes = splice_before_end(
      genuine, {1, 8, 0, 0, 0, 0, 0, 0, 0, 0xCD});
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  EXPECT_FALSE(LldpPacket::parse(bytes).has_value());
}

TEST(Lldp, ParseRejectsDuplicateTtl) {
  const auto bytes = splice_before_end(LldpPacket{0xAB, 3}, {3, 2, 0, 9});
  EXPECT_FALSE(LldpPacket::parse(bytes).has_value());
}

TEST(Lldp, ParseRejectsOutOfOrderMandatoryTlvs) {
  // Port ID before chassis ID: same TLVs, wrong order.
  auto bytes = LldpPacket{0xAB, 3}.serialize();
  std::vector<std::uint8_t> swapped(bytes.begin() + 10, bytes.begin() + 14);
  swapped.insert(swapped.end(), bytes.begin(), bytes.begin() + 10);
  std::copy(swapped.begin(), swapped.end(), bytes.begin());
  EXPECT_EQ(bytes[0], 2);  // port TLV now leads
  EXPECT_FALSE(LldpPacket::parse(bytes).has_value());
  // An org TLV ahead of the mandatory three is out of order too.
  LldpPacket signed_pkt{0xAB, 3};
  signed_pkt.sign(crypto::Key::derive(bytes_of("ctl")));
  const auto s = signed_pkt.serialize();
  std::vector<std::uint8_t> org_first(s.begin() + 18, s.end() - 2);
  org_first.insert(org_first.end(), s.begin(), s.begin() + 18);
  org_first.insert(org_first.end(), {0, 0});
  EXPECT_FALSE(LldpPacket::parse(org_first).has_value());
}

TEST(Lldp, ParseIgnoresPaddingAfterEnd) {
  // Bytes after the End TLV are Ethernet padding on a real wire.
  const LldpPacket in{0x1234, 7, 120};
  auto bytes = in.serialize();
  bytes.insert(bytes.end(), {0, 0, 0, 0, 0xff, 1, 8});
  const auto parsed = LldpPacket::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, in);
}

TEST(Lldp, SignVerify) {
  const crypto::Key key = crypto::Key::derive(bytes_of("ctl"));
  LldpPacket p{0xAB, 3};
  EXPECT_FALSE(p.has_authenticator());
  EXPECT_FALSE(p.verify(key));
  p.sign(key);
  EXPECT_TRUE(p.has_authenticator());
  EXPECT_TRUE(p.verify(key));
}

TEST(Lldp, VerifyFailsWithWrongKey) {
  LldpPacket p{0xAB, 3};
  p.sign(crypto::Key::derive(bytes_of("right")));
  EXPECT_FALSE(p.verify(crypto::Key::derive(bytes_of("wrong"))));
}

TEST(Lldp, TamperedAuthenticatorFailsVerification) {
  const crypto::Key key = crypto::Key::derive(bytes_of("ctl"));
  LldpPacket p{0xAB, 3};
  p.sign(key);
  p.tamper_authenticator();
  EXPECT_FALSE(p.verify(key));
}

TEST(Lldp, SignatureSurvivesSerialization) {
  // The relay attack depends on this: a bit-exact relayed packet still
  // verifies, because the attacker never modifies it.
  const crypto::Key key = crypto::Key::derive(bytes_of("ctl"));
  LldpPacket p{0xAB, 3};
  p.sign(key);
  const auto relayed = LldpPacket::parse(p.serialize());
  ASSERT_TRUE(relayed.has_value());
  EXPECT_TRUE(relayed->verify(key));
}

TEST(Lldp, ForgedContentsFailVerification) {
  // An attacker cannot craft a *new* chassis/port with a valid MAC.
  const crypto::Key key = crypto::Key::derive(bytes_of("ctl"));
  LldpPacket genuine{0xAB, 3};
  genuine.sign(key);
  // Splice the genuine authenticator onto different core TLVs: rewrite
  // the chassis TLV's value (bytes 2..9) of the genuine frame.
  auto bytes = genuine.serialize();
  bytes[9] ^= 0x66;  // chassis 0xAB -> 0xCD
  const auto forged = LldpPacket::parse(bytes);
  ASSERT_TRUE(forged.has_value());
  EXPECT_EQ(forged->chassis_id(), 0xCDu);
  EXPECT_TRUE(forged->has_authenticator());
  EXPECT_FALSE(forged->verify(key));
  // A constructed authenticator fails too.
  LldpPacket constructed{0xCD, 4};
  constructed.tamper_authenticator();
  EXPECT_FALSE(constructed.verify(key));
}

TEST(Lldp, TimestampRoundTrip) {
  const crypto::XteaKey key = crypto::XteaKey::derive(bytes_of("ts"));
  LldpPacket p{0x2, 5};
  EXPECT_FALSE(p.has_timestamp());
  EXPECT_FALSE(p.decrypt_timestamp(key).has_value());
  const auto departure = sim::SimTime::from_nanos(123456789);
  p.set_encrypted_timestamp(key, 42, departure);
  EXPECT_TRUE(p.has_timestamp());
  const auto out = p.decrypt_timestamp(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, departure);
}

TEST(Lldp, TimestampSurvivesSerialization) {
  const crypto::XteaKey key = crypto::XteaKey::derive(bytes_of("ts"));
  LldpPacket p{0x2, 5};
  p.set_encrypted_timestamp(key, 43, sim::SimTime::from_nanos(987654321));
  const auto relayed = LldpPacket::parse(p.serialize());
  ASSERT_TRUE(relayed.has_value());
  const auto out = relayed->decrypt_timestamp(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->count_nanos(), 987654321);
}

TEST(Lldp, TamperedTimestampDecryptsToGarbage) {
  // The attacker cannot rewrite the sealed departure time to mask relay
  // latency: a flipped ciphertext bit garbles the decrypted value.
  const crypto::XteaKey key = crypto::XteaKey::derive(bytes_of("ts"));
  LldpPacket p{0x2, 5};
  const auto departure = sim::SimTime::from_nanos(1'000'000);
  p.set_encrypted_timestamp(key, 44, departure);
  p.tamper_timestamp();
  const auto out = p.decrypt_timestamp(key);
  ASSERT_TRUE(out.has_value());
  EXPECT_NE(*out, departure);
}

TEST(Lldp, WrongTimestampKeyGarbles) {
  LldpPacket p{0x2, 5};
  p.set_encrypted_timestamp(crypto::XteaKey::derive(bytes_of("a")), 1,
                            sim::SimTime::from_nanos(55));
  const auto out = p.decrypt_timestamp(crypto::XteaKey::derive(bytes_of("b")));
  ASSERT_TRUE(out.has_value());
  EXPECT_NE(out->count_nanos(), 55);
}

/// Property sweep: round-trip across a range of chassis/port values,
/// with and without optional TLVs.
class LldpRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, bool,
                                                 bool>> {};

TEST_P(LldpRoundTrip, SerializeParse) {
  const auto [chassis, port, with_auth, with_ts] = GetParam();
  const crypto::Key akey = crypto::Key::derive(bytes_of("a"));
  const crypto::XteaKey tkey = crypto::XteaKey::derive(bytes_of("t"));
  LldpPacket p{chassis, static_cast<PortNo>(port)};
  if (with_auth) p.sign(akey);
  if (with_ts) p.set_encrypted_timestamp(tkey, chassis ^ 0x5a5a, sim::SimTime::from_nanos(777));
  const auto parsed = LldpPacket::parse(p.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
  EXPECT_EQ(parsed->verify(akey), with_auth);
  EXPECT_EQ(parsed->decrypt_timestamp(tkey).has_value(), with_ts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LldpRoundTrip,
    ::testing::Combine(::testing::Values(0x0ull, 0x1ull, 0xffffull,
                                         0xffffffffffffffffull),
                       ::testing::Values(1, 2, 255, 65535),
                       ::testing::Bool(), ::testing::Bool()));

TEST(Lldp, MakeLldpFrame) {
  const Packet p =
      make_lldp_frame(MacAddress::lldp_multicast(), LldpPacket{0x9, 2});
  EXPECT_TRUE(p.is_lldp());
  ASSERT_NE(p.lldp(), nullptr);
  EXPECT_EQ(p.lldp()->chassis_id(), 0x9u);
  EXPECT_EQ(p.dst_mac, MacAddress::lldp_multicast());
}

// ---------------- LLDP representation ----------------

// Every TLV is fixed-size, so the packet holds no heap storage: copying a
// Packet that carries LLDP (forward, flood, Packet-In, Packet-Out) never
// allocates.
static_assert(std::is_trivially_copyable_v<LldpPacket>);

/// The frame-size definition Packet::wire_size() had when it serialized
/// every LLDP frame to learn its length.
std::size_t serialized_frame_size(const LldpPacket& l) {
  return std::max<std::size_t>(64, 14 + l.serialize().size());
}

/// One frame of every TLV shape: bare, signed, sealed, signed+sealed,
/// each tamper on a frame that lacked the TLV, and parsed copies of all.
std::vector<LldpPacket> every_lldp_shape() {
  const crypto::Key akey = crypto::Key::derive(bytes_of("a"));
  const crypto::XteaKey tkey = crypto::XteaKey::derive(bytes_of("t"));
  const LldpPacket bare{0xAB, 3};
  LldpPacket signed_only = bare;
  signed_only.sign(akey);
  LldpPacket sealed_only = bare;
  sealed_only.set_encrypted_timestamp(tkey, 9, sim::SimTime::from_nanos(5));
  LldpPacket both = sealed_only;
  both.sign(akey);
  LldpPacket tampered_auth = bare;
  tampered_auth.tamper_authenticator();
  LldpPacket tampered_ts = bare;
  tampered_ts.tamper_timestamp();
  LldpPacket tampered_both = tampered_auth;
  tampered_both.tamper_timestamp();
  std::vector<LldpPacket> shapes{bare,          signed_only, sealed_only,
                                 both,          tampered_auth, tampered_ts,
                                 tampered_both};
  const std::size_t built = shapes.size();
  for (std::size_t i = 0; i < built; ++i) {
    const auto parsed = LldpPacket::parse(shapes[i].serialize());
    EXPECT_TRUE(parsed.has_value()) << "shape " << i;
    if (parsed) shapes.push_back(*parsed);
  }
  return shapes;
}

TEST(LldpRepresentation, WireSizeMatchesSerializedLength) {
  for (const LldpPacket& l : every_lldp_shape()) {
    EXPECT_EQ(l.wire_size(), l.serialize().size());
    EXPECT_EQ(make_lldp_frame(MacAddress::host(1), l).wire_size(),
              serialized_frame_size(l));
  }
}

TEST(LldpRepresentation, WireSizePerTlvShape) {
  const crypto::Key akey = crypto::Key::derive(bytes_of("a"));
  const crypto::XteaKey tkey = crypto::XteaKey::derive(bytes_of("t"));
  LldpPacket p{0x1, 1};
  EXPECT_EQ(p.wire_size(), 20u);  // core 18 + end marker 2
  p.sign(akey);
  EXPECT_EQ(p.wire_size(), 39u);  // + org TLV 2 + subtype 1 + MAC 16
  p.set_encrypted_timestamp(tkey, 1, sim::SimTime::from_nanos(1));
  EXPECT_EQ(p.wire_size(), 58u);  // + org TLV 2 + subtype 1 + nonce 8 + ct 8
  EXPECT_EQ(make_lldp_frame(MacAddress::host(1), p).wire_size(), 72u);
  EXPECT_EQ(make_lldp_frame(MacAddress::host(1), LldpPacket{0x1, 1})
                .wire_size(),
            64u);  // Ethernet minimum
}

TEST(LldpRepresentation, TamperPlantsAbsentTlv) {
  LldpPacket auth{0x1, 1};
  auth.tamper_authenticator();
  EXPECT_TRUE(auth.has_authenticator());
  EXPECT_FALSE(auth.has_timestamp());
  EXPECT_FALSE(auth.verify(crypto::Key::derive(bytes_of("a"))));
  LldpPacket ts{0x1, 1};
  ts.tamper_timestamp();
  EXPECT_TRUE(ts.has_timestamp());
  EXPECT_FALSE(ts.has_authenticator());
  EXPECT_TRUE(ts.decrypt_timestamp(crypto::XteaKey::derive(bytes_of("t")))
                  .has_value());
}

TEST(LldpRepresentation, EqualityMatchesPresenceAndContents) {
  const LldpPacket bare{0xAB, 3};
  const auto parsed = LldpPacket::parse(bare.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, bare);
  EXPECT_EQ(*parsed, LldpPacket(0xAB, 3, 120));

  // Tampering plants an all-zero TLV with one flipped byte: it differs
  // from the bare frame, and from an authenticator or timestamp that is
  // present but was never tampered.
  LldpPacket tampered_auth = bare;
  tampered_auth.tamper_authenticator();
  EXPECT_NE(tampered_auth, bare);
  LldpPacket tampered_ts = bare;
  tampered_ts.tamper_timestamp();
  EXPECT_NE(tampered_ts, bare);
  EXPECT_NE(tampered_ts, tampered_auth);

  const crypto::Key key = crypto::Key::derive(bytes_of("a"));
  LldpPacket signed_frame = bare;
  signed_frame.sign(key);
  LldpPacket tampered_signed = signed_frame;
  tampered_signed.tamper_authenticator();
  EXPECT_NE(tampered_signed, signed_frame);
  tampered_signed.tamper_authenticator();  // flips the same byte back
  EXPECT_EQ(tampered_signed, signed_frame);

  // Every shape equals its own parsed copy, and no two distinct shapes
  // compare equal.
  const auto shapes = every_lldp_shape();
  const std::size_t built = shapes.size() / 2;
  for (std::size_t i = 0; i < built; ++i) {
    EXPECT_EQ(shapes[i], shapes[built + i]) << "shape " << i;
    for (std::size_t j = 0; j < built; ++j) {
      if (i != j) {
        EXPECT_NE(shapes[i], shapes[j]) << i << " vs " << j;
      }
    }
  }
}


// ---------------- 802.1x auth frames / link-local groups ----------------

namespace authtests {

TEST(MacAddress, LinkLocalGroupRange) {
  EXPECT_TRUE(MacAddress::lldp_multicast().is_link_local_group());
  EXPECT_TRUE(MacAddress::pae_group().is_link_local_group());
  EXPECT_FALSE(MacAddress::broadcast().is_link_local_group());
  EXPECT_FALSE(MacAddress::host(1).is_link_local_group());
  // 01:80:c2:00:00:10 is outside the bridge-filtered block.
  EXPECT_FALSE(MacAddress({0x01, 0x80, 0xc2, 0x00, 0x00, 0x10})
                   .is_link_local_group());
}

TEST(AuthFrame, RoundTripsToken) {
  const Packet p = make_auth_frame(MacAddress::host(1),
                                   Ipv4Address::host(1),
                                   0x1122334455667788ULL);
  EXPECT_EQ(p.dst_mac, MacAddress::pae_group());
  const auto token = auth_token_of(p);
  ASSERT_TRUE(token.has_value());
  EXPECT_EQ(*token, 0x1122334455667788ULL);
}

TEST(AuthFrame, NonAuthPacketsYieldNothing) {
  EXPECT_FALSE(auth_token_of(make_arp_request(MacAddress::host(1),
                                              Ipv4Address::host(1),
                                              Ipv4Address::host(2)))
                   .has_value());
  // Right label, wrong payload size.
  Packet p = make_raw(MacAddress::host(1), Ipv4Address::host(1),
                      MacAddress::pae_group(), Ipv4Address::any(),
                      auth_frame_label(), 64);
  EXPECT_FALSE(auth_token_of(p).has_value());
}

}  // namespace authtests

}  // namespace
}  // namespace tmg::net
