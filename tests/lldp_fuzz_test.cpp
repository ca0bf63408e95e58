// Seeded, structure-aware mutation fuzzer for net::LldpPacket::parse.
//
// Crafted LLDP is the paper's whole attack surface, so the parser must
// survive hostile bytes. Each iteration takes a valid frame from a corpus
// and stacks a few mutations on it: bit flips, truncation, TLV
// length-byte edits, and TLV splices cut from other valid frames. The
// mutated bytes are parsed from an exactly-sized heap buffer, so an
// out-of-bounds read is an AddressSanitizer report under the asan-ubsan
// preset. Invariant: an accepted input re-serializes to bytes that parse
// to an equal packet whose wire_size() is the serialized length. The
// iteration budget is fixed, so the test runs in bounded time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/xtea.hpp"
#include "net/lldp.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"

namespace tmg::net {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr int kIterationsPerSeed = 20000;

struct Tlv {
  std::size_t offset;
  std::size_t size;  // header + value
};

/// TLV boundaries of a well-formed frame, end marker included.
std::vector<Tlv> split_tlvs(const Bytes& frame) {
  std::vector<Tlv> out;
  std::size_t pos = 0;
  while (pos + 2 <= frame.size()) {
    const std::size_t size = 2 + frame[pos + 1];
    if (pos + size > frame.size()) break;
    out.push_back({pos, size});
    if (frame[pos] == 0) break;
    pos += size;
  }
  return out;
}

Bytes random_bytes(sim::Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// Valid frames of every TLV shape, some carrying unknown TLVs, unknown
/// org subtypes or bytes after the end marker (all of which parse skips).
std::vector<Bytes> make_corpus(sim::Rng& rng) {
  const crypto::Key akey = crypto::Key::derive(random_bytes(rng, 8));
  const crypto::XteaKey tkey = crypto::XteaKey::derive(random_bytes(rng, 8));
  std::vector<Bytes> corpus;
  for (int i = 0; i < 32; ++i) {
    LldpPacket p{rng.next_u64(),
                 static_cast<PortNo>(rng.uniform_int(0, 65535)),
                 static_cast<std::uint16_t>(rng.uniform_int(0, 65535))};
    if (i & 1) p.sign(akey);
    if (i & 2) {
      p.set_encrypted_timestamp(
          tkey, rng.next_u64(),
          sim::SimTime::from_nanos(
              static_cast<std::int64_t>(rng.next_u64() >> 1)));
    }
    if (i & 4) p.tamper_authenticator();
    Bytes frame = p.serialize();
    if (i & 8) {
      // An unknown TLV type and an unknown org subtype before the end.
      const Bytes unknown{9, 3, 0xde, 0xad, 0xbe};
      const Bytes unknown_org{127, 4, 0x7f, 1, 2, 3};
      frame.insert(frame.end() - 2, unknown.begin(), unknown.end());
      frame.insert(frame.end() - 2, unknown_org.begin(), unknown_org.end());
    }
    if (i & 16) {
      const Bytes tail = random_bytes(rng, 5);
      frame.insert(frame.end(), tail.begin(), tail.end());
    }
    corpus.push_back(std::move(frame));
  }
  return corpus;
}

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

void mutate(sim::Rng& rng, const std::vector<Bytes>& corpus, Bytes& frame) {
  const auto tlvs = split_tlvs(frame);
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // bit flip
      if (frame.empty()) return;
      const std::size_t bit = pick(rng, frame.size() * 8);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      return;
    }
    case 1:  // truncation
      frame.resize(pick(rng, frame.size() + 1));
      return;
    case 2: {  // TLV length-byte edit
      if (tlvs.empty()) return;
      std::uint8_t& len = frame[tlvs[pick(rng, tlvs.size())].offset + 1];
      switch (rng.uniform_int(0, 2)) {
        case 0: ++len; break;
        case 1: --len; break;
        default: len = static_cast<std::uint8_t>(rng.next_u64()); break;
      }
      return;
    }
    case 3:
    case 4: {  // TLV splice from another valid frame
      const Bytes& donor = corpus[pick(rng, corpus.size())];
      const auto donor_tlvs = split_tlvs(donor);
      const Tlv piece = donor_tlvs[pick(rng, donor_tlvs.size())];
      const auto first = donor.begin() + static_cast<std::ptrdiff_t>(piece.offset);
      const auto last = first + static_cast<std::ptrdiff_t>(piece.size);
      if (tlvs.empty()) {
        frame.insert(frame.begin(), first, last);
        return;
      }
      const Tlv at = tlvs[pick(rng, tlvs.size())];
      const auto where = frame.begin() + static_cast<std::ptrdiff_t>(at.offset);
      if (rng.chance(0.5)) {
        frame.insert(where, first, last);  // insert before a TLV
      } else {
        // Replace a TLV.
        const auto end = where + static_cast<std::ptrdiff_t>(at.size);
        const std::ptrdiff_t off = where - frame.begin();
        frame.erase(where, end);
        frame.insert(frame.begin() + off, first, last);
      }
      return;
    }
  }
}

/// Parse from an exactly-sized heap copy, so a read past the end of the
/// input is a heap overflow rather than a read of vector slack.
std::optional<LldpPacket> parse_exact(const Bytes& frame) {
  const auto buf = std::make_unique<std::uint8_t[]>(frame.size());
  std::copy(frame.begin(), frame.end(), buf.get());
  return LldpPacket::parse(std::span<const std::uint8_t>(buf.get(), frame.size()));
}

class LldpMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LldpMutationFuzz, AcceptedInputsReserializeToEqualPackets) {
  sim::Rng rng{GetParam()};
  const auto corpus = make_corpus(rng);
  for (const Bytes& frame : corpus) ASSERT_TRUE(parse_exact(frame).has_value());

  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < kIterationsPerSeed; ++iter) {
    Bytes frame = corpus[pick(rng, corpus.size())];
    const auto rounds = rng.uniform_int(1, 4);
    for (std::int64_t m = 0; m < rounds; ++m) mutate(rng, corpus, frame);

    const auto parsed = parse_exact(frame);
    if (!parsed) {
      ++rejected;
      continue;
    }
    ++accepted;
    const Bytes canonical = parsed->serialize();
    ASSERT_EQ(parsed->wire_size(), canonical.size()) << "iteration " << iter;
    const auto reparsed = parse_exact(canonical);
    ASSERT_TRUE(reparsed.has_value()) << "iteration " << iter;
    ASSERT_EQ(*reparsed, *parsed) << "iteration " << iter;
    ASSERT_EQ(reparsed->wire_size(), parsed->wire_size());
    ASSERT_EQ(reparsed->serialize(), canonical) << "iteration " << iter;
    const Packet framed = make_lldp_frame(MacAddress::host(1), *parsed);
    ASSERT_EQ(framed.wire_size(),
              std::max<std::size_t>(64, 14 + canonical.size()));
  }
  // The mutations must exercise both outcomes, or the fuzzer tests little.
  EXPECT_GT(accepted, kIterationsPerSeed / 20);
  EXPECT_GT(rejected, kIterationsPerSeed / 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LldpMutationFuzz,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tmg::net
