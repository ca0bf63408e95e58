#include "crypto/xtea.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace tmg::crypto {

namespace {
constexpr std::uint32_t kDelta = 0x9e3779b9;
constexpr int kRounds = 32;
}  // namespace

XteaKey XteaKey::derive(std::span<const std::uint8_t> seed) {
  const Digest256 d = Sha256::hash(seed);
  XteaKey k;
  for (int i = 0; i < 4; ++i) {
    k.words[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(d[4 * i]) << 24) |
        (static_cast<std::uint32_t>(d[4 * i + 1]) << 16) |
        (static_cast<std::uint32_t>(d[4 * i + 2]) << 8) |
        static_cast<std::uint32_t>(d[4 * i + 3]);
  }
  return k;
}

std::uint64_t xtea_encrypt_block(const XteaKey& key, std::uint64_t block) {
  std::uint32_t v0 = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = 0;
  for (int i = 0; i < kRounds; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key.words[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key.words[(sum >> 11) & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

std::uint64_t xtea_decrypt_block(const XteaKey& key, std::uint64_t block) {
  std::uint32_t v0 = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t v1 = static_cast<std::uint32_t>(block);
  std::uint32_t sum = kDelta * static_cast<std::uint32_t>(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key.words[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key.words[sum & 3]);
  }
  return (static_cast<std::uint64_t>(v0) << 32) | v1;
}

void xtea_ctr_apply(const XteaKey& key, std::uint64_t nonce,
                    std::span<std::uint8_t> data) {
  std::uint64_t counter = 0;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::uint64_t ks = xtea_encrypt_block(key, nonce ^ counter);
    for (int b = 0; b < 8 && off < data.size(); ++b, ++off) {
      data[off] ^= static_cast<std::uint8_t>(ks >> (56 - 8 * b));
    }
    ++counter;
  }
}

std::array<std::uint8_t, 8> seal_u64(const XteaKey& key, std::uint64_t nonce,
                                     std::uint64_t value) {
  std::array<std::uint8_t, 8> out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (56 - 8 * i));
  }
  xtea_ctr_apply(key, nonce, out);
  return out;
}

bool open_u64(const XteaKey& key, std::uint64_t nonce,
              std::span<const std::uint8_t> sealed, std::uint64_t& value_out) {
  if (sealed.size() != 8) return false;
  std::array<std::uint8_t, 8> buf;
  std::copy(sealed.begin(), sealed.end(), buf.begin());
  xtea_ctr_apply(key, nonce, buf);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | buf[static_cast<std::size_t>(i)];
  }
  value_out = v;
  return true;
}

}  // namespace tmg::crypto
