#include "compress/bitmask.hpp"

#include <bit>
#include <cstring>

#include "compress/simd.hpp"

namespace mocha::compress {

namespace {

std::size_t count_nonzeros(std::span<const nn::Value> values) {
  // The fixed-length inner loop is what lets the compiler vectorize the
  // count at -O2.
  constexpr std::size_t kBlock = 64;
  const std::size_t n = values.size();
  std::size_t nonzeros = 0;
  std::size_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    unsigned block = 0;
    for (std::size_t j = 0; j < kBlock; ++j) block += values[i + j] != 0;
    nonzeros += block;
  }
  for (; i < n; ++i) nonzeros += values[i] != 0;
  return nonzeros;
}

std::size_t popcount_bytes(const std::uint8_t* p, std::size_t n) {
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, sizeof(word));
    total += static_cast<std::size_t>(std::popcount(word));
  }
  for (; i < n; ++i) total += static_cast<std::size_t>(std::popcount(p[i]));
  return total;
}

}  // namespace

std::vector<std::uint8_t> BitmaskCodec::encode(
    std::span<const nn::Value> values) const {
  const std::size_t n = values.size();
  const std::size_t full = n / 8;  // mask bytes the dispatched pack fills
  const std::size_t mask_bytes = (n + 7) / 8;
  const std::size_t size = mask_bytes + 2 * count_nonzeros(values);
  std::vector<std::uint8_t> out(size + kBitmaskPackSlack);
  std::uint8_t* data = out.data() + mask_bytes;
  std::size_t words = active_codec_ops().bitmask_pack(values.data(), 8 * full,
                                                      out.data(), data);
  // The last n % 8 values: a partial mask byte, words after the packed ones.
  for (std::size_t i = 8 * full; i < n; ++i) {
    if (values[i] == 0) continue;
    out[full] |= static_cast<std::uint8_t>(1u << (i & 7));
    const auto u = static_cast<std::uint16_t>(values[i]);
    data[2 * words] = static_cast<std::uint8_t>(u);
    data[2 * words + 1] = static_cast<std::uint8_t>(u >> 8);
    ++words;
  }
  out.resize(size);  // drops the pack slack; shrinking never reallocates
  return out;
}

std::vector<nn::Value> BitmaskCodec::decode(std::span<const std::uint8_t> coded,
                                            std::size_t count) const {
  const std::size_t full = count / 8;
  const std::size_t mask_bytes = (count + 7) / 8;
  MOCHA_CHECK(coded.size() >= mask_bytes, "bitmask payload truncated (mask)");
  // Mask bits past `count` in the last byte are ignored.
  const unsigned tail_bits =
      full < mask_bytes ? coded[full] & ((1u << (count % 8)) - 1u) : 0u;
  const std::size_t nonzeros =
      popcount_bytes(coded.data(), full) +
      static_cast<std::size_t>(std::popcount(tail_bits));
  const std::span<const std::uint8_t> data = coded.subspan(mask_bytes);
  MOCHA_CHECK(data.size() >= 2 * nonzeros, "bitmask payload truncated (data)");
  std::vector<nn::Value> out(count);
  std::size_t pos = active_codec_ops().bitmask_unpack(
      coded.data(), full, data.data(), data.size(), out.data());
  for (std::size_t j = 0; j < count % 8; ++j) {
    if (((tail_bits >> j) & 1u) == 0) continue;
    out[8 * full + j] = static_cast<nn::Value>(
        static_cast<std::uint16_t>(data[pos] | (data[pos + 1] << 8)));
    pos += 2;
  }
  return out;
}

}  // namespace mocha::compress
