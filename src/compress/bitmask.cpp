#include "compress/bitmask.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <numeric>

#include "compress/simd.hpp"
#include "util/parallel.hpp"

namespace mocha::compress {

namespace {

constexpr std::size_t kBlock = BitmaskCodec::kBlockValues;
static_assert(kBlock % 8 == 0, "a block must own whole mask bytes");

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

// Block b of an n-value stream holds values [b * kBlock, b * kBlock + len)
// and mask bytes from b * kBlock / 8; only the last block is shorter, and
// only it can end in a partial mask byte.
std::size_t block_count(std::size_t n) { return (n + kBlock - 1) / kBlock; }

std::size_t block_len(std::size_t n, std::size_t b) {
  return std::min(kBlock, n - b * kBlock);
}

/// Runs fn(first_block, end_block) over the blocks of an n-value stream:
/// on the global pool from kParallelValues values on (parallel_for runs
/// it inline at pool width 1 and on a worker), inline below that.
template <typename Fn>
void for_blocks(std::size_t n, Fn&& fn) {
  const std::size_t blocks = block_count(n);
  if (n < BitmaskCodec::kParallelValues) {
    fn(0, blocks);
    return;
  }
  const auto range = static_cast<std::int64_t>(blocks);
  util::parallel_for(0, range, util::default_grain(range),
                     [&](std::int64_t b, std::int64_t e) {
                       fn(static_cast<std::size_t>(b),
                          static_cast<std::size_t>(e));
                     });
}

/// Mask bits of a block's partial last byte that lie inside the stream
/// (0 for a block of whole mask bytes); bits past the stream are ignored.
unsigned tail_bits(const std::uint8_t* mask, std::size_t n) {
  return n % 8 == 0 ? 0u : mask[n / 8] & ((1u << (n % 8)) - 1u);
}

/// Packs one block's n values: the mask bytes into `mask` (zeroed by the
/// caller), the payload into `data`, which must extend kBitmaskPackSlack
/// bytes past it for the dispatched pack's whole-register stores. Returns
/// the payload bytes.
std::size_t pack_block(const nn::Value* values, std::size_t n,
                       std::uint8_t* mask, std::uint8_t* data) {
  const std::size_t full = n / 8;  // mask bytes the dispatched pack fills
  std::size_t words =
      active_codec_ops().bitmask_pack(values, 8 * full, mask, data);
  // The last n % 8 values: a partial mask byte, words after the packed ones.
  for (std::size_t i = 8 * full; i < n; ++i) {
    if (values[i] == 0) continue;
    mask[full] |= static_cast<std::uint8_t>(1u << (i & 7));
    const auto u = static_cast<std::uint16_t>(values[i]);
    data[2 * words] = static_cast<std::uint8_t>(u);
    data[2 * words + 1] = static_cast<std::uint8_t>(u >> 8);
    ++words;
  }
  return 2 * words;
}

/// Expands one block's n values into `out` from its mask bytes and the
/// payload at `data`, whose `data_len` readable bytes the caller has
/// checked to cover every set bit.
void expand_block(const std::uint8_t* mask, std::size_t n,
                  const std::uint8_t* data, std::size_t data_len,
                  nn::Value* out) {
  const std::size_t full = n / 8;
  std::size_t pos =
      active_codec_ops().bitmask_unpack(mask, full, data, data_len, out);
  const unsigned tail = tail_bits(mask, n);
  for (std::size_t j = 0; j < n % 8; ++j) {
    nn::Value v = 0;
    if (((tail >> j) & 1u) != 0) {
      v = static_cast<nn::Value>(
          static_cast<std::uint16_t>(data[pos] | (data[pos + 1] << 8)));
      pos += 2;
    }
    out[8 * full + j] = v;
  }
}

/// Where each block's payload starts in a coded `count`-value stream, plus
/// the payload's end as the last entry. Checks the mask length, then the
/// payload length the set bits call for, before any block is expanded.
std::vector<std::size_t> payload_offsets(std::span<const std::uint8_t> coded,
                                         std::size_t count) {
  const std::size_t mask_bytes = (count + 7) / 8;
  MOCHA_CHECK(coded.size() >= mask_bytes, "bitmask payload truncated (mask)");
  const std::size_t blocks = block_count(count);
  std::vector<std::size_t> offset(blocks + 1, 0);
  for_blocks(count, [&](std::size_t first, std::size_t end) {
    for (std::size_t b = first; b < end; ++b) {
      const std::size_t n = block_len(count, b);
      const std::uint8_t* mask = coded.data() + b * (kBlock / 8);
      offset[b + 1] = 2 * (popcount_bytes(mask, n / 8) +
                           static_cast<std::size_t>(
                               std::popcount(tail_bits(mask, n))));
    }
  });
  offset[0] = mask_bytes;
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  MOCHA_CHECK(coded.size() >= offset[blocks],
              "bitmask payload truncated (data)");
  return offset;
}

}  // namespace

std::vector<std::uint8_t> BitmaskCodec::encode(
    std::span<const nn::Value> values) const {
  const std::size_t n = values.size();
  const std::size_t blocks = block_count(n);
  // Payload offsets: the mask, then a prefix sum of per-block payloads.
  std::vector<std::size_t> offset(blocks + 1, 0);
  for_blocks(n, [&](std::size_t first, std::size_t end) {
    for (std::size_t b = first; b < end; ++b) {
      offset[b + 1] =
          2 * nn::count_nonzeros(values.data() + b * kBlock, block_len(n, b));
    }
  });
  offset[0] = (n + 7) / 8;
  std::partial_sum(offset.begin(), offset.end(), offset.begin());

  const std::size_t size = offset[blocks];
  std::vector<std::uint8_t> out(size + kBitmaskPackSlack);
  // The dispatched pack stores up to kBitmaskPackSlack bytes past a block's
  // last word. Inside a chunk of blocks that spill lands in later blocks'
  // payload, which they then overwrite, and past the last block it lands in
  // the stream's own slack. A block whose spill could reach the next
  // chunk's payload, which another lane may be filling, packs into a
  // chunk-local buffer instead and copies out exactly its own bytes.
  for_blocks(n, [&](std::size_t first, std::size_t end) {
    std::unique_ptr<std::uint8_t[]> staging;
    for (std::size_t b = first; b < end; ++b) {
      const bool spill_stays_in_chunk =
          end == blocks || offset[b + 1] + kBitmaskPackSlack <= offset[end];
      if (!spill_stays_in_chunk && staging == nullptr) {
        staging = std::make_unique_for_overwrite<std::uint8_t[]>(
            2 * kBlock + kBitmaskPackSlack);
      }
      std::uint8_t* data =
          spill_stays_in_chunk ? out.data() + offset[b] : staging.get();
      const std::size_t bytes = pack_block(values.data() + b * kBlock,
                                           block_len(n, b),
                                           out.data() + b * (kBlock / 8), data);
      MOCHA_CHECK(bytes == offset[b + 1] - offset[b],
                  "bitmask block " << b << " packed " << bytes
                                   << " payload bytes, counted "
                                   << offset[b + 1] - offset[b]);
      if (!spill_stays_in_chunk) {
        std::memcpy(out.data() + offset[b], staging.get(), bytes);
      }
    }
  });
  out.resize(size);  // drops the pack slack; shrinking never reallocates
  return out;
}

std::vector<nn::Value> BitmaskCodec::decode(std::span<const std::uint8_t> coded,
                                            std::size_t count) const {
  const std::vector<std::size_t> offset = payload_offsets(coded, count);
  std::vector<nn::Value> out(count);
  for_blocks(count, [&](std::size_t first, std::size_t end) {
    for (std::size_t b = first; b < end; ++b) {
      expand_block(coded.data() + b * (kBlock / 8), block_len(count, b),
                   coded.data() + offset[b], coded.size() - offset[b],
                   out.data() + b * kBlock);
    }
  });
  return out;
}

std::optional<std::size_t> BitmaskCodec::first_mismatch(
    std::span<const std::uint8_t> coded,
    std::span<const nn::Value> values) const {
  const std::size_t n = values.size();
  const std::vector<std::size_t> offset = payload_offsets(coded, n);
  // Per block: the first differing index, or n when the block matches.
  std::vector<std::size_t> first_diff(block_count(n), n);
  for_blocks(n, [&](std::size_t first, std::size_t end) {
    std::vector<nn::Value> staging(std::min(n, kBlock));
    for (std::size_t b = first; b < end; ++b) {
      const std::size_t len = block_len(n, b);
      const nn::Value* want = values.data() + b * kBlock;
      expand_block(coded.data() + b * (kBlock / 8), len,
                   coded.data() + offset[b], coded.size() - offset[b],
                   staging.data());
      if (!std::equal(want, want + len, staging.data())) {
        first_diff[b] = b * kBlock + static_cast<std::size_t>(
                                         std::mismatch(want, want + len,
                                                       staging.data())
                                             .first -
                                         want);
      }
    }
  });
  for (std::size_t at : first_diff) {
    if (at < n) return at;
  }
  return std::nullopt;
}

}  // namespace mocha::compress
