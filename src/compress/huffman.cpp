#include "compress/huffman.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <queue>

#include "compress/simd.hpp"
#include "util/bitio.hpp"

namespace mocha::compress {

namespace {

constexpr int kMaxCodeLen = 48;  // sanity bound; real streams stay far below

// Width of the direct-mapped decode table. Codes at most this long decode
// with one peek + one table hit; longer codes (rare: they need very skewed
// histograms) fall back to the canonical bit-at-a-time walk.
constexpr int kDecodeTableBits = 11;

constexpr std::size_t kSymbolSpace = 1u << 16;  // Value is 16-bit

struct CanonicalEntry {
  std::uint16_t symbol;
  int length;
};

/// Sorts by (length, symbol) — the canonical order both sides must share.
void canonical_sort(std::vector<CanonicalEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const CanonicalEntry& a, const CanonicalEntry& b) {
              return a.length != b.length ? a.length < b.length
                                          : a.symbol < b.symbol;
            });
}

/// Assigns canonical codes to entries sorted by canonical_sort.
std::vector<std::uint64_t> assign_codes(
    const std::vector<CanonicalEntry>& entries) {
  std::vector<std::uint64_t> codes(entries.size());
  std::uint64_t code = 0;
  int prev_len = entries.empty() ? 0 : entries.front().length;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    code <<= (entries[i].length - prev_len);
    codes[i] = code;
    ++code;
    prev_len = entries[i].length;
  }
  return codes;
}

/// Reverses the low `len` bits of `code`. The body stream stores each code
/// MSB-first while BitWriter packs LSB-first, so a whole code can be emitted
/// with one put() by pre-reversing it: put(reverse(code, len), len) appends
/// bit len-1 of `code` first — exactly what the per-bit loop used to do.
std::uint64_t reverse_bits(std::uint64_t code, int len) {
  std::uint64_t rev = 0;
  for (int i = 0; i < len; ++i) {
    rev = (rev << 1) | ((code >> i) & 1u);
  }
  return rev;
}

}  // namespace

std::vector<int> HuffmanCodec::code_lengths(
    const std::vector<std::uint64_t>& freqs) {
  const std::size_t n = freqs.size();
  if (n == 0) return {};
  if (n == 1) return {1};

  // Standard heap construction over an implicit tree; parent[] then yields
  // depths without materializing node objects.
  struct Node {
    std::uint64_t freq;
    std::size_t id;
    bool operator>(const Node& other) const {
      return freq != other.freq ? freq > other.freq : id > other.id;
    }
  };
  std::vector<std::size_t> parent(2 * n - 1, 0);
  std::priority_queue<Node, std::vector<Node>, std::greater<>> heap;
  for (std::size_t i = 0; i < n; ++i) {
    MOCHA_CHECK(freqs[i] > 0, "zero-frequency symbol in histogram");
    heap.push({freqs[i], i});
  }
  std::size_t next_id = n;
  while (heap.size() > 1) {
    const Node a = heap.top();
    heap.pop();
    const Node b = heap.top();
    heap.pop();
    parent[a.id] = next_id;
    parent[b.id] = next_id;
    heap.push({a.freq + b.freq, next_id});
    ++next_id;
  }
  const std::size_t root = next_id - 1;
  std::vector<int> lengths(n);
  for (std::size_t i = 0; i < n; ++i) {
    int depth = 0;
    for (std::size_t node = i; node != root; node = parent[node]) ++depth;
    MOCHA_CHECK(depth <= kMaxCodeLen, "huffman code length " << depth);
    lengths[i] = depth;
  }
  return lengths;
}

std::vector<std::uint8_t> HuffmanCodec::encode(
    std::span<const nn::Value> values) const {
  // Flat histogram over the full 16-bit symbol space; the ascending scan
  // below visits symbols in the same order the old std::map iteration did,
  // so the emitted header (and hence the whole stream) is unchanged.
  // Activation streams are zero-dominated, so the dispatched run scan
  // credits whole zero runs to bucket 0 at SIMD speed and only the nonzero
  // values take the scalar increment.
  std::vector<std::uint64_t> histogram(kSymbolSpace, 0);
  {
    const CodecOps& ops = active_codec_ops();
    const nn::Value* p = values.data();
    const std::size_t n = values.size();
    std::size_t i = 0;
    while (i < n) {
      const std::size_t z = ops.zero_run(p + i, n - i);
      histogram[0] += z;
      i += z;
      const std::size_t lit = ops.nonzero_run(p + i, n - i);
      for (std::size_t k = 0; k < lit; ++k) {
        ++histogram[static_cast<std::uint16_t>(p[i + k])];
      }
      i += lit;
    }
  }

  std::vector<std::uint16_t> symbols;
  std::vector<std::uint64_t> freqs;
  for (std::size_t s = 0; s < kSymbolSpace; ++s) {
    if (histogram[s] == 0) continue;
    symbols.push_back(static_cast<std::uint16_t>(s));
    freqs.push_back(histogram[s]);
  }
  const std::vector<int> lengths = code_lengths(freqs);

  std::vector<CanonicalEntry> entries(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    entries[i] = {symbols[i], lengths[i]};
  }
  canonical_sort(entries);
  const std::vector<std::uint64_t> codes = assign_codes(entries);

  // Flat symbol -> (pre-reversed code, length) lookup, packed into one word
  // per symbol ((rev << 6) | len fits: 48 code bits + 6 length bits). The
  // histogram is dead once the symbol list holds its counts, so its 512 KB
  // are zeroed and reused rather than a second table allocated and faulted
  // in on every call.
  std::vector<std::uint64_t>& table = histogram;
  std::fill(table.begin(), table.end(), std::uint64_t{0});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    table[entries[i].symbol] =
        (reverse_bits(codes[i], entries[i].length) << 6) |
        static_cast<std::uint64_t>(entries[i].length);
  }

  util::BitWriter writer;
  writer.put(static_cast<std::uint64_t>(entries.size()), 16);
  for (const CanonicalEntry& e : entries) {
    writer.put(e.symbol, 16);
    writer.put(static_cast<std::uint64_t>(e.length), 6);
  }
  for (nn::Value v : values) {
    const std::uint64_t packed = table[static_cast<std::uint16_t>(v)];
    writer.put(packed >> 6, static_cast<int>(packed & 63u));
  }
  return writer.finish();
}

std::vector<nn::Value> HuffmanCodec::decode(std::span<const std::uint8_t> coded,
                                            std::size_t count) const {
  util::BitReader reader(coded.data(), coded.size());
  const auto distinct = static_cast<std::size_t>(reader.get(16));
  if (count == 0) return {};
  MOCHA_CHECK(distinct > 0, "huffman stream with no symbols");

  std::vector<CanonicalEntry> entries(distinct);
  for (CanonicalEntry& e : entries) {
    e.symbol = static_cast<std::uint16_t>(reader.get(16));
    e.length = static_cast<int>(reader.get(6));
    MOCHA_CHECK(e.length >= 1 && e.length <= kMaxCodeLen,
                "bad huffman code length " << e.length);
  }
  canonical_sort(entries);
  const std::vector<std::uint64_t> codes = assign_codes(entries);

  // Canonical decode tables: for each length, the first code and the index
  // of its first symbol in canonical order. These drive the bit-at-a-time
  // fallback for codes longer than the direct table.
  std::vector<std::uint64_t> first_code(kMaxCodeLen + 1, 0);
  std::vector<std::size_t> first_index(kMaxCodeLen + 1, 0);
  std::vector<std::size_t> count_at(kMaxCodeLen + 1, 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const int len = entries[i].length;
    if (count_at[len] == 0) {
      first_code[len] = codes[i];
      first_index[len] = i;
    }
    ++count_at[len];
  }

  // Direct-mapped table indexed by the next kDecodeTableBits stream bits
  // (stream order == reversed code, so short codes occupy the low bits and
  // every suffix of the index maps to the same entry). 0 means "not covered
  // — take the fallback".
  //
  // Filled by region doubling instead of a strided store per (entry, hi)
  // pair: lengths ascend in canonical order, so keep a prefix of size
  // 2^cur_bits fully replicated, memcpy-double it when the length grows,
  // and drop each entry in with ONE store. Prefix-freeness guarantees the
  // store target still holds 0: a shorter code occupying index `base`
  // would be a stream-order prefix of this code.
  std::vector<std::uint32_t> fast(1u << kDecodeTableBits, 0);
  {
    int cur_bits = 0;
    const auto double_region = [&fast](int bits) {
      std::memcpy(fast.data() + (std::size_t{1} << bits), fast.data(),
                  sizeof(std::uint32_t) << bits);
    };
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const int len = entries[i].length;
      if (len > kDecodeTableBits) break;  // canonical order: lengths ascend
      while (cur_bits < len) {
        double_region(cur_bits);
        ++cur_bits;
      }
      fast[reverse_bits(codes[i], len)] =
          (static_cast<std::uint32_t>(entries[i].symbol) << 6) |
          static_cast<std::uint32_t>(len);
    }
    while (cur_bits < kDecodeTableBits) {
      double_region(cur_bits);
      ++cur_bits;
    }
  }

  // Decode the body straight off the byte buffer: peeks may extend past the
  // final byte, so read through a zero-padded copy (zero bits there can
  // never complete a valid symbol — truncation is still caught below).
  std::vector<std::uint8_t> padded(coded.begin(), coded.end());
  padded.resize(coded.size() + 8, 0);
  const std::size_t total_bits = coded.size() * 8;
  std::size_t pos = reader.position_bits();

  const auto peek64 = [&padded](std::size_t bit_pos) {
    const std::uint8_t* p = padded.data() + (bit_pos >> 3);
    std::uint64_t word;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&word, p, 8);  // one load instead of 8 byte inserts
    } else {
      word = 0;
      for (int i = 0; i < 8; ++i) {
        word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      }
    }
    return word >> (bit_pos & 7);
  };

  std::vector<nn::Value> out;
  out.reserve(count);
  while (out.size() < count) {
    const std::uint32_t hit =
        fast[peek64(pos) & ((1u << kDecodeTableBits) - 1)];
    if (hit != 0) {
      pos += hit & 63u;
      MOCHA_CHECK(pos <= total_bits, "huffman stream truncated");
      out.push_back(static_cast<nn::Value>(
          static_cast<std::uint16_t>(hit >> 6)));
      continue;
    }
    std::uint64_t code = 0;
    int len = 0;
    for (;;) {
      MOCHA_CHECK(pos < total_bits, "bit read past end: pos=" << pos);
      code = (code << 1) | (peek64(pos) & 1u);
      ++pos;
      ++len;
      MOCHA_CHECK(len <= kMaxCodeLen, "huffman decode ran away");
      if (count_at[len] > 0 && code >= first_code[len] &&
          code - first_code[len] < count_at[len]) {
        const std::size_t idx =
            first_index[len] + static_cast<std::size_t>(code - first_code[len]);
        out.push_back(static_cast<nn::Value>(entries[idx].symbol));
        break;
      }
    }
  }
  return out;
}

}  // namespace mocha::compress
