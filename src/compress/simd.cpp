// Scalar codec primitives (the oracle) and the ISA dispatch table.
// Vector variants live in simd_avx2.cpp / simd_neon.cpp with per-file
// ISA flags; this file stays portable.
#include "compress/simd.hpp"

#include "util/assert.hpp"

namespace mocha::compress {

namespace {

std::size_t zero_run_scalar(const nn::Value* p, std::size_t n) {
  std::size_t i = 0;
  while (i < n && p[i] == 0) ++i;
  return i;
}

std::size_t nonzero_run_scalar(const nn::Value* p, std::size_t n) {
  std::size_t i = 0;
  while (i < n && p[i] != 0) ++i;
  return i;
}

std::size_t bitmask_pack_scalar(const nn::Value* values, std::size_t n,
                                std::uint8_t* mask, std::uint8_t* data) {
  std::size_t words = 0;
  for (std::size_t b = 0; b < n / 8; ++b) {
    unsigned bits = 0;
    for (unsigned j = 0; j < 8; ++j) {
      // Store every word but advance only past a non-zero: the next word
      // or the slack absorbs a zero's bytes, and no branch mispredicts.
      const auto u = static_cast<std::uint16_t>(values[8 * b + j]);
      data[2 * words] = static_cast<std::uint8_t>(u);
      data[2 * words + 1] = static_cast<std::uint8_t>(u >> 8);
      const unsigned nonzero = u != 0;
      bits |= nonzero << j;
      words += nonzero;
    }
    mask[b] = static_cast<std::uint8_t>(bits);
  }
  return words;
}

std::size_t bitmask_unpack_scalar(const std::uint8_t* mask,
                                  std::size_t mask_bytes,
                                  const std::uint8_t* data,
                                  std::size_t data_len, nn::Value* out) {
  std::size_t pos = 0;
  for (std::size_t b = 0; b < mask_bytes; ++b) {
    for (unsigned j = 0; j < 8; ++j) {
      // Branch-free on the mask bit: read the next word whenever one
      // remains, keep it only for a set bit.
      const unsigned set = (mask[b] >> j) & 1u;
      const unsigned word =
          pos + 2 <= data_len ? data[pos] | (data[pos + 1] << 8) : 0u;
      out[8 * b + j] = static_cast<nn::Value>(
          static_cast<std::uint16_t>(word & (0u - set)));
      pos += 2 * set;
    }
  }
  return pos;
}

constexpr CodecOps kScalarOps = {
    util::KernelIsa::Scalar,
    zero_run_scalar,
    nonzero_run_scalar,
    bitmask_pack_scalar,
    bitmask_unpack_scalar,
};

}  // namespace

const CodecOps& scalar_codec_ops() { return kScalarOps; }

const CodecOps& codec_ops_for(util::KernelIsa isa) {
  MOCHA_CHECK(util::isa_supported(isa),
              "codec ISA " << util::isa_name(isa)
                           << " not runnable on this host/build");
  switch (isa) {
    case util::KernelIsa::Scalar:
      return scalar_codec_ops();
    case util::KernelIsa::Avx2:
#if MOCHA_KERNEL_AVX2
      return avx2_codec_ops();
#else
      break;
#endif
    case util::KernelIsa::Neon:
#if MOCHA_KERNEL_NEON
      return neon_codec_ops();
#else
      break;
#endif
  }
  MOCHA_UNREACHABLE("isa_supported admitted an uncompiled variant");
}

const CodecOps& active_codec_ops() {
  return codec_ops_for(util::active_isa());
}

std::uint32_t fnv1a_lanes(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint32_t kBasis = 2166136261u;
  constexpr std::uint32_t kPrime = 16777619u;
  std::uint32_t lane[8] = {kBasis, kBasis, kBasis, kBasis,
                           kBasis, kBasis, kBasis, kBasis};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int j = 0; j < 8; ++j) {
      lane[j] = (lane[j] ^ p[i + j]) * kPrime;
    }
  }
  for (int j = 0; i < n; ++i, ++j) {
    lane[j] = (lane[j] ^ p[i]) * kPrime;
  }
  std::uint32_t hash = kBasis;
  for (std::uint32_t l : lane) {
    hash = (hash ^ l) * kPrime;
  }
  return hash;
}

}  // namespace mocha::compress
