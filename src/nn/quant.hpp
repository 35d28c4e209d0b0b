// Fixed-point requantization shared by the reference kernels and the tiled
// executor. Both must perform bit-identical arithmetic for the functional
// verification to be meaningful, so the rule lives in exactly one place.
#pragma once

#include <algorithm>

#include "nn/tensor.hpp"

namespace mocha::nn {

/// Q(16-frac_shift).frac_shift fixed point: accumulators are rescaled by an
/// arithmetic right shift and saturated to the Value range. ReLU applies
/// before the shift (equivalent to after, for a non-negative threshold).
struct Quant {
  int frac_shift = 8;

  Value requantize(Accum acc, bool relu) const {
    // A select, not a branch on the sign: about half of a layer's sums are
    // negative in no predictable order, so a branch mispredicts often.
    if (relu) acc = std::max<Accum>(acc, 0);
    // Arithmetic shift on a signed value: round toward negative infinity,
    // matching what a hardware barrel shifter does.
    const Accum shifted = acc >> frac_shift;
    const Accum lo = std::numeric_limits<Value>::min();
    const Accum hi = std::numeric_limits<Value>::max();
    return static_cast<Value>(std::clamp(shifted, lo, hi));
  }
};

}  // namespace mocha::nn
