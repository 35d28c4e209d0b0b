// Whole-layer reference entry points for the CNN operators.
//
// The tiled/fused/parallel executor is verified against these: each runs
// kernels::run_layer_region over the layer's whole output, with no tiling,
// fusion or pass splitting, and the shared requantization rule
// (nn/quant.hpp). The naive loop-nest oracle that the kernels themselves
// are checked against lives in tests/nn/kernels_test.cpp.
#pragma once

#include <vector>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"

namespace mocha::nn {

/// 2-D convolution. input: [1, in_c, H, W]; weights: [out_c, in_c, K, K].
/// Zero padding, fused optional ReLU, fixed-point requantization.
ValueTensor conv2d_ref(const ValueTensor& input, const ValueTensor& weights,
                       const LayerSpec& layer, const Quant& quant);

/// Depthwise convolution: channel c of the output is channel c of the
/// input convolved with its own k x k filter. weights: [C, 1, K, K].
ValueTensor depthwise_ref(const ValueTensor& input, const ValueTensor& weights,
                          const LayerSpec& layer, const Quant& quant);

/// Max/average pooling. input: [1, C, H, W].
ValueTensor pool_ref(const ValueTensor& input, const LayerSpec& layer);

/// Fully connected layer. input flattened; weights: [out_c, fan_in, 1, 1].
ValueTensor fc_ref(const ValueTensor& input, const ValueTensor& weights,
                   const LayerSpec& layer, const Quant& quant);

/// Dispatches on layer.kind. Pool layers ignore `weights` (may be empty).
ValueTensor run_layer_ref(const ValueTensor& input, const ValueTensor& weights,
                          const LayerSpec& layer, const Quant& quant);

/// Runs a whole network; returns the output of every layer (index-aligned
/// with net.layers). weights[i] must match net.layers[i].weight_shape().
std::vector<ValueTensor> run_network_ref(
    const Network& net, const ValueTensor& input,
    const std::vector<ValueTensor>& weights, const Quant& quant);

}  // namespace mocha::nn
