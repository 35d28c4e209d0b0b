#include "nn/reference.hpp"

#include "nn/kernels.hpp"
#include "util/parallel.hpp"

namespace mocha::nn {

// The reference entry points validate shapes, then run the packed
// microkernels (nn/kernels.hpp) over the whole output: the same halo-copy,
// packed-weight block kernels the tiled executor uses, which keeps exactly
// one compute implementation in the tree. They shard output channels
// across the thread pool; disjoint slices make the parallel result
// bit-identical to the serial walk, and integer arithmetic makes the packed
// loops bit-identical to the naive loop nests (tests/nn/kernels_test.cpp
// keeps a naive oracle to enforce this).

namespace {

/// Runs the whole output of `layer`: weights packed once, output channels
/// split on the pool in whole kMapBlock blocks (a chunk boundary inside a
/// block would compute that block twice).
ValueTensor run_whole_layer(const LayerSpec& layer,
                            const kernels::PaddedInput& in,
                            const ValueTensor& weights, const Quant& quant) {
  ValueTensor out(layer.output_shape());
  const kernels::PackedWeights packed(layer, weights);
  const Index maps = layer.out_channels();
  const Index block = kernels::kMapBlock;
  const Index grain =
      (util::default_grain(maps, block) + block - 1) / block * block;
  util::parallel_for(0, maps, grain, [&](Index m_begin, Index m_end) {
    kernels::run_layer_region(layer, in, packed, {0, layer.out_h()},
                              {0, layer.out_w()}, m_begin, m_end, quant, &out,
                              0, 0);
  });
  return out;
}

}  // namespace

ValueTensor conv2d_ref(const ValueTensor& input, const ValueTensor& weights,
                       const LayerSpec& layer, const Quant& quant) {
  MOCHA_CHECK(layer.kind == LayerKind::Conv, layer.name << ": not a conv");
  MOCHA_CHECK(input.shape() == layer.input_shape(),
              layer.name << ": input shape mismatch");
  MOCHA_CHECK(weights.shape() == layer.weight_shape(),
              layer.name << ": weight shape mismatch");

  return run_whole_layer(
      layer, kernels::PaddedInput::full(input, layer.in_h, layer.in_w),
      weights, quant);
}

ValueTensor depthwise_ref(const ValueTensor& input, const ValueTensor& weights,
                          const LayerSpec& layer, const Quant& quant) {
  MOCHA_CHECK(layer.kind == LayerKind::DepthwiseConv,
              layer.name << ": not a depthwise conv");
  MOCHA_CHECK(input.shape() == layer.input_shape(),
              layer.name << ": input shape mismatch");
  MOCHA_CHECK(weights.shape() == layer.weight_shape(),
              layer.name << ": weight shape mismatch");

  return run_whole_layer(
      layer, kernels::PaddedInput::full(input, layer.in_h, layer.in_w),
      weights, quant);
}

ValueTensor pool_ref(const ValueTensor& input, const LayerSpec& layer) {
  MOCHA_CHECK(layer.kind == LayerKind::Pool, layer.name << ": not a pool");
  MOCHA_CHECK(input.shape() == layer.input_shape(),
              layer.name << ": input shape mismatch");

  return run_whole_layer(
      layer, kernels::PaddedInput::full(input, layer.in_h, layer.in_w),
      ValueTensor{}, Quant{});
}

ValueTensor fc_ref(const ValueTensor& input, const ValueTensor& weights,
                   const LayerSpec& layer, const Quant& quant) {
  MOCHA_CHECK(layer.kind == LayerKind::FullyConnected,
              layer.name << ": not an fc layer");
  const Index fan_in = layer.ifmap_elems();
  MOCHA_CHECK(input.size() == fan_in, layer.name << ": fan-in mismatch");
  MOCHA_CHECK(weights.shape() == layer.weight_shape(),
              layer.name << ": weight shape mismatch");

  return run_whole_layer(
      layer,
      kernels::PaddedInput::full(input, input.shape().h, input.shape().w),
      weights, quant);
}

ValueTensor run_layer_ref(const ValueTensor& input, const ValueTensor& weights,
                          const LayerSpec& layer, const Quant& quant) {
  switch (layer.kind) {
    case LayerKind::Conv:
      return conv2d_ref(input, weights, layer, quant);
    case LayerKind::DepthwiseConv:
      return depthwise_ref(input, weights, layer, quant);
    case LayerKind::Pool:
      return pool_ref(input, layer);
    case LayerKind::FullyConnected:
      return fc_ref(input, weights, layer, quant);
  }
  MOCHA_UNREACHABLE("bad LayerKind");
}

std::vector<ValueTensor> run_network_ref(
    const Network& net, const ValueTensor& input,
    const std::vector<ValueTensor>& weights, const Quant& quant) {
  MOCHA_CHECK(weights.size() == net.layers.size(),
              net.name << ": weights for " << weights.size() << " of "
                       << net.layers.size() << " layers");
  std::vector<ValueTensor> outputs;
  outputs.reserve(net.layers.size());
  const ValueTensor* current = &input;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const LayerSpec& layer = net.layers[i];
    ValueTensor activation;
    if (layer.kind == LayerKind::FullyConnected &&
        current->shape() != layer.input_shape()) {
      // Flatten the spatial predecessor into the FC's input layout.
      MOCHA_CHECK(current->size() == layer.ifmap_elems(),
                  layer.name << ": cannot flatten predecessor");
      activation = ValueTensor(layer.input_shape(), current->storage());
      current = &activation;
    }
    outputs.push_back(run_layer_ref(*current, weights[i], layer, quant));
    current = &outputs.back();
  }
  return outputs;
}

}  // namespace mocha::nn
