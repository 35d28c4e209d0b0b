#include "dataflow/executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <optional>

#include "dataflow/tiling.hpp"
#include "nn/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mocha::dataflow {

namespace {

using nn::LayerKind;
using nn::LayerSpec;
using nn::Value;
using nn::ValueTensor;

/// Stream identity -> Rng seed. Each (stream tag, layer/group, tile) gets
/// its own generator so the injected flips are deterministic and
/// independent of how tiles land on threads; the Rng constructor's
/// splitmix64 decorrelates the nearby seeds this mix produces.
enum class StreamTag : std::uint64_t { Ifmap = 0, Kernel = 1, Ofmap = 2 };

std::uint64_t stream_seed(std::uint64_t base, StreamTag tag, std::uint64_t a,
                          std::uint64_t b) {
  return base + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(tag) + 1) +
         0xbf58476d1ce4e5b9ull * (a + 1) + 0x94d049bb133111ebull * (b + 1);
}

/// Prices one run_functional call's coded streams — kernel, ifmap tile and
/// ofmap alike — and owns the run's corrupted-stream re-fetch budget.
/// Thread-safe: ifmap tiles are measured from pool threads.
class StreamMeter {
 public:
  explicit StreamMeter(const FunctionalOptions& options) : options_(options) {
    for (const compress::CodecKind kind : compress::kAllCodecKinds) {
      codecs_[static_cast<std::size_t>(kind)] = compress::make_codec(kind);
    }
  }

  /// Coded bytes of stream (tag, a, b), which carries `values` through
  /// codec `kind`. Flips only strike data moving through a codec engine,
  /// so uncoded streams and fault-free runs take the exact measurement
  /// path; the others take the fault-injection path.
  std::int64_t measure(compress::CodecKind kind, std::span<const Value> values,
                       StreamTag tag, std::uint64_t a, std::uint64_t b = 0) {
    const compress::Codec& codec = *codecs_[static_cast<std::size_t>(kind)];
    if (options_.codec_flip_rate > 0.0 && kind != compress::CodecKind::None) {
      return measure_with_faults(
          codec, values, stream_seed(options_.codec_fault_seed, tag, a, b));
    }
    return measure_coded_bytes(codec, values);
  }

  /// Streams re-fetched uncompressed so far.
  std::int64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

 private:
  /// Encodes through the codec and returns the coded byte count. With
  /// options.verify_codecs the stream is also checked to decode
  /// element-exact (Codec::first_mismatch); serving disables that to
  /// measure coded bytes at encode-only cost — the byte counts, and
  /// therefore the bench checksums, are identical either way.
  std::int64_t measure_coded_bytes(const compress::Codec& codec,
                                   std::span<const Value> values) const {
    MOCHA_TRACE_SCOPE("codec.roundtrip", "codec");
    const std::vector<std::uint8_t> coded = codec.encode(values);
    if (options_.verify_codecs) {
      const std::optional<std::size_t> diff =
          codec.first_mismatch(coded, values);
      MOCHA_CHECK(!diff.has_value(),
                  codec.name() << " round trip mismatch at " << *diff);
    }
    MOCHA_METRIC_ADD("executor.codec_bytes_in",
                     static_cast<std::int64_t>(values.size() * sizeof(Value)));
    MOCHA_METRIC_ADD("executor.codec_bytes_out",
                     static_cast<std::int64_t>(coded.size()));
    return static_cast<std::int64_t>(coded.size());
  }

  /// Deployment-path measurement under transient faults: frame the coded
  /// stream (compress/codec.hpp), flip a random bit in each byte with
  /// probability codec_flip_rate, and let decode_framed's integrity check
  /// decide. A rejected frame means the tile is re-fetched uncompressed —
  /// the stream is priced at raw bytes and the retry counted (retries() and
  /// the fault.codec_retries metric) against the run's budget. The caller
  /// always computes from the original tensors, so corruption costs
  /// bandwidth, never correctness — until the budget trips and the run
  /// fails typed.
  std::int64_t measure_with_faults(const compress::Codec& codec,
                                   std::span<const Value> values,
                                   std::uint64_t seed) {
    MOCHA_TRACE_SCOPE("codec.faulty_roundtrip", "codec");
    std::vector<std::uint8_t> framed = compress::encode_framed(codec, values);
    const auto framed_bytes = static_cast<std::int64_t>(framed.size());
    util::Rng rng(seed);
    for (std::uint8_t& b : framed) {
      if (rng.bernoulli(options_.codec_flip_rate)) {
        b ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
    }
    bool intact = false;
    try {
      const std::vector<Value> back =
          compress::decode_framed(codec, framed, values.size());
      // The checksum catches every single-byte change; multi-byte
      // collisions are theoretically possible, so verify against the
      // original (which the hardware's retry logic approximates with
      // stronger end-to-end checks).
      intact = std::equal(back.begin(), back.end(), values.begin());
    } catch (const compress::DecodeError&) {
      intact = false;
    }
    if (intact) {
      MOCHA_METRIC_ADD("executor.codec_bytes_out", framed_bytes);
      return framed_bytes;
    }
    spend_retry();
    MOCHA_METRIC_ADD("fault.codec_retries", 1);
    const auto raw_bytes =
        static_cast<std::int64_t>(values.size() * sizeof(Value));
    MOCHA_METRIC_ADD("executor.codec_bytes_out", raw_bytes);
    return raw_bytes;
  }

  /// Counts one corrupted-stream re-fetch; throws DecodeError once the
  /// run's codec_retry_budget (< 0: unlimited) is exhausted, so persistent
  /// damage escalates to the caller. Whether the budget trips is
  /// deterministic (the injected flips are stream-seeded); only which tile
  /// observes the exhaustion first varies with scheduling.
  void spend_retry() {
    const std::int64_t n =
        retries_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::int64_t budget = options_.codec_retry_budget;
    if (budget >= 0 && n > budget) {
      throw compress::DecodeError(
          "codec retry budget exhausted: " + std::to_string(n) +
          " corrupted streams > budget " + std::to_string(budget));
    }
  }

  const FunctionalOptions& options_;
  std::array<std::unique_ptr<compress::Codec>, std::size(compress::kAllCodecKinds)>
      codecs_;
  std::atomic<std::int64_t> retries_{0};
};

/// Extracts the (clamped) input region of `tensor` as a flat stream, the
/// exact elements a tile load would transfer. Fills the caller's scratch
/// buffer so the per-tile measurement path allocates nothing steady-state.
void extract_region(const ValueTensor& tensor, Index c_begin, Index c_end,
                    Range ry, Range rx, std::vector<Value>* out) {
  MOCHA_CHECK(ry.begin >= 0 && ry.end() <= tensor.shape().h && rx.begin >= 0 &&
                  rx.end() <= tensor.shape().w && c_begin >= 0 &&
                  c_end <= tensor.shape().c,
              "extract region outside tensor");
  const auto needed =
      static_cast<std::size_t>((c_end - c_begin) * ry.size * rx.size);
  if (out->capacity() >= needed) {
    MOCHA_METRIC_ADD("executor.scratch_reuse_hits", 1);
  }
  out->resize(needed);
  Value* dst = out->data();
  for (Index c = c_begin; c < c_end; ++c) {
    for (Index y = ry.begin; y < ry.end(); ++y) {
      const Value* src = &tensor.at_unchecked(0, c, y, rx.begin);
      dst = std::copy(src, src + rx.size, dst);
    }
  }
}

/// Stage 1 of a functional run: per-layer kernel-stream measurement.
void measure_kernel_streams(const nn::Network& net, const NetworkPlan& plan,
                            const std::vector<ValueTensor>& weights,
                            const FunctionalOptions& options,
                            FunctionalResult* result, StreamMeter* meter) {
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    if (!net.layers[i].has_weights()) continue;
    MOCHA_CHECK(weights[i].shape() == net.layers[i].weight_shape(),
                net.layers[i].name << ": weight shape mismatch");
    result->measured_stats[i].kernel_sparsity = weights[i].sparsity();
    result->streams[i].kernel_raw =
        weights[i].size() * static_cast<Index>(sizeof(Value));
    if (options.exercise_codecs) {
      result->streams[i].kernel_coded = meter->measure(
          plan.layers[i].kernel_codec,
          {weights[i].data(), static_cast<std::size_t>(weights[i].size())},
          StreamTag::Kernel, i);
    }
  }
}

/// Every layer's weights in the layout its kernel reads (conv packed into
/// map-block lanes), built once per run_functional call and shared by every
/// work item.
std::vector<nn::kernels::PackedWeights> pack_weights(
    const nn::Network& net, const std::vector<ValueTensor>& weights) {
  MOCHA_TRACE_SCOPE("executor.pack_weights", "executor");
  std::vector<nn::kernels::PackedWeights> packed;
  packed.reserve(net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    packed.emplace_back(net.layers[i], weights[i]);
  }
  return packed;
}

/// A stage's work items aim at this many per pool lane.
constexpr Index kItemsPerLane = 4;

/// Output-channel slices per tile for a stage of `n_tiles` tiles over
/// `map_blocks` kMapBlock-map blocks: one when the tiles alone give every
/// lane kItemsPerLane items (and always at pool width 1), otherwise enough
/// slices for about that many, at least one block each.
Index slices_per_tile(Index n_tiles, Index map_blocks, int lanes) {
  if (lanes == 1) return 1;
  const Index wanted = (kItemsPerLane * lanes + n_tiles - 1) / n_tiles;
  return std::clamp<Index>(wanted, 1, map_blocks);
}

/// Stage 2: the fusion-group sweep — tile compute, ifmap/ofmap stream
/// measurement, output commit. Owns everything image-specific.
///
/// A group runs stage by stage (one stage per member layer), and each stage
/// is one parallel_for over (tile, output-channel slice) items, so a layer
/// with fewer tiles than pool lanes still fills the pool: the pool runs a
/// worker's nested loops inline, so channels split inside a tile would
/// leave the other lanes idle. Determinism:
///  * tail items write their channels of their tile straight into the
///    tail's output: tiles split it by position and slices by channel, so
///    no two items write one element;
///  * intermediate stages write per-tile buffers, which the next stage
///    reads through a zero-padded view with origin checking (the fused-
///    pyramid geometry verification); after the stage they are committed
///    into the full output in tile order. Halo regions overlap, and every
///    tile recomputes them to identical values;
///  * per-tile coded byte counts land in tile-indexed slots and are summed
///    in tile order, bit-identical to the serial sweep.
void run_groups(const nn::Network& net, const NetworkPlan& plan,
                const ValueTensor& input,
                const std::vector<nn::kernels::PackedWeights>& weights,
                const FunctionalOptions& options, FunctionalResult* result,
                StreamMeter* meter) {
  ValueTensor flattened;  // staging for spatial->FC transitions
  const ValueTensor* current = &input;
  const int lanes = util::ThreadPool::global_threads();

  for (const NetworkPlan::Group& group : plan.fusion_groups()) {
    MOCHA_TRACE_SCOPE("executor.group", "executor");
    if (options.cancel != nullptr) options.cancel->check();
    const LayerSpec& head = net.layers[group.first];
    // Flatten a spatial predecessor feeding an FC head.
    if (head.kind == LayerKind::FullyConnected &&
        current->shape() != head.input_shape()) {
      MOCHA_CHECK(current->size() == head.ifmap_elems(),
                  head.name << ": cannot flatten predecessor");
      flattened = ValueTensor(head.input_shape(), current->storage());
      current = &flattened;
    }
    MOCHA_CHECK(current->shape() == head.input_shape(),
                head.name << ": group input shape mismatch");

    const LayerSpec& tail = net.layers[group.last];
    const LayerPlan& tail_plan = plan.layers[group.last];

    // Allocate every member's full output (the fused intermediates are
    // written too, so per-layer outputs remain comparable to the reference).
    for (std::size_t l = group.first; l <= group.last; ++l) {
      result->outputs[l] = ValueTensor(net.layers[l].output_shape());
    }

    result->measured_stats[group.first].ifmap_sparsity = current->sparsity();
    result->streams[group.first].ifmap_raw =
        current->size() * static_cast<Index>(sizeof(Value));

    const auto grid = tile_grid(tail, tail_plan.tile.th, tail_plan.tile.tw);
    const Index n_tiles = static_cast<Index>(grid.size());
    std::vector<std::vector<TileGeometry>> pyramids;
    pyramids.reserve(grid.size());
    for (const TileGeometry& tail_geo : grid) {
      pyramids.push_back(fused_pyramid(net, group.first, group.last,
                                       tail_geo.out_y, tail_geo.out_x));
    }

    std::vector<std::int64_t> tile_coded(grid.size(), 0);
    // Head input region of tile ti: measure the coded transfer.
    const auto measure_ifmap = [&](Index ti, std::vector<Value>* scratch) {
      const auto t = static_cast<std::size_t>(ti);
      extract_region(*current, 0, head.in_c, pyramids[t].front().in_y,
                     pyramids[t].front().in_x, scratch);
      tile_coded[t] = meter->measure(plan.layers[group.first].ifmap_codec,
                                     *scratch, StreamTag::Ifmap, group.first,
                                     static_cast<std::uint64_t>(ti));
    };

    std::vector<ValueTensor> stage_tiles;  // the previous stage's tiles
    for (std::size_t l = group.first; l <= group.last; ++l) {
      const LayerSpec& layer = net.layers[l];
      const std::size_t stage = l - group.first;
      const Index maps = layer.out_channels();
      const Index blocks =
          (maps + nn::kernels::kMapBlock - 1) / nn::kernels::kMapBlock;
      const Index slices = slices_per_tile(n_tiles, blocks, lanes);
      std::vector<ValueTensor> out_tiles;
      if (l < group.last) {
        for (const auto& pyramid : pyramids) {
          const TileGeometry& geo = pyramid[stage];
          out_tiles.emplace_back(
              nn::Shape4{1, maps, geo.out_y.size, geo.out_x.size});
        }
      }

      const auto run_items = [&](Index item_begin, Index item_end) {
        std::vector<Value> scratch;  // ifmap stream, reused across items
        for (Index item = item_begin; item < item_end; ++item) {
          MOCHA_TRACE_SCOPE("executor.item", "executor");
          // Cooperative cancellation per item: a fired token stops this
          // chunk mid-range; the pool's exception path cancels the
          // remaining chunks and rethrows Cancelled on the submitter.
          if (options.cancel != nullptr) options.cancel->check();
          const Index ti = item / slices;
          const Index si = item % slices;
          const auto t = static_cast<std::size_t>(ti);
          if (stage == 0 && si == 0) {
            MOCHA_METRIC_ADD("executor.tiles_computed", 1);
            if (options.exercise_codecs) measure_ifmap(ti, &scratch);
          }
          const TileGeometry& geo = pyramids[t][stage];
          nn::kernels::PaddedInput in;
          if (stage == 0) {
            in = nn::kernels::PaddedInput::full(*current, layer.in_h,
                                                layer.in_w);
          } else {
            const TileGeometry& prev = pyramids[t][stage - 1];
            in = nn::kernels::PaddedInput::local(
                stage_tiles[t], prev.out_y.begin, prev.out_x.begin,
                layer.in_h, layer.in_w);
          }
          const Index m_begin = nn::kernels::kMapBlock * (si * blocks / slices);
          const Index m_end = std::min(
              maps, nn::kernels::kMapBlock * ((si + 1) * blocks / slices));
          // The tail writes its tile of the full output in place; an
          // intermediate stage writes the tile's own buffer.
          const bool in_place = l == group.last;
          nn::kernels::run_layer_region(
              layer, in, weights[l], {geo.out_y.begin, geo.out_y.size},
              {geo.out_x.begin, geo.out_x.size}, m_begin, m_end, options.quant,
              in_place ? &result->outputs[l] : &out_tiles[t],
              in_place ? geo.out_y.begin : 0, in_place ? geo.out_x.begin : 0);
        }
      };
      const Index items = n_tiles * slices;
      util::parallel_for(0, items, util::default_grain(items), run_items,
                         options.cancel);

      if (l < group.last) {
        // Commit this stage's tiles into its full output tensor.
        ValueTensor& full = result->outputs[l];
        for (std::size_t t = 0; t < out_tiles.size(); ++t) {
          const TileGeometry& geo = pyramids[t][stage];
          for (Index c = 0; c < maps; ++c) {
            for (Index y = 0; y < geo.out_y.size; ++y) {
              const Value* src = &out_tiles[t].at_unchecked(0, c, y, 0);
              Value* dst = &full.at_unchecked(0, c, geo.out_y.begin + y,
                                              geo.out_x.begin);
              std::copy(src, src + geo.out_x.size, dst);
            }
          }
        }
        stage_tiles = std::move(out_tiles);
      }
    }
    std::int64_t ifmap_coded_total = 0;
    for (std::int64_t coded : tile_coded) ifmap_coded_total += coded;
    result->streams[group.first].ifmap_coded = ifmap_coded_total;

    // Tail output stream measurement.
    const ValueTensor& tail_out = result->outputs[group.last];
    result->measured_stats[group.last].ofmap_sparsity = tail_out.sparsity();
    result->streams[group.last].ofmap_raw =
        tail_out.size() * static_cast<Index>(sizeof(Value));
    if (options.exercise_codecs) {
      result->streams[group.last].ofmap_coded = meter->measure(
          tail_plan.ofmap_codec,
          {tail_out.data(), static_cast<std::size_t>(tail_out.size())},
          StreamTag::Ofmap, group.last);
    }

    current = &result->outputs[group.last];
  }
}

}  // namespace

FunctionalResult run_functional(const nn::Network& net,
                                const NetworkPlan& plan,
                                const nn::ValueTensor& input,
                                const std::vector<nn::ValueTensor>& weights,
                                const FunctionalOptions& options) {
  net.validate();
  plan.validate(net);
  MOCHA_CHECK(weights.size() == net.layers.size(), "weights size mismatch");

  FunctionalResult result;
  result.outputs.resize(net.layers.size());
  result.measured_stats.resize(net.layers.size());
  result.streams.resize(net.layers.size());

  StreamMeter meter(options);
  measure_kernel_streams(net, plan, weights, options, &result, &meter);
  run_groups(net, plan, input, pack_weights(net, weights), options, &result,
             &meter);
  result.codec_retries = meter.retries();
  return result;
}

}  // namespace mocha::dataflow
