// Functional execution of a NetworkPlan on real tensors.
//
// Interprets the same tile grids, fusion pyramids and channel/map passes the
// schedule builder turns into task graphs — but actually computes the
// fixed-point arithmetic, so the result can be compared element-exact
// against the naive reference kernels. This is the proof that the locality
// transformations (halo handling, pass accumulation, fused recompute) are
// *correct*, not merely accounted for.
//
// When a stream has a codec assigned, the executor encodes the real data
// through the codec, verifies the coded bytes decode element-exact
// (Codec::first_mismatch) and records the measured coded sizes, which tests
// compare against the analytical estimators the cost model relies on.
#pragma once

#include <vector>

#include "dataflow/plan.hpp"
#include "dataflow/streams.hpp"
#include "nn/quant.hpp"
#include "nn/reference.hpp"
#include "util/parallel.hpp"

namespace mocha::dataflow {

/// Measured stream sizes for one layer (bytes). Zero when no data crossed
/// that stream (e.g. kernel bytes of a pooling layer).
struct MeasuredStreams {
  std::int64_t ifmap_raw = 0;
  std::int64_t ifmap_coded = 0;
  std::int64_t kernel_raw = 0;
  std::int64_t kernel_coded = 0;
  std::int64_t ofmap_raw = 0;
  std::int64_t ofmap_coded = 0;
};

struct FunctionalResult {
  /// Output of every layer, index-aligned with net.layers.
  std::vector<nn::ValueTensor> outputs;
  /// Measured zero fractions per layer (ifmap / kernel / ofmap).
  std::vector<LayerStreamStats> measured_stats;
  /// Measured codec behaviour per layer.
  std::vector<MeasuredStreams> streams;
  /// Coded streams the integrity check rejected and the executor re-fetched
  /// uncompressed (codec_flip_rate > 0 only). Each retry prices its stream
  /// at raw bytes; outputs are unaffected.
  std::int64_t codec_retries = 0;
};

struct FunctionalOptions {
  nn::Quant quant;
  /// Encode every stream through its real codec and record the coded
  /// sizes (MeasuredStreams). Serving without codec faults and
  /// core::calibrate turn it off: they need the outputs and the measured
  /// sparsities, not the coded sizes.
  bool exercise_codecs = true;
  /// With exercise_codecs, also check that every coded stream decodes to
  /// the input element-exact (Codec::first_mismatch). The measured coded
  /// byte counts are identical either way. Only serving turns this off, to
  /// price streams at encode-only cost; tests and perfbench's exec workload
  /// keep the full round-trip proof.
  bool verify_codecs = true;
  /// Transient-fault injection on the compressed path: per-byte probability
  /// that a framed coded stream suffers a single-bit flip in flight
  /// (fault::FaultModel::codec_bit_flip_rate). When > 0, coded streams go
  /// through the framed integrity envelope (compress/codec.hpp); a rejected
  /// frame is re-fetched uncompressed (raw bytes, codec_retries). Zero —
  /// the default — leaves the measurement path byte-identical to before:
  /// frames and their headers never touch it.
  double codec_flip_rate = 0.0;
  /// Seed for the injected flips. Streams draw from per-tile generators
  /// derived from this seed, so results are deterministic and independent
  /// of the thread count.
  std::uint64_t codec_fault_seed = 1;
  /// Cooperative cancellation: polled between tiles (and at parallel chunk
  /// boundaries) so an expired deadline or a client hang-up stops consuming
  /// compute mid-layer. When the token fires, run_functional abandons the
  /// remaining work and throws util::Cancelled; partial outputs are
  /// discarded by the caller. Null (the default) means uncancellable.
  const util::CancelToken* cancel = nullptr;
  /// Ceiling on corrupted-stream re-fetches (the codec_retries path) for
  /// this run. Negative — the default — keeps the executor self-healing:
  /// every rejected frame is silently re-fetched uncompressed. A budget
  /// of N makes the (N+1)-th rejection throw compress::DecodeError instead,
  /// surfacing persistent data damage to callers with their own recovery
  /// policy (the serving runtime's retry-with-backoff; see src/serve/).
  std::int64_t codec_retry_budget = -1;
};

/// Executes `net` under `plan` on a real input. `weights[i]` must match
/// net.layers[i].weight_shape() (empty for pooling layers).
FunctionalResult run_functional(const nn::Network& net,
                                const NetworkPlan& plan,
                                const nn::ValueTensor& input,
                                const std::vector<nn::ValueTensor>& weights,
                                const FunctionalOptions& options = {});

}  // namespace mocha::dataflow
