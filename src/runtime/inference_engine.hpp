// Batched, allocation-free inference over a LoweredModel.
//
// The per-call LoweredModel::Infer path used to allocate a fresh PHV and
// output vectors for every packet. The engine instead preallocates a pool
// of PHVs at construction and, per batch, (1) copies the parse-time image
// (zeros plus parser inits, checked once at construction) into each of up
// to `batch_capacity` PHVs and writes their clamped features, (2) runs the
// whole batch through the pipeline's schedule unit by unit
// (dataplane::Pipeline::ProcessBatch: each SumReduce walks its Map tables,
// then adds every slice into a row's accumulators in one pass), and (3)
// reads the raw / dequantized outputs into caller-provided buffers.
// Nothing is allocated after construction on the span-based paths.
//
// Bit-exactness: every packet sees exactly the writes LoweredModel::InferRaw
// performed — parse-time image, clamped features, stages in order — so
// batched outputs are bit-identical to N sequential per-call inferences
// (asserted by tests/test_inference_engine.cpp). LoweredModel::Infer and
// InferRaw are themselves reimplemented on a capacity-1 engine.
//
// Thread-safety: an engine owns mutable scratch state; use one engine per
// thread. The engine borrows the LoweredModel and must not outlive it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/phv.hpp"
#include "runtime/lowering.hpp"

namespace pegasus::runtime {

class InferenceEngine {
 public:
  static constexpr std::size_t kDefaultBatchCapacity = 64;

  /// Cumulative work counters, aggregated by StreamServerStats per shard.
  /// `chunks` counts pipeline batch launches (<= batch_capacity packets
  /// each); `table_hits` is summed over Pipeline::ProcessBatch.
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t chunks = 0;
    std::uint64_t table_hits = 0;

    Stats& operator+=(const Stats& o) {
      packets += o.packets;
      chunks += o.chunks;
      table_hits += o.table_hits;
      return *this;
    }
  };

  /// Throws std::logic_error for a pipeline with unsealed tables, and
  /// std::out_of_range for a parser init outside the PHV value domain or an
  /// input, output or init field outside the layout.
  explicit InferenceEngine(const LoweredModel& model,
                           std::size_t batch_capacity = kDefaultBatchCapacity);

  std::size_t batch_capacity() const { return pool_.size(); }
  std::size_t input_dim() const { return model_->InputDim(); }
  std::size_t output_dim() const { return model_->OutputDim(); }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// Batched raw inference. `features` holds `n` rows of input_dim floats
  /// (row-major); `out_raw` must hold n * output_dim words. Batches larger
  /// than the capacity are processed in capacity-sized chunks. Throws
  /// std::invalid_argument on size mismatches, and std::logic_error,
  /// before writing any PHV, when a placed table changed since the engine
  /// was built (its Pipeline::Generation() moved).
  void InferRaw(std::span<const float> features, std::size_t n,
                std::span<std::int64_t> out_raw);

  /// Batched dequantized inference; `out` must hold n * output_dim floats.
  void Infer(std::span<const float> features, std::size_t n,
             std::span<float> out);

  /// Single-packet conveniences reusing the pool (only the returned vector
  /// is allocated). These are what LoweredModel::Infer/InferRaw delegate to.
  std::vector<std::int64_t> InferRaw(std::span<const float> features);
  std::vector<float> Infer(std::span<const float> features);

 private:
  /// Fills + runs pool_[0..n) for rows starting at `rows`; outputs are read
  /// back by the caller.
  void RunChunk(const float* rows, std::size_t n);

  const LoweredModel* model_;
  /// Every field's parse-time value: zero, or its parser init.
  std::vector<std::int32_t> image_;
  std::vector<dataplane::Phv> pool_;
  /// Per-chunk raw outputs for the dequantizing Infer path.
  std::vector<std::int64_t> raw_scratch_;
  Stats stats_;
  /// Pipeline::Generation() snapshot from construction; RunChunk checks it
  /// unchanged in every build (a placed table patched under a live engine
  /// throws), at one O(tables) Generation() per chunk.
  std::uint64_t pipeline_generation_ = 0;
};

}  // namespace pegasus::runtime
