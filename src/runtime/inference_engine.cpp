#include "runtime/inference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fixedpoint/fixedpoint.hpp"

namespace pegasus::runtime {

InferenceEngine::InferenceEngine(const LoweredModel& model,
                                 std::size_t batch_capacity)
    : model_(&model) {
  if (batch_capacity == 0) {
    throw std::invalid_argument("InferenceEngine: batch_capacity must be > 0");
  }
  // The parse-time image, checked once here: Set rejects a parser init on
  // an unknown field or outside the PHV value domain. Rows then copy it and
  // write their inputs (and read outputs) through Phv::values() unchecked.
  dataplane::Phv image(model.layout());
  for (const auto& [field, value] : model.parser_inits()) {
    image.Set(field, value);
  }
  image_.assign(image.values().begin(), image.values().end());
  const auto known = [&](dataplane::FieldId f) { return f < image_.size(); };
  if (!std::ranges::all_of(model.input_fields(), known) ||
      !std::ranges::all_of(model.output_fields(), known)) {
    throw std::out_of_range("InferenceEngine: I/O field outside the PHV");
  }
  pool_.reserve(batch_capacity);
  for (std::size_t i = 0; i < batch_capacity; ++i) {
    pool_.emplace_back(model.layout());
  }
  raw_scratch_.resize(batch_capacity * model.OutputDim());
  pipeline_generation_ = model.pipeline().Generation();
}

void InferenceEngine::RunChunk(const float* rows, std::size_t n) {
  // Stale-view guard, in every build: no placed table may have been
  // patched since this engine snapshotted the pipeline.
  if (model_->pipeline().Generation() != pipeline_generation_) {
    throw std::logic_error(
        "InferenceEngine: pipeline mutated under a live engine");
  }
  const auto& input_fields = model_->input_fields();
  const std::size_t in_dim = input_fields.size();
  // Lowering caps input_bits at 30, so every clamped input lies in the
  // PHV value domain.
  const std::int64_t dmax = (std::int64_t{1} << model_->input_bits()) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    std::int32_t* fields = pool_[i].values().data();
    std::copy(image_.begin(), image_.end(), fields);
    const float* row = rows + i * in_dim;
    for (std::size_t d = 0; d < in_dim; ++d) {
      fields[input_fields[d]] = static_cast<std::int32_t>(
          std::clamp<std::int64_t>(std::llround(row[d]), 0, dmax));
    }
  }
  stats_.table_hits +=
      model_->pipeline().ProcessBatch(std::span<dataplane::Phv>(pool_.data(), n));
  stats_.packets += n;
  ++stats_.chunks;
}

void InferenceEngine::InferRaw(std::span<const float> features, std::size_t n,
                               std::span<std::int64_t> out_raw) {
  const std::size_t in_dim = input_dim();
  const std::size_t out_dim = output_dim();
  if (features.size() != n * in_dim) {
    throw std::invalid_argument("InferenceEngine::InferRaw: feature buffer "
                                "size does not match n x input_dim");
  }
  if (out_raw.size() != n * out_dim) {
    throw std::invalid_argument("InferenceEngine::InferRaw: output buffer "
                                "size does not match n x output_dim");
  }
  const auto& output_fields = model_->output_fields();
  const auto& output_quant = model_->output_quant();
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min(n - done, pool_.size());
    RunChunk(features.data() + done * in_dim, chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      std::int64_t* out_row = out_raw.data() + (done + i) * out_dim;
      const std::int32_t* fields = pool_[i].values().data();
      for (std::size_t d = 0; d < out_dim; ++d) {
        out_row[d] = fields[output_fields[d]] - output_quant[d].bias;
      }
    }
    done += chunk;
  }
}

void InferenceEngine::Infer(std::span<const float> features, std::size_t n,
                            std::span<float> out) {
  const std::size_t in_dim = input_dim();
  const std::size_t out_dim = output_dim();
  if (features.size() != n * in_dim) {
    throw std::invalid_argument("InferenceEngine::Infer: feature buffer "
                                "size does not match n x input_dim");
  }
  if (out.size() != n * out_dim) {
    throw std::invalid_argument("InferenceEngine::Infer: output buffer "
                                "size does not match n x output_dim");
  }
  const auto& output_quant = model_->output_quant();
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min(n - done, pool_.size());
    const std::span<std::int64_t> raw(raw_scratch_.data(), chunk * out_dim);
    InferRaw(features.subspan(done * in_dim, chunk * in_dim), chunk, raw);
    for (std::size_t i = 0; i < chunk * out_dim; ++i) {
      out[done * out_dim + i] = static_cast<float>(
          fixedpoint::Dequantize(raw[i], output_quant[i % out_dim].fmt));
    }
    done += chunk;
  }
}

std::vector<std::int64_t> InferenceEngine::InferRaw(
    std::span<const float> features) {
  if (features.size() != input_dim()) {
    throw std::invalid_argument(
        "InferenceEngine::InferRaw: feature dim mismatch");
  }
  std::vector<std::int64_t> raw(output_dim());
  InferRaw(features, 1, raw);
  return raw;
}

std::vector<float> InferenceEngine::Infer(std::span<const float> features) {
  if (features.size() != input_dim()) {
    throw std::invalid_argument(
        "InferenceEngine::Infer: feature dim mismatch");
  }
  std::vector<float> out(output_dim());
  Infer(features, 1, out);
  return out;
}

}  // namespace pegasus::runtime
