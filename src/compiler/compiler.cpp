#include "compiler/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace pegasus::compiler {

namespace {

[[noreturn]] void MissingArtifact(const char* pass, const char* what) {
  throw std::logic_error(std::string("compiler pass '") + pass +
                         "' requires " + what +
                         " — check the pass order in the pipeline");
}

}  // namespace

// ---------------------------------------------------------------- context

CompilationContext::CompilationContext(core::Program program,
                                       std::span<const float> train_inputs,
                                       std::size_t num_samples)
    : program_(std::move(program)),
      train_(train_inputs),
      num_samples_(num_samples) {}

CompilationContext::CompilationContext(const core::CompiledModel& compiled)
    : external_compiled_(&compiled) {}

core::Program& CompilationContext::program() {
  if (!program_) MissingArtifact("<context>", "a program");
  return *program_;
}

const core::Program& CompilationContext::program() const {
  if (!program_) MissingArtifact("<context>", "a program");
  return *program_;
}

core::Program CompilationContext::TakeProgram() {
  if (!program_) MissingArtifact("<context>", "a program");
  core::Program out = std::move(*program_);
  program_.reset();
  return out;
}

void CompilationContext::ReplaceTrainInputs(std::vector<float> data,
                                            std::size_t num_samples) {
  owned_train_ = std::move(data);
  train_ = owned_train_;
  num_samples_ = num_samples;
}

const core::QuantizationPlan& CompilationContext::plan() const {
  if (!plan_) MissingArtifact("<context>", "a quantization plan");
  return *plan_;
}

core::QuantizationPlan CompilationContext::TakePlan() {
  if (!plan_) MissingArtifact("<context>", "a quantization plan");
  core::QuantizationPlan out = std::move(*plan_);
  plan_.reset();
  return out;
}

const core::CompiledModel& CompilationContext::compiled() const {
  if (compiled_) return *compiled_;
  if (external_compiled_) return *external_compiled_;
  MissingArtifact("<context>", "a compiled model");
}

void CompilationContext::SetCompiled(core::CompiledModel model) {
  compiled_ = std::move(model);
  external_compiled_ = nullptr;
}

core::CompiledModel CompilationContext::TakeCompiled() {
  if (!compiled_) MissingArtifact("<context>", "an owned compiled model");
  core::CompiledModel out = std::move(*compiled_);
  compiled_.reset();
  return out;
}

const runtime::LoweredModel& CompilationContext::lowered() const {
  if (!lowered_) MissingArtifact("<context>", "a lowered model");
  return *lowered_;
}

void CompilationContext::SetLowered(runtime::LoweredModel model) {
  lowered_ = std::move(model);
}

runtime::LoweredModel CompilationContext::TakeLowered() {
  if (!lowered_) MissingArtifact("<context>", "a lowered model");
  runtime::LoweredModel out = std::move(*lowered_);
  lowered_.reset();
  return out;
}

// ----------------------------------------------------------------- passes

namespace {

/// Adapter for the four individual fusion rewrites.
class RewritePass final : public Pass {
 public:
  using RewriteFn = std::size_t (*)(core::Program&);
  RewritePass(std::string_view name, RewriteFn fn) : name_(name), fn_(fn) {}

  std::string_view name() const override { return name_; }

  void Run(CompilationContext& ctx, PassStats& stats) const override {
    if (!ctx.has_program()) MissingArtifact(name_.c_str(), "a program");
    core::Program& p = ctx.program();
    stats.maps_before = p.NumMaps();
    const std::size_t sum_reduces_before = p.NumSumReduces();
    stats.rewrites_applied = fn_(p);
    stats.maps_after = p.NumMaps();
    core::FusionStats& agg = ctx.fusion_stats;
    if (agg.maps_before == 0 && agg.rewrites == 0 && agg.iterations == 0) {
      agg.maps_before = stats.maps_before;
      agg.sum_reduces_before = sum_reduces_before;
    }
    agg.rewrites += stats.rewrites_applied;
    ++agg.iterations;
    agg.maps_after = stats.maps_after;
    agg.sum_reduces_after = p.NumSumReduces();
  }

 private:
  std::string name_;
  RewriteFn fn_;
};

class FuseBasicPass final : public Pass {
 public:
  std::string_view name() const override { return "fuse-basic"; }

  void Run(CompilationContext& ctx, PassStats& stats) const override {
    if (!ctx.has_program()) MissingArtifact("fuse-basic", "a program");
    const core::FusionStats fs = core::FuseBasic(ctx.program());
    stats.maps_before = fs.maps_before;
    stats.maps_after = fs.maps_after;
    stats.rewrites_applied = fs.rewrites;
    stats.note = "maps " + std::to_string(fs.maps_before) + " -> " +
                 std::to_string(fs.maps_after) + " in " +
                 std::to_string(fs.iterations) + " iterations";
    core::FusionStats& agg = ctx.fusion_stats;
    if (agg.maps_before == 0 && agg.rewrites == 0 && agg.iterations == 0) {
      agg = fs;  // first fusion work on this context
    } else {
      agg.rewrites += fs.rewrites;
      agg.iterations += fs.iterations;
      agg.maps_after = fs.maps_after;
      agg.sum_reduces_after = fs.sum_reduces_after;
    }
  }
};

class AugmentPass final : public Pass {
 public:
  std::string_view name() const override { return "augment"; }

  void Run(CompilationContext& ctx, PassStats& stats) const override {
    if (!ctx.has_program()) MissingArtifact("augment", "a program");
    const std::size_t n = ctx.num_samples();
    const std::size_t in_dim =
        ctx.program().value(ctx.program().input()).dim;
    std::size_t full_n = n;
    std::vector<float> augmented = core::AugmentTrainingInputs(
        in_dim, ctx.train_inputs(), n, ctx.compile_options, full_n);
    if (!augmented.empty()) {
      ctx.ReplaceTrainInputs(std::move(augmented), full_n);
    }
    stats.note = std::to_string(full_n - n) + " uniform probe rows appended";
  }
};

class QuantizationPass final : public Pass {
 public:
  std::string_view name() const override { return "quantize-plan"; }

  void Run(CompilationContext& ctx, PassStats& stats) const override {
    if (!ctx.has_program()) MissingArtifact("quantize-plan", "a program");
    core::QuantizationPlan plan = core::PlanQuantization(
        ctx.program(), ctx.train_inputs(), ctx.num_samples(),
        ctx.compile_options);
    int max_domain = 0;
    std::size_t dims = 0;
    for (const auto& value : plan.quant) {
      for (const core::DimQuant& q : value) {
        max_domain = std::max(max_domain, q.domain_bits);
        ++dims;
      }
    }
    stats.note = std::to_string(dims) + " dims planned, widest domain " +
                 std::to_string(max_domain) + "b";
    ctx.SetPlan(std::move(plan));
  }
};

class TableGenPass final : public Pass {
 public:
  std::string_view name() const override { return "tablegen"; }

  void Run(CompilationContext& ctx, PassStats& stats) const override {
    if (!ctx.has_program()) MissingArtifact("tablegen", "a program");
    if (!ctx.has_plan()) MissingArtifact("tablegen", "a quantization plan");
    core::CompiledModel model = core::BuildFuzzyTables(
        ctx.TakeProgram(), ctx.TakePlan(), ctx.train_inputs(),
        ctx.num_samples(), ctx.compile_options);
    stats.tables_emitted = model.NumTables();
    stats.leaves_emitted = model.TotalLeaves();
    ctx.SetCompiled(std::move(model));
  }
};

class LoweringPass final : public Pass {
 public:
  std::string_view name() const override { return "lower"; }

  void Run(CompilationContext& ctx, PassStats& stats) const override {
    if (!ctx.has_compiled()) {
      MissingArtifact("lower", "a compiled model");
    }
    runtime::LoweredModel lowered =
        runtime::Lower(ctx.compiled(), ctx.lowering_options);
    const dataplane::ResourceReport report = lowered.Report();
    stats.tables_emitted = lowered.NumTables();
    stats.sram_bits = report.sram_bits;
    stats.tcam_bits = report.tcam_bits;
    stats.stages_used = report.stages_used;
    const auto index = lowered.pipeline().MatchIndexReport();
    stats.indexed_tables = index.indexed_tables;
    stats.index_bytes = index.bytes;
    stats.index_build_ms = index.build_ms;
    if (index.indexed_tables > 0) {
      stats.note = "match index: " + std::to_string(index.intervals) +
                   " intervals, " + std::to_string(index.nibble_chunks) +
                   " nibble chunks, " +
                   std::to_string(index.bitset_root_tables) + "/" +
                   std::to_string(index.indexed_tables) +
                   " tables on a bitset root";
    }
    ctx.SetLowered(std::move(lowered));
  }
};

}  // namespace

std::unique_ptr<Pass> MakeMergeMapsPass() {
  return std::make_unique<RewritePass>("fuse-merge-maps",
                                       &core::MergeConsecutiveMaps);
}
std::unique_ptr<Pass> MakePushPartitionPass() {
  return std::make_unique<RewritePass>("fuse-push-partition",
                                       &core::PushElementwiseThroughPartition);
}
std::unique_ptr<Pass> MakeLinearReorderPass() {
  return std::make_unique<RewritePass>("fuse-linear-reorder",
                                       &core::LinearReorderOverSumReduce);
}
std::unique_ptr<Pass> MakeFlattenSumsPass() {
  return std::make_unique<RewritePass>("fuse-flatten-sums",
                                       &core::FlattenSumReduces);
}
std::unique_ptr<Pass> MakeFuseBasicPass() {
  return std::make_unique<FuseBasicPass>();
}
std::unique_ptr<Pass> MakeAugmentPass() {
  return std::make_unique<AugmentPass>();
}
std::unique_ptr<Pass> MakeQuantizationPass() {
  return std::make_unique<QuantizationPass>();
}
std::unique_ptr<Pass> MakeTableGenPass() {
  return std::make_unique<TableGenPass>();
}
std::unique_ptr<Pass> MakeLoweringPass() {
  return std::make_unique<LoweringPass>();
}

// ----------------------------------------------------------- pass manager

PassManager& PassManager::Add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

void PassManager::Run(CompilationContext& ctx) const {
  for (const auto& pass : passes_) {
    PassStats stats;
    stats.name = std::string(pass->name());
    const auto start = std::chrono::steady_clock::now();
    pass->Run(ctx, stats);
    const auto end = std::chrono::steady_clock::now();
    stats.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    ctx.mutable_history().push_back(std::move(stats));
  }
}

PassManager PassManager::FusionPipeline() {
  PassManager pm;
  pm.Add(MakeFuseBasicPass());
  return pm;
}

PassManager PassManager::ModelPipeline() {
  PassManager pm;
  pm.Add(MakeFuseBasicPass())
      .Add(MakeAugmentPass())
      .Add(MakeQuantizationPass())
      .Add(MakeTableGenPass());
  return pm;
}

PassManager PassManager::SwitchPipeline() {
  PassManager pm = ModelPipeline();
  pm.Add(MakeLoweringPass());
  return pm;
}

PassManager PassManager::LoweringPipeline() {
  PassManager pm;
  pm.Add(MakeLoweringPass());
  return pm;
}

// ---------------------------------------------------------------- drivers

CompileModelResult CompileToModel(core::Program program,
                                  std::span<const float> train_inputs,
                                  std::size_t num_samples,
                                  const core::CompileOptions& options) {
  CompilationContext ctx(std::move(program), train_inputs, num_samples);
  ctx.compile_options = options;
  PassManager::ModelPipeline().Run(ctx);
  CompileModelResult out{ctx.TakeCompiled(), ctx.fusion_stats,
                         std::move(ctx.mutable_history())};
  return out;
}

CompileSwitchResult CompileToSwitch(core::Program program,
                                    std::span<const float> train_inputs,
                                    std::size_t num_samples,
                                    const core::CompileOptions& options,
                                    const runtime::LoweringOptions& lowering) {
  CompilationContext ctx(std::move(program), train_inputs, num_samples);
  ctx.compile_options = options;
  ctx.lowering_options = lowering;
  PassManager::SwitchPipeline().Run(ctx);
  CompileSwitchResult out{ctx.TakeCompiled(), ctx.TakeLowered(),
                          ctx.fusion_stats, std::move(ctx.mutable_history())};
  return out;
}

runtime::LoweredModel PlaceOnSwitch(const core::CompiledModel& model,
                                    const runtime::LoweringOptions& options,
                                    std::vector<PassStats>* history) {
  CompilationContext ctx(model);
  ctx.lowering_options = options;
  PassManager::LoweringPipeline().Run(ctx);
  if (history != nullptr) {
    history->insert(history->end(), ctx.history().begin(),
                    ctx.history().end());
  }
  return ctx.TakeLowered();
}

VersionedModel CompileVersioned(core::Program program,
                                std::span<const float> train_inputs,
                                std::size_t num_samples,
                                const core::CompileOptions& options,
                                const runtime::LoweringOptions& lowering) {
  CompileSwitchResult res = CompileToSwitch(std::move(program), train_inputs,
                                            num_samples, options, lowering);
  VersionedModel vm;
  vm.compiled =
      std::make_shared<const core::CompiledModel>(std::move(res.model));
  auto lowered =
      std::make_shared<runtime::LoweredModel>(std::move(res.lowered));
  vm.report = lowered->Report();
  vm.lowered = std::move(lowered);
  vm.lowering = lowering;
  vm.fusion = res.fusion;
  vm.history = std::move(res.history);
  return vm;
}

VersionedModel CompileVersioned(const core::CompiledModel& model,
                                const runtime::LoweringOptions& lowering) {
  VersionedModel vm;
  vm.compiled = std::make_shared<const core::CompiledModel>(model);
  auto lowered = std::make_shared<runtime::LoweredModel>(
      PlaceOnSwitch(*vm.compiled, lowering, &vm.history));
  vm.report = lowered->Report();
  vm.lowered = std::move(lowered);
  vm.lowering = lowering;
  return vm;
}

void PrintDiagnostics(std::ostream& os, std::span<const PassStats> history) {
  for (const PassStats& s : history) {
    os << "  [" << s.name << "] " << s.wall_ms << " ms";
    if (s.maps_before != s.maps_after || s.rewrites_applied > 0) {
      os << "; maps " << s.maps_before << " -> " << s.maps_after << " ("
         << s.rewrites_applied << " rewrites)";
    }
    if (s.tables_emitted > 0) {
      os << "; " << s.tables_emitted << " tables";
      if (s.leaves_emitted > 0) os << ", " << s.leaves_emitted << " leaves";
    }
    if (s.stages_used > 0) {
      os << "; " << s.stages_used << " stages, " << s.sram_bits
         << "b SRAM, " << s.tcam_bits << "b TCAM";
    }
    if (s.indexed_tables > 0) {
      os << "; " << s.indexed_tables << " indexed tables ("
         << s.index_bytes / 1024 << " KiB, built in " << s.index_build_ms
         << " ms)";
    }
    if (!s.note.empty()) os << "; " << s.note;
    os << "\n";
  }
}

}  // namespace pegasus::compiler
