// Unified compiler driver: the full model→switch chain (basic primitive
// fusion → quantization planning → clustering/tablegen → placement/lowering)
// as named, ordered passes over a shared CompilationContext, with per-pass
// diagnostics (rewrites applied, maps eliminated, tables emitted, SRAM/TCAM
// consumed, stage occupancy, wall time).
//
// The PassManager replaces the ad-hoc FuseBasic + CompileProgram (+ Lower)
// call sequences that used to be repeated across src/models, bench/ and the
// examples. Each stage stays available as a standalone function in core/ and
// runtime/ — the passes only orchestrate — so the staged driver is the
// single seam future scaling work (sharding, async placement, multi-model
// pipelines) plugs into.
//
// Bit-exactness contract: running SwitchPipeline() over a context is
// observationally identical to the legacy sequence
//   FuseBasic(p); m = CompileProgram(p, x, n, copts); l = Lower(m, lopts);
// — same CompiledModel tables, same LoweredModel ResourceReport
// (asserted by tests/test_compiler.cpp).
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/fusion.hpp"
#include "core/tablegen.hpp"
#include "runtime/lowering.hpp"

namespace pegasus::compiler {

/// Diagnostics for one executed pass. Fields are filled as far as they make
/// sense for the pass kind; `note` carries a human-readable one-liner.
struct PassStats {
  std::string name;
  double wall_ms = 0.0;
  /// Program rewrites applied (fusion passes).
  std::size_t rewrites_applied = 0;
  /// Map-op count around the pass (fusion passes; equal when untouched).
  std::size_t maps_before = 0;
  std::size_t maps_after = 0;
  /// Mapping tables / clustering-tree leaves produced (tablegen, lowering).
  std::size_t tables_emitted = 0;
  std::size_t leaves_emitted = 0;
  /// Switch resources consumed (lowering pass).
  std::size_t sram_bits = 0;
  std::size_t tcam_bits = 0;
  std::size_t stages_used = 0;
  /// Compiled match-index build stats (lowering pass): tables that got a
  /// match index, their summed footprint, and total build time.
  std::size_t indexed_tables = 0;
  std::size_t index_bytes = 0;
  double index_build_ms = 0.0;
  std::string note;
};

/// Mutable state threaded through a pass pipeline. Owns the program and the
/// artifacts produced so far; passes read what they need and fill in the
/// next artifact. Construct with a program + training distribution for the
/// full chain, or with an existing CompiledModel for lowering-only runs.
class CompilationContext {
 public:
  CompilationContext(core::Program program,
                     std::span<const float> train_inputs,
                     std::size_t num_samples);
  /// Lowering-only context: `compiled` is referenced, not copied, and must
  /// outlive the context.
  explicit CompilationContext(const core::CompiledModel& compiled);

  // Knobs consumed by the quantization/tablegen and lowering passes.
  core::CompileOptions compile_options;
  runtime::LoweringOptions lowering_options;

  bool has_program() const { return program_.has_value(); }
  core::Program& program();
  const core::Program& program() const;
  /// Moves the program out (the tablegen pass consumes it — it becomes the
  /// CompiledModel's program).
  core::Program TakeProgram();

  std::span<const float> train_inputs() const { return train_; }
  std::size_t num_samples() const { return num_samples_; }
  /// Replaces the training matrix (augmentation pass). The context takes
  /// ownership of the buffer.
  void ReplaceTrainInputs(std::vector<float> data, std::size_t num_samples);

  bool has_plan() const { return plan_.has_value(); }
  const core::QuantizationPlan& plan() const;
  /// Moves the plan out (the tablegen pass consumes it).
  core::QuantizationPlan TakePlan();
  void SetPlan(core::QuantizationPlan plan) { plan_ = std::move(plan); }

  bool has_compiled() const {
    return compiled_.has_value() || external_compiled_ != nullptr;
  }
  const core::CompiledModel& compiled() const;
  void SetCompiled(core::CompiledModel model);
  /// Moves the compiled model out (full-chain contexts only).
  core::CompiledModel TakeCompiled();

  bool has_lowered() const { return lowered_.has_value(); }
  const runtime::LoweredModel& lowered() const;
  void SetLowered(runtime::LoweredModel model);
  runtime::LoweredModel TakeLowered();

  /// Fusion totals for this context: `rewrites`/`iterations` accumulate
  /// across fusion passes; the before/after counts span from the first
  /// fusion pass's input program to the latest pass's output.
  core::FusionStats fusion_stats;

  const std::vector<PassStats>& history() const { return history_; }
  std::vector<PassStats>& mutable_history() { return history_; }

 private:
  std::optional<core::Program> program_;
  std::span<const float> train_;
  std::vector<float> owned_train_;
  std::size_t num_samples_ = 0;
  std::optional<core::QuantizationPlan> plan_;
  std::optional<core::CompiledModel> compiled_;
  const core::CompiledModel* external_compiled_ = nullptr;
  std::optional<runtime::LoweredModel> lowered_;
  std::vector<PassStats> history_;
};

/// One named compilation stage. Passes must be reusable across contexts
/// (Run is const) and throw std::logic_error when a prerequisite artifact
/// is missing from the context.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual void Run(CompilationContext& ctx, PassStats& stats) const = 0;
};

/// Ordered pass list. Run() executes every pass in order, timing each one
/// and appending its PassStats to the context history.
class PassManager {
 public:
  PassManager() = default;
  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  PassManager& Add(std::unique_ptr<Pass> pass);
  std::size_t NumPasses() const { return passes_.size(); }
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }

  void Run(CompilationContext& ctx) const;

  /// fuse-basic only: program in, fused program out.
  static PassManager FusionPipeline();
  /// fuse-basic → augment → quantize-plan → tablegen: produces a
  /// CompiledModel (the sequence every model builder runs).
  static PassManager ModelPipeline();
  /// ModelPipeline + lower: produces a LoweredModel too.
  static PassManager SwitchPipeline();
  /// lower only: context seeded with an existing CompiledModel.
  static PassManager LoweringPipeline();

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Named pass factories. The four individual rewrite passes are exposed for
// custom pipelines / ablations; "fuse-basic" is their fixpoint and is what
// the standard pipelines use.
std::unique_ptr<Pass> MakeMergeMapsPass();             // "fuse-merge-maps"
std::unique_ptr<Pass> MakePushPartitionPass();         // "fuse-push-partition"
std::unique_ptr<Pass> MakeLinearReorderPass();         // "fuse-linear-reorder"
std::unique_ptr<Pass> MakeFlattenSumsPass();           // "fuse-flatten-sums"
std::unique_ptr<Pass> MakeFuseBasicPass();             // "fuse-basic"
std::unique_ptr<Pass> MakeAugmentPass();               // "augment"
std::unique_ptr<Pass> MakeQuantizationPass();          // "quantize-plan"
std::unique_ptr<Pass> MakeTableGenPass();              // "tablegen"
std::unique_ptr<Pass> MakeLoweringPass();              // "lower"

// ---------------------------------------------------------------------------
// One-call drivers (the API the model builders, benches and examples use).
// ---------------------------------------------------------------------------

struct CompileModelResult {
  core::CompiledModel model;
  core::FusionStats fusion;
  std::vector<PassStats> history;
};

/// Runs ModelPipeline() over `program` + training data.
CompileModelResult CompileToModel(core::Program program,
                                  std::span<const float> train_inputs,
                                  std::size_t num_samples,
                                  const core::CompileOptions& options = {});

struct CompileSwitchResult {
  core::CompiledModel model;
  runtime::LoweredModel lowered;
  core::FusionStats fusion;
  std::vector<PassStats> history;
};

/// Runs SwitchPipeline() over `program` + training data.
CompileSwitchResult CompileToSwitch(
    core::Program program, std::span<const float> train_inputs,
    std::size_t num_samples, const core::CompileOptions& options = {},
    const runtime::LoweringOptions& lowering = {});

/// Runs LoweringPipeline() over an existing CompiledModel. When `history`
/// is non-null the executed pass stats are appended to it.
runtime::LoweredModel PlaceOnSwitch(const core::CompiledModel& model,
                                    const runtime::LoweringOptions& options = {},
                                    std::vector<PassStats>* history = nullptr);

// ---------------------------------------------------------------------------
// Versioned compilation (the control plane's artifact format).
// ---------------------------------------------------------------------------

/// An immutable deployment artifact: the compiled tables, their placement on
/// the switch, the resource bill, and the knobs that produced them — the
/// unit control::ModelRegistry stores, control::UpdatePlanner diffs, and
/// StreamServer::SwapModel serves. `name`/`version` are zero/empty until
/// ModelRegistry::Publish stamps them; everything else never changes after
/// CompileVersioned returns (shared_ptr-to-const all the way down, so a
/// registry snapshot, a serving shard and a planner diff can hold the same
/// artifact concurrently without copies or locks).
struct VersionedModel {
  std::string name;
  std::uint64_t version = 0;
  std::shared_ptr<const core::CompiledModel> compiled;
  std::shared_ptr<const runtime::LoweredModel> lowered;
  /// Lowering knobs the artifact was placed with — required to reproduce
  /// the exact same placement when reloading from disk.
  runtime::LoweringOptions lowering;
  dataplane::ResourceReport report;
  core::FusionStats fusion;
  std::vector<PassStats> history;
};

/// Full-chain versioned compile: SwitchPipeline() over `program`, with the
/// compiled and lowered artifacts frozen behind shared const ownership.
VersionedModel CompileVersioned(core::Program program,
                                std::span<const float> train_inputs,
                                std::size_t num_samples,
                                const core::CompileOptions& options = {},
                                const runtime::LoweringOptions& lowering = {});

/// Wraps an already-compiled model (e.g. a trained models::* instance's
/// Compiled()) into a versioned artifact by lowering a private copy.
VersionedModel CompileVersioned(const core::CompiledModel& model,
                                const runtime::LoweringOptions& lowering = {});

/// Pretty-prints one line per executed pass (name, time, and the stats that
/// apply to it).
void PrintDiagnostics(std::ostream& os, std::span<const PassStats> history);

}  // namespace pegasus::compiler
