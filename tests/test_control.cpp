// Control-plane model lifecycle (ISSUE 4):
//
//  * CompileVersioned freezes the same artifact CompileToSwitch produces
//    (bit-identical inference, same resource bill).
//  * ModelRegistry stamps monotonic per-name versions, hands out immutable
//    snapshots, and its on-disk envelope round-trips to a bit-identical
//    artifact (serialize the CompiledModel + lowering knobs, re-lower).
//  * UpdatePlanner classifies table diffs (unchanged / entry-delta /
//    reseal) and costs them in bytes.
//  * Co-placement admits model sets that fit one SwitchModel budget and
//    rejects over-subscription with a structured AdmissionError.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <utility>

#include "control/planner.hpp"
#include "control/registry.hpp"
#include "core/operators.hpp"
#include "core/stream_io.hpp"
#include "runtime/inference_engine.hpp"

namespace core = pegasus::core;
namespace ctrl = pegasus::control;
namespace comp = pegasus::compiler;
namespace rt = pegasus::runtime;
namespace dp = pegasus::dataplane;

namespace {

core::Program BuildProgram(std::uint64_t seed, std::size_t leaves = 24) {
  core::ProgramBuilder b(4);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> wdist(-0.05f, 0.05f);
  std::vector<float> w(4 * 3);
  for (float& v : w) v = wdist(rng);
  core::ValueId v =
      core::AppendFullyConnected(b, b.input(), w, 4, 3, {}, 2, leaves);
  v = b.Map(v, core::MakeReLU(3), leaves);
  return b.Finish(v);
}

std::vector<float> TrainInputs(std::uint64_t seed, std::size_t n = 1500,
                               std::size_t dim = 4) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> x(n * dim);
  for (float& f : x) f = std::floor(dist(rng));
  return x;
}

comp::VersionedModel Compile(std::uint64_t weight_seed,
                             std::uint64_t data_seed,
                             const core::CompileOptions& copts = {},
                             const rt::LoweringOptions& lopts = {}) {
  const auto x = TrainInputs(data_seed);
  return comp::CompileVersioned(BuildProgram(weight_seed), x, 1500, copts,
                                lopts);
}

/// Two compiles of one nonlinear map over the same data, with and without
/// §4.4 output refinement: same quantization and leaf boxes, moved leaf
/// words — an entry-delta plan from the first to the second.
std::pair<comp::VersionedModel, comp::VersionedModel> RefinedPair() {
  auto build = [] {
    core::ProgramBuilder b(4);
    core::MapFunction sq;
    sq.name = "square";
    sq.in_dim = 4;
    sq.out_dim = 2;
    sq.fn = [](std::span<const float> x) {
      return std::vector<float>{x[0] * x[0] / 255.0f + x[1],
                                x[2] * x[2] / 255.0f + x[3]};
    };
    return b.Finish(b.Map(b.input(), std::move(sq), 24));
  };
  core::CompileOptions without;
  without.refine_outputs = false;
  const auto x = TrainInputs(2);
  return {comp::CompileVersioned(build(), x, 1500),
          comp::CompileVersioned(build(), x, 1500, without)};
}

}  // namespace

TEST(CompileVersioned, MatchesCompileToSwitchBitForBit) {
  const auto x = TrainInputs(11);
  const auto vm = comp::CompileVersioned(BuildProgram(3), x, 1500);
  const auto ref = comp::CompileToSwitch(BuildProgram(3), x, 1500);

  EXPECT_EQ(vm.version, 0u) << "unpublished artifacts carry version 0";
  ASSERT_NE(vm.compiled, nullptr);
  ASSERT_NE(vm.lowered, nullptr);
  EXPECT_EQ(vm.report.sram_bits, ref.lowered.Report().sram_bits);
  EXPECT_EQ(vm.report.tcam_bits, ref.lowered.Report().tcam_bits);
  EXPECT_EQ(vm.report.stages_used, ref.lowered.Report().stages_used);

  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  for (int i = 0; i < 100; ++i) {
    const std::vector<float> in{std::floor(dist(rng)), std::floor(dist(rng)),
                                std::floor(dist(rng)), std::floor(dist(rng))};
    EXPECT_EQ(vm.lowered->InferRaw(in), ref.lowered.InferRaw(in));
  }
}

TEST(ModelRegistry, PublishesMonotonicPerNameVersions) {
  ctrl::ModelRegistry reg;
  EXPECT_EQ(reg.Publish("clf", Compile(1, 2)), 1u);
  EXPECT_EQ(reg.Publish("clf", Compile(3, 2)), 2u);
  EXPECT_EQ(reg.Publish("anomaly", Compile(4, 2)), 1u);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.Names(), (std::vector<std::string>{"anomaly", "clf"}));
  EXPECT_EQ(reg.Versions("clf"), (std::vector<std::uint64_t>{1, 2}));

  const auto latest = reg.Latest("clf");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->name, "clf");
  EXPECT_EQ(latest->version, 2u);
  const auto v1 = reg.Get("clf", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(reg.Get("clf", 3), nullptr);
  EXPECT_EQ(reg.Latest("nope"), nullptr);

  // Snapshots are immutable shared state: the registry dropping a model
  // must not invalidate a held snapshot (RCU-style retirement).
  EXPECT_THROW(reg.Publish("bad", comp::VersionedModel{}),
               std::invalid_argument);
}

TEST(ModelRegistry, OnDiskEnvelopeRoundTripsBitIdentical) {
  ctrl::ModelRegistry reg;
  rt::LoweringOptions lopts;
  lopts.stateful_bits_per_flow = 184;
  lopts.max_ternary_entries_per_table = 512;
  reg.Publish("clf", Compile(7, 8, {}, lopts));

  std::stringstream buf;
  reg.SaveModel(buf, "clf", 1);

  ctrl::ModelRegistry other;
  const auto restored = other.LoadModel(buf);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->name, "clf");
  EXPECT_EQ(restored->version, 1u);
  EXPECT_EQ(restored->lowering.stateful_bits_per_flow, 184u);
  EXPECT_EQ(restored->lowering.max_ternary_entries_per_table, 512u);

  const auto orig = reg.Get("clf", 1);
  EXPECT_EQ(restored->report.sram_bits, orig->report.sram_bits);
  EXPECT_EQ(restored->report.tcam_bits, orig->report.tcam_bits);
  EXPECT_EQ(restored->report.stages_used, orig->report.stages_used);
  EXPECT_EQ(restored->report.stateful_bits_per_flow,
            orig->report.stateful_bits_per_flow);

  std::mt19937_64 rng(9);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  for (int i = 0; i < 100; ++i) {
    const std::vector<float> in{std::floor(dist(rng)), std::floor(dist(rng)),
                                std::floor(dist(rng)), std::floor(dist(rng))};
    EXPECT_EQ(restored->lowered->InferRaw(in), orig->lowered->InferRaw(in));
  }

  // Duplicate (name, version) load is rejected; garbage is rejected.
  std::stringstream again;
  reg.SaveModel(again, "clf", 1);
  EXPECT_THROW(other.LoadModel(again), std::invalid_argument);
  std::stringstream garbage("definitely not an artifact");
  EXPECT_THROW(other.LoadModel(garbage), std::runtime_error);
  EXPECT_THROW(reg.SaveModel(buf, "clf", 99), std::out_of_range);
}

TEST(ModelRegistry, EnvelopePayloadSizeBombIsRejectedBeforeAllocating) {
  // A well-formed header whose payload_size field claims 2^64-1 bytes (and
  // one just past the documented ceiling): LoadModel must throw the
  // structured corruption error from the length check, before the payload
  // string is ever allocated. A CRC of zero is fine — the size check runs
  // first.
  for (const std::uint64_t claimed :
       {~std::uint64_t{0}, ctrl::kMaxEnvelopePayloadBytes + 1}) {
    std::stringstream buf;
    core::WritePod(buf, ctrl::kRegistryArtifactMagic);
    core::WritePod(buf, ctrl::kRegistryArtifactVersion);
    core::WritePod<std::uint64_t>(buf, claimed);
    core::WritePod<std::uint32_t>(buf, 0);
    ctrl::ModelRegistry reg;
    EXPECT_THROW(reg.LoadModel(buf), core::CorruptArtifactError)
        << "claimed payload_size=" << claimed;
  }

  // An in-cap size with no payload behind it is truncation, also
  // structured.
  std::stringstream buf;
  core::WritePod(buf, ctrl::kRegistryArtifactMagic);
  core::WritePod(buf, ctrl::kRegistryArtifactVersion);
  core::WritePod<std::uint64_t>(buf, 64);
  core::WritePod<std::uint32_t>(buf, 0);
  ctrl::ModelRegistry reg;
  EXPECT_THROW(reg.LoadModel(buf), core::CorruptArtifactError);
}

TEST(UpdatePlanner, IdenticalCompilesPlanToAllUnchanged) {
  ctrl::ModelRegistry reg;
  reg.Publish("clf", Compile(1, 2));
  reg.Publish("clf", Compile(1, 2));  // same weights, same data
  const auto plan = ctrl::PlanUpdate(*reg.Get("clf", 1), *reg.Get("clf", 2));
  EXPECT_EQ(plan.from_version, 1u);
  EXPECT_EQ(plan.to_version, 2u);
  EXPECT_FALSE(plan.structure_changed);
  ASSERT_GT(plan.tables.size(), 0u);
  EXPECT_EQ(plan.unchanged, plan.tables.size());
  EXPECT_EQ(plan.entry_delta, 0u);
  EXPECT_EQ(plan.reseal, 0u);
  EXPECT_EQ(plan.total_bytes_to_push, 0u);
}

TEST(UpdatePlanner, RefinedOutputsPlanToEntryDeltas) {
  // Same program, same training data, refine_outputs toggled: the
  // quantization plan and the tree (fitted on the input distribution) are
  // identical, only the stored leaf output words move — the entry-delta
  // case. The map must be nonlinear (mean f(x) != f(centroid)); for linear
  // maps §4.4 refinement is a no-op and the plan correctly says unchanged.
  const auto [a, b] = RefinedPair();
  const auto plan = ctrl::PlanUpdate(a, b);
  EXPECT_FALSE(plan.structure_changed);
  EXPECT_GT(plan.entry_delta, 0u);
  EXPECT_GT(plan.total_bytes_to_push, 0u);
  for (const auto& u : plan.tables) {
    if (u.kind == ctrl::TableUpdateKind::kEntryDelta) {
      EXPECT_GT(u.changed_leaves, 0u);
      EXPECT_LE(u.changed_leaves, u.leaves_after);
      EXPECT_EQ(u.leaves_before, u.leaves_after);
    }
  }
  EXPECT_NE(ctrl::FormatPlan(plan).find("entry-delta"), std::string::npos);
}

TEST(UpdatePlanner, RetrainedWeightsPlanToReseals) {
  // Different weights shift the propagated training distribution, so the
  // fitted leaf boxes move: full reseal, no silent reuse of stale TCAM.
  const auto a = Compile(1, 2);
  const auto b = Compile(99, 2);
  const auto plan = ctrl::PlanUpdate(a, b);
  EXPECT_FALSE(plan.structure_changed);
  EXPECT_GT(plan.reseal, 0u);
  EXPECT_GT(plan.total_bytes_to_push, 0u);
}

TEST(UpdatePlanner, StructureChangeResealsEverything) {
  const auto x = TrainInputs(2);
  const auto a = Compile(1, 2);
  // A differently shaped program: extra ReLU head over 2x leaves.
  core::ProgramBuilder b2(4);
  std::vector<float> w(4 * 3, 0.01f);
  core::ValueId v = core::AppendFullyConnected(b2, b2.input(), w, 4, 3, {},
                                               2, 16);
  v = b2.Map(v, core::MakeReLU(3), 16);
  v = b2.Map(v, core::MakeReLU(3), 16);
  const auto b = comp::CompileVersioned(b2.Finish(v), x, 1500);

  const auto plan = ctrl::PlanUpdate(a, b);
  EXPECT_TRUE(plan.structure_changed);
  EXPECT_EQ(plan.reseal, plan.tables.size());
  EXPECT_EQ(plan.unchanged, 0u);
  EXPECT_EQ(plan.entry_delta, 0u);
}

TEST(CoPlacement, AdmitsWithinBudgetAndStacksStages) {
  ctrl::ModelRegistry reg;
  reg.Publish("clf", Compile(1, 2));
  reg.Publish("anomaly", Compile(5, 6));
  const auto a = reg.Latest("clf");
  const auto b = reg.Latest("anomaly");

  const auto joint = ctrl::PlanCoPlacement({a.get(), b.get()}, {});
  ASSERT_EQ(joint.models.size(), 2u);
  EXPECT_EQ(joint.models[0].stage_offset, 0u);
  EXPECT_EQ(joint.models[1].stage_offset, joint.models[0].stages_used);
  EXPECT_EQ(joint.stages_used,
            joint.models[0].stages_used + joint.models[1].stages_used);
  EXPECT_EQ(joint.phv_bits,
            joint.models[0].phv_bits + joint.models[1].phv_bits);
  EXPECT_EQ(joint.sram_bits,
            a->report.sram_bits + b->report.sram_bits);
  EXPECT_LE(joint.stages_used, dp::SwitchModel{}.num_stages);
}

TEST(CoPlacement, RejectsOverSubscriptionWithStructuredError) {
  ctrl::ModelRegistry reg;
  reg.Publish("clf", Compile(1, 2));
  reg.Publish("anomaly", Compile(5, 6));
  const auto a = reg.Latest("clf");
  const auto b = reg.Latest("anomaly");

  // A switch with exactly enough stages for the first model: admitting the
  // second must fail on the stage budget, naming the culprit.
  dp::SwitchModel tight;
  tight.num_stages = a->report.stages_used;
  try {
    ctrl::PlanCoPlacement({a.get(), b.get()}, tight);
    FAIL() << "over-subscription must be rejected";
  } catch (const ctrl::AdmissionError& e) {
    EXPECT_EQ(e.resource(), ctrl::AdmissionError::Resource::kStages);
    EXPECT_EQ(e.model(), "anomaly v1");
    EXPECT_EQ(e.required(),
              a->report.stages_used + b->report.stages_used);
    EXPECT_EQ(e.available(), tight.num_stages);
    EXPECT_NE(std::string(e.what()).find("stages"), std::string::npos);
  }

  // PHV over-subscription is structured the same way.
  dp::SwitchModel tiny_phv;
  tiny_phv.phv_bits = a->lowered->layout().TotalBits();
  try {
    ctrl::PlanCoPlacement({a.get(), b.get()}, tiny_phv);
    FAIL() << "PHV over-subscription must be rejected";
  } catch (const ctrl::AdmissionError& e) {
    EXPECT_EQ(e.resource(), ctrl::AdmissionError::Resource::kPhvBits);
  }

  // A model lowered against wider per-stage budgets cannot be stacked onto
  // a narrower switch without re-lowering.
  dp::SwitchModel narrow;
  narrow.tcam_bits_per_stage = 1024;
  EXPECT_THROW(ctrl::PlanCoPlacement({a.get()}, narrow),
               std::invalid_argument);
}

TEST(UpdatePlanner, EntryDeltaPatchesReproduceTargetBitForBit) {
  // The O(delta) path end-to-end at the control layer: CollectPatches on
  // an entry-delta plan, applied to a Clone() of the serving artifact,
  // must (a) cost exactly what the dataplane reports pushing and (b)
  // yield an artifact bit-identical to the freshly lowered target.
  const auto [a, b] = RefinedPair();
  const auto plan = ctrl::PlanUpdate(a, b);
  ASSERT_FALSE(plan.structure_changed);
  ASSERT_GT(plan.entry_delta, 0u);
  ASSERT_EQ(plan.reseal, 0u);

  const auto patches = ctrl::CollectPatches(plan);
  ASSERT_EQ(patches.size(), plan.entry_delta);
  for (const auto& u : plan.tables) {
    if (u.kind == ctrl::TableUpdateKind::kEntryDelta) {
      EXPECT_FALSE(u.patches.empty());
    } else {
      EXPECT_TRUE(u.patches.empty());
    }
  }

  auto patched = a.lowered->Clone();
  // Two engines over the clone from before the delta: the clone's own,
  // built lazily by InferRaw, and one standing apart from it.
  const std::vector<float> probe{1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_EQ(patched.InferRaw(probe), a.lowered->InferRaw(probe));
  rt::InferenceEngine stale(patched);
  const std::size_t bytes = patched.ApplyDelta(patches);
  EXPECT_EQ(bytes, plan.total_bytes_to_push)
      << "planner costing must equal the dataplane's reported push bytes";
  // The engine standing apart would serve v1's view of a v2 pipeline: it
  // throws in every build. The clone's own InferRaw (below) matches v2,
  // since ApplyDelta dropped its engine.
  std::vector<std::int64_t> out(stale.output_dim());
  EXPECT_THROW(stale.InferRaw(probe, 1, out), std::logic_error);

  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  for (int i = 0; i < 200; ++i) {
    const std::vector<float> in{std::floor(dist(rng)), std::floor(dist(rng)),
                                std::floor(dist(rng)), std::floor(dist(rng))};
    ASSERT_EQ(patched.InferRaw(in), b.lowered->InferRaw(in));
  }
  // The serving artifact itself is untouched by the clone's patches.
  const auto fresh_a = a.lowered->Clone();
  for (int i = 0; i < 50; ++i) {
    const std::vector<float> in{std::floor(dist(rng)), std::floor(dist(rng)),
                                std::floor(dist(rng)), std::floor(dist(rng))};
    ASSERT_EQ(a.lowered->InferRaw(in), fresh_a.InferRaw(in));
  }
}

TEST(UpdatePlanner, EntryDeltaPatchesRepeatTheInstalledMatch) {
  // Every patch names an installed entry by its match and priority and
  // carries new words only: checked against the install sequence of the
  // serving version at the same entry index.
  const auto [a, b] = RefinedPair();
  const auto plan = ctrl::PlanUpdate(a, b);
  ASSERT_GT(plan.entry_delta, 0u);
  const auto pushes = ctrl::EmitPushSequence(a);
  std::size_t checked = 0;
  for (const dp::TablePatch& tp : ctrl::CollectPatches(plan)) {
    const auto push = std::find_if(
        pushes.begin(), pushes.end(),
        [&](const rt::TableEntryPush& p) { return p.table == tp.table; });
    ASSERT_NE(push, pushes.end()) << tp.table;
    bool moved_words = false;
    for (const dp::EntryPatch& patch : tp.patches) {
      ASSERT_LT(patch.entry_index, push->entries.size());
      const dp::TableEntry& installed = push->entries[patch.entry_index];
      EXPECT_EQ(patch.ternary, installed.ternary) << tp.table;
      EXPECT_EQ(patch.range_lo, installed.range_lo) << tp.table;
      EXPECT_EQ(patch.range_hi, installed.range_hi) << tp.table;
      EXPECT_EQ(patch.priority, installed.priority) << tp.table;
      EXPECT_EQ(patch.action_data.size(), installed.action_data.size());
      moved_words |= patch.action_data != installed.action_data;
      ++checked;
    }
    EXPECT_TRUE(moved_words) << tp.table << ": a patch must move some words";
  }
  EXPECT_GT(checked, 0u);
}

TEST(UpdatePlanner, CollectPatchesRejectsResealAndStructurePlans) {
  // Reseal plan: applying only its deltas would serve a torn model.
  const auto a = Compile(1, 2);
  const auto b = Compile(99, 2);
  const auto reseal_plan = ctrl::PlanUpdate(a, b);
  ASSERT_GT(reseal_plan.reseal, 0u);
  EXPECT_THROW(ctrl::CollectPatches(reseal_plan), std::invalid_argument);

  // Structure change: ditto.
  const auto x = TrainInputs(2);
  core::ProgramBuilder b2(4);
  std::vector<float> w(4 * 3, 0.01f);
  core::ValueId v = core::AppendFullyConnected(b2, b2.input(), w, 4, 3, {},
                                               2, 16);
  v = b2.Map(v, core::MakeReLU(3), 16);
  v = b2.Map(v, core::MakeReLU(3), 16);
  const auto c = comp::CompileVersioned(b2.Finish(v), x, 1500);
  const auto structure_plan = ctrl::PlanUpdate(a, c);
  ASSERT_TRUE(structure_plan.structure_changed);
  EXPECT_THROW(ctrl::CollectPatches(structure_plan), std::invalid_argument);
}

TEST(UpdatePlanner, ExpansionCapChangeForcesReseal) {
  // Same weights, same data — but the expansion cap moved, so tables may
  // flip between CRC ternary and range lowering: entry indices would not
  // line up, and the plan must refuse to call it a delta.
  rt::LoweringOptions wide;
  rt::LoweringOptions narrow;
  narrow.max_ternary_entries_per_table = 1;  // force range fallback
  const auto a = Compile(1, 2, {}, wide);
  const auto b = Compile(1, 2, {}, narrow);
  const auto plan = ctrl::PlanUpdate(a, b);
  EXPECT_FALSE(plan.structure_changed);
  EXPECT_EQ(plan.entry_delta, 0u);
  EXPECT_EQ(plan.unchanged, 0u);
  EXPECT_EQ(plan.reseal, plan.tables.size());
}
