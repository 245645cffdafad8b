#include "runtime/lowering.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/fusion.hpp"
#include "core/operators.hpp"
#include "runtime/flow_state.hpp"

namespace core = pegasus::core;
namespace rt = pegasus::runtime;
namespace dp = pegasus::dataplane;

namespace {

std::vector<float> RandomFeatures(std::size_t n, std::size_t dim,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> x(n * dim);
  for (float& v : x) v = std::floor(dist(rng));
  return x;
}

/// A representative program exercising Partition, fuzzy Maps, SumReduce,
/// Concat and a downstream Map keyed on an accumulator.
core::CompiledModel SmallCompiledModel(std::size_t n, std::uint64_t seed) {
  const std::size_t dim = 4;
  auto x = RandomFeatures(n, dim, seed);
  core::ProgramBuilder b(dim);
  auto segs = b.Partition(b.input(), 2, 2);
  std::vector<core::ValueId> maps;
  maps.push_back(
      b.Map(segs[0], core::MakeLinear({0.05f, -0.02f, 0.01f, 0.04f}, 2, 2,
                                      {0.5f, -0.5f}),
            32));
  maps.push_back(b.Map(
      segs[1], core::MakeLinear({-0.03f, 0.02f, 0.02f, 0.01f}, 2, 2, {}),
      32));
  auto sum = b.SumReduce(std::span<const core::ValueId>(maps));
  auto out = b.Map(sum, core::MakeReLU(2), 32);
  core::Program p = b.Finish(out);
  return core::CompileProgram(std::move(p), x, n, {});
}

}  // namespace

TEST(Lowering, SimulatorMatchesHostBitForBit) {
  auto cm = SmallCompiledModel(2000, 1);
  rt::LoweredModel lowered = rt::Lower(cm, {});
  auto x = RandomFeatures(500, 4, 2);
  for (std::size_t i = 0; i < 500; ++i) {
    std::span<const float> row(x.data() + i * 4, 4);
    const auto host = cm.EvaluateRaw(row);
    const auto sim = lowered.InferRaw(row);
    ASSERT_EQ(host.size(), sim.size());
    for (std::size_t d = 0; d < host.size(); ++d) {
      ASSERT_EQ(host[d], sim[d]) << "sample " << i << " dim " << d;
    }
  }
}

TEST(Lowering, DequantizedOutputsMatchToo) {
  auto cm = SmallCompiledModel(1000, 3);
  rt::LoweredModel lowered = rt::Lower(cm, {});
  auto x = RandomFeatures(100, 4, 4);
  for (std::size_t i = 0; i < 100; ++i) {
    std::span<const float> row(x.data() + i * 4, 4);
    const auto host = cm.Evaluate(row);
    const auto sim = lowered.Infer(row);
    for (std::size_t d = 0; d < host.size(); ++d) {
      EXPECT_FLOAT_EQ(host[d], sim[d]);
    }
  }
}

TEST(Lowering, ResourceReportIsPopulated) {
  auto cm = SmallCompiledModel(1000, 5);
  rt::LoweringOptions opts;
  opts.stateful_bits_per_flow = 44;
  rt::LoweredModel lowered = rt::Lower(cm, opts);
  const auto rep = lowered.Report();
  EXPECT_GT(rep.tcam_bits, 0u);   // fuzzy tables live in TCAM
  EXPECT_GT(rep.sram_bits, 0u);   // action data in SRAM
  EXPECT_GE(lowered.StagesUsed(), 2u);  // ReLU map depends on the sum
  EXPECT_EQ(rep.stateful_bits_per_flow, 44u);
  EXPECT_GT(rep.ActionBusPct(dp::SwitchModel{}), 0.0);
  EXPECT_EQ(lowered.NumTables(), cm.NumTables());
}

TEST(Lowering, PlacementFailsOnTinySwitch) {
  auto cm = SmallCompiledModel(1000, 6);
  rt::LoweringOptions opts;
  opts.switch_model.num_stages = 1;  // ReLU table needs stage >= 1
  EXPECT_THROW(rt::Lower(cm, opts), dp::PlacementError);
}

TEST(Lowering, PhvOverflowDetected) {
  auto cm = SmallCompiledModel(500, 7);
  rt::LoweringOptions opts;
  opts.switch_model.phv_bits = 8;  // absurdly small
  EXPECT_THROW(rt::Lower(cm, opts), dp::PlacementError);
}

TEST(Lowering, RejectsInputsWiderThanThePhvValueDomain) {
  // 31-bit inputs would reach 2^31 - 1, outside the PHV's [-2^30, 2^30).
  core::CompileOptions opts;
  opts.input_bits = 31;
  auto x = RandomFeatures(500, 2, 3);
  core::ProgramBuilder b(2);
  const auto out = b.Map(b.input(), core::MakeReLU(2), 8);
  const auto cm = core::CompileProgram(b.Finish(out), x, 500, opts);
  EXPECT_THROW(rt::Lower(cm, {}), std::invalid_argument);
}

TEST(Lowering, InferRejectsWrongDim) {
  auto cm = SmallCompiledModel(500, 8);
  rt::LoweredModel lowered = rt::Lower(cm, {});
  const std::vector<float> bad{1.0f, 2.0f};
  EXPECT_THROW(lowered.Infer(bad), std::invalid_argument);
}

// ---------------------------------------------------------- flow state

TEST(FlowState, BitsPerFlowSumsFields) {
  rt::FlowStateSpec spec;
  spec.Add("idx", 4, 7).Add("ts", 16);
  EXPECT_EQ(spec.BitsPerFlow(), 44u);
  EXPECT_GT(spec.SramBitsFor(1'000'000), 44u * 1'000'000u);
}

TEST(FlowState, WindowPushShiftsInstances) {
  rt::FlowStateSpec spec;
  spec.Add("idx", 8, 3);
  rt::FlowStateTable table(spec, 64);
  dp::FlowKey key{42};
  table.PushWindow(key, 0, 1);
  table.PushWindow(key, 0, 2);
  table.PushWindow(key, 0, 3);
  EXPECT_EQ(table.Read(key, 0, 0), 3);
  EXPECT_EQ(table.Read(key, 0, 1), 2);
  EXPECT_EQ(table.Read(key, 0, 2), 1);
  table.PushWindow(key, 0, 4);
  EXPECT_EQ(table.Read(key, 0, 2), 2);  // oldest (1) dropped
}

TEST(FlowState, SeparateFlowsSeparateSlots) {
  rt::FlowStateSpec spec;
  spec.Add("v", 8);
  rt::FlowStateTable table(spec, 1024);
  dp::FlowKey a{1}, bkey{2};
  table.Write(a, 0, 0, 7);
  table.Write(bkey, 0, 0, 9);
  EXPECT_EQ(table.Read(a, 0, 0), 7);
  EXPECT_EQ(table.Read(bkey, 0, 0), 9);
}

class LoweringSeeds : public ::testing::TestWithParam<int> {};

TEST_P(LoweringSeeds, BitExactnessAcrossSeeds) {
  auto cm = SmallCompiledModel(800, static_cast<std::uint64_t>(GetParam()));
  rt::LoweredModel lowered = rt::Lower(cm, {});
  auto x = RandomFeatures(64, 4, static_cast<std::uint64_t>(GetParam()) + 100);
  for (std::size_t i = 0; i < 64; ++i) {
    std::span<const float> row(x.data() + i * 4, 4);
    EXPECT_EQ(cm.EvaluateRaw(row), lowered.InferRaw(row));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoweringSeeds, ::testing::Range(20, 30));
