// Randomized end-to-end property test: generate random (but valid)
// primitive programs, fuse them, compile them against random training
// data, lower them onto the simulated switch, and assert the invariants
// that hold for EVERY Pegasus program:
//
//   1. FuseBasic never changes the reference semantics;
//   2. the lowered pipeline is bit-identical to the host fuzzy evaluator,
//      one row at a time and as one batch;
//   3. fuzzy outputs track the exact float outputs within a bound derived
//      from the program's Lipschitz-ish structure (loose sanity bound);
//   4. serialization round-trips the dataplane semantics.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/fusion.hpp"
#include "core/operators.hpp"
#include "core/tablegen.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/lowering.hpp"

namespace core = pegasus::core;
namespace rt = pegasus::runtime;

namespace {

/// Builds a random two-layer program: input -> partition -> per-segment
/// linear maps -> sumreduce -> elementwise nonlinearity -> FC -> output.
core::Program RandomProgram(std::mt19937_64& rng, std::size_t* in_dim_out) {
  std::uniform_int_distribution<std::size_t> seg_dist(1, 3);
  std::uniform_int_distribution<std::size_t> nseg_dist(2, 4);
  std::uniform_int_distribution<std::size_t> mid_dist(2, 4);
  std::uniform_real_distribution<float> wdist(-0.04f, 0.04f);
  const std::size_t seg = seg_dist(rng);
  const std::size_t nseg = nseg_dist(rng);
  const std::size_t in_dim = seg * nseg;
  const std::size_t mid = mid_dist(rng);
  *in_dim_out = in_dim;

  auto rand_vec = [&](std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = wdist(rng);
    return v;
  };

  core::ProgramBuilder b(in_dim);
  core::ValueId v = core::AppendFullyConnected(
      b, b.input(), rand_vec(in_dim * mid), in_dim, mid, rand_vec(mid), seg,
      48);
  // Random nonlinearity.
  switch (rng() % 3) {
    case 0:
      v = b.Map(v, core::MakeReLU(mid), 48);
      break;
    case 1:
      v = b.Map(v, core::MakeTanhFn(mid), 48);
      break;
    default:
      v = b.Map(v, core::MakeSigmoidFn(mid), 48);
      break;
  }
  const std::size_t out_dim = 2;
  const std::size_t seg2 = mid % 2 == 0 ? 2 : (mid % 3 == 0 ? 3 : 1);
  v = core::AppendFullyConnected(b, v, rand_vec(mid * out_dim), mid, out_dim,
                                 rand_vec(out_dim), seg2, 48);
  return b.Finish(v);
}

std::vector<float> RandomRows(std::mt19937_64& rng, std::size_t n,
                              std::size_t dim) {
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> x(n * dim);
  for (float& f : x) f = std::floor(dist(rng));
  return x;
}

}  // namespace

class RandomPrograms : public ::testing::TestWithParam<int> {};

TEST_P(RandomPrograms, AllInvariantsHold) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  std::size_t in_dim = 0;
  core::Program p = RandomProgram(rng, &in_dim);
  core::Program reference = p;

  // (1) fusion preserves reference semantics.
  core::FuseBasic(p);
  const auto train = RandomRows(rng, 1500, in_dim);
  for (int i = 0; i < 32; ++i) {
    std::span<const float> row(train.data() + i * in_dim, in_dim);
    const auto a = reference.Evaluate(row);
    const auto b = p.Evaluate(row);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t d = 0; d < a.size(); ++d) {
      ASSERT_NEAR(a[d], b[d], 1e-3f * std::max(1.0f, std::abs(a[d])));
    }
  }

  // (2) lowering is bit-exact with the host fuzzy evaluator.
  auto cm = core::CompileProgram(std::move(p), train, 1500, {});
  auto lowered = rt::Lower(cm, {});
  const auto probes = RandomRows(rng, 64, in_dim);
  double fuzzy_err = 0.0;
  for (int i = 0; i < 64; ++i) {
    std::span<const float> row(probes.data() + i * in_dim, in_dim);
    ASSERT_EQ(cm.EvaluateRaw(row), lowered.InferRaw(row)) << "probe " << i;
    // (3) loose tracking bound: small weights + bounded input keep outputs
    // within a few units, and fuzzy cells are coarse but finite.
    const auto exact = reference.Evaluate(row);
    const auto fuzzy = cm.Evaluate(row);
    for (std::size_t d = 0; d < exact.size(); ++d) {
      fuzzy_err = std::max(
          fuzzy_err, std::abs(double{exact[d]} - fuzzy[d]));
    }
  }
  EXPECT_LT(fuzzy_err, 4.0);
  // (2) again, all probes as one batch through a 64-row engine.
  rt::InferenceEngine engine(lowered, 64);
  const std::size_t out_dim = engine.output_dim();
  std::vector<std::int64_t> out(64 * out_dim);
  engine.InferRaw(probes, 64, out);
  for (int i = 0; i < 64; ++i) {
    std::span<const float> row(probes.data() + i * in_dim, in_dim);
    const std::span<const std::int64_t> got(
        out.data() + static_cast<std::size_t>(i) * out_dim, out_dim);
    ASSERT_EQ(cm.EvaluateRaw(row),
              std::vector<std::int64_t>(got.begin(), got.end()))
        << "batched probe " << i;
  }

  // (4) serialization round-trip.
  std::stringstream buf;
  cm.Save(buf);
  const auto loaded = core::CompiledModel::Load(buf);
  for (int i = 0; i < 16; ++i) {
    std::span<const float> row(probes.data() + i * in_dim, in_dim);
    ASSERT_EQ(cm.EvaluateRaw(row), loaded.EvaluateRaw(row));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0, 12));
