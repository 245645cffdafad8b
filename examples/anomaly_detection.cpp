// Example: unsupervised zero-day detection on the dataplane (paper §7.4).
//
// Trains the Pegasus AutoEncoder on benign traffic only, picks an alarm
// threshold from the benign validation scores (99th percentile), lowers the
// model onto the simulated switch, and then serves a live mixed stream —
// benign test flows interleaved with injected attack flows — through the
// streaming runtime. Every packet's window is scored in-dataplane; the
// decision score IS the MAE reconstruction error, so thresholding it is the
// IPS deployment story the paper sketches ("enforce traffic rate limits or
// send real-time alerts").
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "compiler/compiler.hpp"
#include "eval/experiment.hpp"
#include "models/autoencoder.hpp"
#include "runtime/stream_server.hpp"

int main() {
  using namespace pegasus;

  auto prep = eval::Prepare(traffic::PeerRushSpec(80), /*with_raw_bytes=*/false);
  models::AutoencoderConfig cfg;
  cfg.epochs = 40;
  auto model = models::Autoencoder::Train(
      prep.seq.train.x, prep.seq.train.size(), prep.seq.train.dim, cfg);
  std::printf("AutoEncoder trained on %zu benign windows (%s)\n",
              prep.seq.train.size(), prep.name.c_str());

  // Threshold = 99th percentile of benign *validation* scores. ScoreFuzzy
  // (CompiledModel::Evaluate) is bit-identical to the lowered pipeline the
  // server runs, so the threshold transfers exactly to the stream.
  std::vector<float> val_scores;
  const auto& val = prep.seq.val;
  for (std::size_t i = 0; i < val.size(); ++i) {
    val_scores.push_back(model->ScoreFuzzy(
        std::span<const float>(val.x.data() + i * val.dim, val.dim)));
  }
  std::sort(val_scores.begin(), val_scores.end());
  const float threshold = val_scores[val_scores.size() * 99 / 100];
  std::printf("alarm threshold (99th pct of benign val MAE): %.4f\n",
              threshold);

  // ---- serve a mixed benign + attack stream ------------------------------
  const auto lowered = std::make_shared<const runtime::LoweredModel>(
      compiler::PlaceOnSwitch(model->Compiled()));

  const auto profiles = traffic::AttackProfiles();
  // Attack flows carry label -(family index + 1); benign labels stay >= 0.
  std::vector<std::vector<traffic::Flow>> attack_flows;
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    attack_flows.push_back(traffic::GenerateFlows(
        profiles[a], 40, -static_cast<std::int32_t>(a) - 1, 24, 64,
        1234 + a));
  }
  std::vector<const traffic::Flow*> mixed;
  for (std::size_t fi = 0; fi < prep.dataset.flows.size(); ++fi) {
    if (prep.flow_split[fi] == 2) mixed.push_back(&prep.dataset.flows[fi]);
  }
  for (const auto& family : attack_flows) {
    for (const auto& flow : family) mixed.push_back(&flow);
  }
  const auto trace = traffic::MergeTrace(mixed, {});

  runtime::StreamServerOptions sopts;
  sopts.num_shards = 2;
  sopts.flows_per_shard = 1 << 10;
  sopts.feature = runtime::FeatureKind::kSeq;
  runtime::StreamServer server(lowered, sopts);
  const auto run = eval::ServeTrace(server, trace);

  // Per-packet alarm rates from the streamed scores (decision.score is the
  // in-dataplane MAE for 1-output models).
  std::size_t benign_windows = 0, benign_alarms = 0;
  std::vector<std::size_t> atk_windows(profiles.size(), 0);
  std::vector<std::size_t> atk_alarms(profiles.size(), 0);
  for (const auto& d : run.decisions) {
    const bool alarm = d.score > threshold;
    if (d.label >= 0) {
      ++benign_windows;
      benign_alarms += alarm ? 1 : 0;
    } else {
      const auto a = static_cast<std::size_t>(-d.label - 1);
      ++atk_windows[a];
      atk_alarms[a] += alarm ? 1 : 0;
    }
  }
  std::printf("streamed %llu packets (%llu scored) at %.0f Kpps, "
              "%llu evictions\n",
              static_cast<unsigned long long>(run.stats.packets),
              static_cast<unsigned long long>(run.stats.decisions),
              run.packets_per_sec / 1000.0,
              static_cast<unsigned long long>(run.stats.table.evictions));
  std::printf("benign test FPR: %.3f\n",
              static_cast<double>(benign_alarms) /
                  static_cast<double>(
                      std::max<std::size_t>(benign_windows, 1)));
  std::printf("%-8s %10s %12s\n", "Attack", "windows", "detected");
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    std::printf("%-8s %10zu %11.1f%%\n", profiles[a].name.c_str(),
                atk_windows[a],
                100.0 * static_cast<double>(atk_alarms[a]) /
                    static_cast<double>(std::max<std::size_t>(
                        atk_windows[a], 1)));
  }
  return 0;
}
