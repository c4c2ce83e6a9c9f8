// Micro-benchmarks of the LSTM encoder-decoder (nn::EncoderDecoder):
// one window's forecast by input length, the batched training pass (what
// meta-training pays per sample), and the fleet-wide forecast rollout
// (core::RolloutPredict) with distinct per-worker parameters (one 1-column
// tile per worker, fanned out over the pool) and a shared parameter vector
// (64-column GEMM tiles). RegisterMicroMetrics records the deterministic
// nn.* work counts that tools/bench_compare gates on.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/check.h"
#include "common/obs/metrics.h"
#include "common/rng.h"
#include "core/rollout.h"
#include "geo/grid.h"
#include "meta/learning_task.h"
#include "meta/meta_training.h"
#include "nn/encoder_decoder.h"

namespace {

constexpr int kSeqIn = 5;
constexpr int kHorizonSteps = 5;
constexpr double kNowMin = 600.0;
constexpr double kPeriodMin = 10.0;
constexpr int kMaxFleet = 960;

tamp::nn::Sequence MakeInput(int seq_in, int dim) {
  tamp::nn::Sequence input;
  for (int t = 0; t < seq_in; ++t) {
    std::vector<double> step(dim, 0.1 * (t + 1));
    input.push_back(std::move(step));
  }
  return input;
}

/// A synthetic fleet on one dataset's grid: per-worker fine-tuned-style
/// parameter vectors (all distinct — the 1-column-tile regime), one shared
/// cluster-predictor vector (the GEMM regime), and short random-walk
/// observation windows. The NN cost is independent of trajectory realism,
/// so cheap walks keep the fixture fast while the grid extents and the
/// Table-III model shape match the dataset configuration.
struct Fleet {
  tamp::nn::Seq2SeqConfig config;
  tamp::geo::GridSpec grid;
  std::vector<std::vector<double>> worker_params;
  std::vector<double> shared_params;
  std::vector<std::vector<tamp::geo::Point>> recents;
};

Fleet* MakeFleet(const tamp::geo::GridSpec& grid, uint64_t seed) {
  auto* fleet = new Fleet{{}, grid, {}, {}, {}};
  fleet->config.input_dim = 3;
  fleet->config.hidden_dim = 16;
  fleet->config.output_dim = 2;
  fleet->config.seq_out = 1;
  tamp::Rng rng(seed);
  tamp::nn::EncoderDecoder model(fleet->config);
  fleet->shared_params = model.InitParams(rng);
  fleet->worker_params.reserve(kMaxFleet);
  fleet->recents.reserve(kMaxFleet);
  for (int w = 0; w < kMaxFleet; ++w) {
    fleet->worker_params.push_back(model.InitParams(rng));
    std::vector<tamp::geo::Point> walk;
    tamp::geo::Point p{rng.Uniform(0.0, grid.width_km()),
                       rng.Uniform(0.0, grid.height_km())};
    for (int s = 0; s < kSeqIn; ++s) {
      p.x += rng.Uniform(-0.5, 0.5);
      p.y += rng.Uniform(-0.5, 0.5);
      walk.push_back(grid.Clamp(p));
    }
    fleet->recents.push_back(std::move(walk));
  }
  return fleet;
}

const Fleet& PortoFleet() {
  // Porto/Didi gridding (28 x 14 km, 50 x 100 cells — data/workload.cc).
  static const Fleet* fleet =
      MakeFleet(tamp::geo::GridSpec(28.0, 14.0, 50, 100), 20250809);
  return *fleet;
}

const Fleet& GowallaFleet() {
  // Gowalla/Foursquare gridding (36 x 36 km, 60 x 60 cells).
  static const Fleet* fleet =
      MakeFleet(tamp::geo::GridSpec(36.0, 36.0, 60, 60), 20250810);
  return *fleet;
}

/// One fleet-wide SoA rollout. `shared` selects the cluster-predictor
/// regime where every row aliases one parameter vector.
size_t FleetRolloutBatched(const Fleet& fleet, size_t fleet_size, bool shared,
                           tamp::core::FleetForecastScratch& scratch,
                           std::vector<std::vector<tamp::geo::TimedPoint>>&
                               out) {
  tamp::nn::EncoderDecoder model(fleet.config);
  std::vector<const std::vector<double>*> row_params(fleet_size);
  std::vector<std::vector<tamp::geo::Point>> recents(
      fleet.recents.begin(),
      fleet.recents.begin() + static_cast<std::ptrdiff_t>(fleet_size));
  for (size_t w = 0; w < fleet_size; ++w) {
    row_params[w] = shared ? &fleet.shared_params : &fleet.worker_params[w];
  }
  tamp::core::RolloutPredict(model, row_params, recents, fleet.grid,
                             kHorizonSteps, kNowMin, kPeriodMin, scratch,
                             &out);
  size_t points = 0;
  for (const auto& row : out) points += row.size();
  return points;
}

/// The training pass TAML and fine-tuning pay per step
/// (meta::BatchLossAndGradient: SoA tiles of at most kTrainTileCols
/// samples on the calling thread) at the e2e shape (hidden 16, input 3,
/// seq_in 5, seq_out 1, Eq. 7-style step weights) over Arg samples; 204 is
/// a porto fine-tune set. Time / Arg is the per-sample cost.
void BM_BatchLossAndGradient(benchmark::State& state) {
  tamp::nn::Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = 16;
  tamp::Rng rng(11);
  tamp::nn::EncoderDecoder model(config);
  const std::vector<double> params = model.InitParams(rng);
  std::vector<tamp::meta::TrainingSample> samples(
      static_cast<size_t>(state.range(0)));
  for (tamp::meta::TrainingSample& sample : samples) {
    for (int t = 0; t < kSeqIn; ++t) {
      sample.input.push_back(
          {rng.Uniform01(), rng.Uniform01(), rng.Uniform01()});
    }
    sample.target.push_back({rng.Uniform01(), rng.Uniform01()});
    sample.target_km.push_back(
        {sample.target[0][0] * 28.0, sample.target[0][1] * 14.0});
  }
  tamp::meta::MetaTrainConfig meta_config;
  meta_config.weight_fn = [](const tamp::geo::Point& p) {
    return 1.0 + 0.05 * p.x;
  };
  const std::vector<std::vector<double>> weights =
      tamp::meta::BatchSampleWeights(meta_config, samples);
  std::vector<double> grad(params.size(), 0.0);
  for (auto _ : state) {
    std::fill(grad.begin(), grad.end(), 0.0);
    const double loss = tamp::meta::BatchLossAndGradient(model, params,
                                                         samples, weights,
                                                         grad);
    benchmark::DoNotOptimize(loss);
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchLossAndGradient)->Arg(1)->Arg(16)->Arg(204);

/// One window's forecast (a one-row PredictBatch: a 1-column tile) by
/// input length.
void BM_PredictBySeqIn(benchmark::State& state) {
  tamp::nn::Seq2SeqConfig config;
  config.input_dim = 3;
  tamp::Rng rng(7);
  tamp::nn::EncoderDecoder model(config);
  const std::vector<double> params = model.InitParams(rng);
  const tamp::nn::Sequence input =
      MakeInput(static_cast<int>(state.range(0)), 3);
  const std::vector<const std::vector<double>*> row_params = {&params};
  const std::vector<const tamp::nn::Sequence*> inputs = {&input};
  tamp::nn::RolloutScratch scratch;  // Persists across iterations.
  std::vector<tamp::nn::Sequence> pred;
  for (auto _ : state) {
    model.PredictBatch(row_params, inputs, &pred, scratch);
    benchmark::DoNotOptimize(pred[0][0][0]);
  }
}
BENCHMARK(BM_PredictBySeqIn)->Arg(1)->Arg(5)->Arg(10)->Arg(20);

void FleetBatchedBench(benchmark::State& state, const Fleet& fleet,
                       bool shared) {
  const size_t fleet_size = static_cast<size_t>(state.range(0));
  tamp::core::FleetForecastScratch scratch;  // Persists across iterations.
  std::vector<std::vector<tamp::geo::TimedPoint>> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FleetRolloutBatched(fleet, fleet_size, shared, scratch, out));
  }
}

void BM_FleetRolloutBatchedPorto(benchmark::State& state) {
  FleetBatchedBench(state, PortoFleet(), /*shared=*/false);
}
BENCHMARK(BM_FleetRolloutBatchedPorto)->Arg(60)->Arg(240)->Arg(960);

void BM_FleetRolloutBatchedSharedPorto(benchmark::State& state) {
  FleetBatchedBench(state, PortoFleet(), /*shared=*/true);
}
BENCHMARK(BM_FleetRolloutBatchedSharedPorto)->Arg(60)->Arg(240)->Arg(960);

void BM_FleetRolloutBatchedGowalla(benchmark::State& state) {
  FleetBatchedBench(state, GowallaFleet(), /*shared=*/false);
}
BENCHMARK(BM_FleetRolloutBatchedGowalla)->Arg(60)->Arg(240)->Arg(960);

void BM_FleetRolloutBatchedSharedGowalla(benchmark::State& state) {
  FleetBatchedBench(state, GowallaFleet(), /*shared=*/true);
}
BENCHMARK(BM_FleetRolloutBatchedSharedGowalla)->Arg(60)->Arg(240)->Arg(960);

}  // namespace

#include "micro_main.h"

namespace tamp::bench {

void RegisterMicroMetrics(JsonReport& report) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cells = registry.GetCounter("nn.forecast_cells");
  obs::Counter& gemm = registry.GetCounter("nn.batched_gemm_calls");
  obs::Counter& rows = registry.GetCounter("nn.batch_rows");

  struct Dataset {
    const char* name;
    const Fleet& fleet;
  };
  const Dataset datasets[] = {{"porto", PortoFleet()},
                              {"gowalla", GowallaFleet()}};
  const size_t fleet_sizes[] = {60, 240, 960};

  core::FleetForecastScratch scratch;
  std::vector<std::vector<geo::TimedPoint>> out;
  for (const Dataset& ds : datasets) {
    for (size_t fleet_size : fleet_sizes) {
      // The scalar chain runs one LSTM step per (row, cell step):
      // ceil(horizon / seq_out) engine passes of (seq_in + seq_out) steps.
      // Each tile launches one gate kernel per cell step and one readout
      // kernel per decoder step per pass.
      const auto& cfg = ds.fleet.config;
      const int64_t outer =
          (kHorizonSteps + cfg.seq_out - 1) / cfg.seq_out;
      const int64_t scalar_cell_calls =
          static_cast<int64_t>(fleet_size) * outer *
          (kSeqIn + cfg.seq_out);
      const int64_t tile_launches = outer * (kSeqIn + 2 * cfg.seq_out);

      const int64_t cells_before = cells.value();
      const int64_t gemm_before = gemm.value();
      const int64_t rows_before = rows.value();
      (void)FleetRolloutBatched(ds.fleet, fleet_size, /*shared=*/false,
                                scratch, out);
      const int64_t batched_cells = cells.value() - cells_before;
      const int64_t batched_gemm = gemm.value() - gemm_before;
      const int64_t batched_rows = rows.value() - rows_before;

      const int64_t shared_gemm_before = gemm.value();
      (void)FleetRolloutBatched(ds.fleet, fleet_size, /*shared=*/true,
                                scratch, out);
      const int64_t shared_gemm = gemm.value() - shared_gemm_before;

      // The engine's contract: the scalar path's per-row cell work; one
      // 1-column tile per distinct-params worker; and for a shared
      // parameter vector ceil(W / 64) tiles, strictly fewer kernel
      // launches than the scalar path's per-worker cell calls.
      const int64_t shared_tiles =
          static_cast<int64_t>((fleet_size + nn::EncoderDecoder::kTileCols -
                                1) /
                               nn::EncoderDecoder::kTileCols);
      TAMP_CHECK(batched_cells == scalar_cell_calls);
      TAMP_CHECK(batched_gemm ==
                 static_cast<int64_t>(fleet_size) * tile_launches);
      TAMP_CHECK(shared_gemm == shared_tiles * tile_launches);
      TAMP_CHECK(shared_gemm < scalar_cell_calls);

      const std::string prefix =
          std::string("nn.") + ds.name + ".w" + std::to_string(fleet_size);
      report.AddMetric(prefix + ".scalar_cell_calls",
                       static_cast<double>(scalar_cell_calls));
      report.AddMetric(prefix + ".forecast_cells",
                       static_cast<double>(batched_cells));
      report.AddMetric(prefix + ".batched_gemm_calls",
                       static_cast<double>(batched_gemm));
      report.AddMetric(prefix + ".shared_gemm_calls",
                       static_cast<double>(shared_gemm));
      report.AddMetric(prefix + ".batch_rows",
                       static_cast<double>(batched_rows));
    }
  }
}

}  // namespace tamp::bench
