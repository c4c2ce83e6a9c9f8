// Bit-identity contract of the batched SoA forecast (nn::EncoderDecoder's
// Rollout and PredictBatch), the simulator's and the trainer's only
// forecast path, against the scalar oracle (nn_oracle.h: one window, one
// step at a time): raw PredictBatch vs the oracle's Predict, the fleet
// rollout the simulator runs (core::RolloutPredict, also at tile- and
// pass-boundary shapes) vs the oracle's one-worker rollout, scratch
// shrink-then-grow reuse, the trainer's Evaluate, and the thread-invariant
// work counters. Every comparison is EXPECT_EQ on doubles — exact, not
// approximate.
#include "nn/encoder_decoder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/obs/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/rollout.h"
#include "meta/trainer.h"
#include "nn_oracle.h"

namespace tamp::nn {
namespace {

/// Restores the parallel thread count on scope exit so a failing test
/// can't leak its thread setting into the rest of the binary.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : saved_(ParallelThreadCount()) {
    SetParallelThreadCount(threads);
  }
  ~ThreadCountGuard() { SetParallelThreadCount(saved_); }

 private:
  int saved_;
};

Sequence MakeWindow(tamp::Rng& rng, int steps, int dim) {
  Sequence window;
  for (int t = 0; t < steps; ++t) {
    std::vector<double> step;
    for (int d = 0; d < dim; ++d) step.push_back(rng.Uniform01());
    window.push_back(std::move(step));
  }
  return window;
}

void ExpectSequenceEq(const Sequence& a, const Sequence& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].size(), b[t].size());
    for (size_t d = 0; d < a[t].size(); ++d) EXPECT_EQ(a[t][d], b[t][d]);
  }
}

/// Rows interleave three parameter groups (A B C A B A A C C B): tiles of
/// several widths coexist in one plan, and the gather/scatter has to
/// restore the caller's row order.
TEST(ForecastParityTest, PredictBatchMatchesScalarBitwise) {
  for (int seq_out : {1, 3}) {
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      Seq2SeqConfig config;
      config.input_dim = 3;
      config.hidden_dim = 8;
      config.seq_out = seq_out;
      tamp::Rng rng(11);
      EncoderDecoder model(config);
      std::vector<std::vector<double>> groups = {
          model.InitParams(rng), model.InitParams(rng), model.InitParams(rng)};
      const int pattern[] = {0, 1, 2, 0, 1, 0, 0, 2, 2, 1};

      std::vector<Sequence> windows;
      std::vector<const std::vector<double>*> row_params;
      std::vector<const Sequence*> inputs;
      for (int r = 0; r < 10; ++r) {
        windows.push_back(MakeWindow(rng, 5, 3));
        row_params.push_back(&groups[pattern[r]]);
      }
      for (const Sequence& w : windows) inputs.push_back(&w);

      RolloutScratch scratch;
      std::vector<Sequence> batched;
      model.PredictBatch(row_params, inputs, &batched, scratch);

      ASSERT_EQ(batched.size(), windows.size());
      for (size_t r = 0; r < windows.size(); ++r) {
        Sequence scalar = oracle::Predict(model, *row_params[r], windows[r]);
        ExpectSequenceEq(batched[r], scalar);
      }
    }
  }
}

TEST(ForecastParityTest, FleetRolloutMatchesScalarOnBothGrids) {
  const geo::GridSpec grids[] = {geo::GridSpec(28.0, 14.0, 50, 100),
                                 geo::GridSpec(36.0, 36.0, 60, 60)};
  for (const geo::GridSpec& grid : grids) {
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      Seq2SeqConfig config;
      config.input_dim = 3;
      config.hidden_dim = 6;
      config.seq_out = 3;  // horizon 7 => 3 + 3 + 1 truncated chunks.
      tamp::Rng rng(23);
      EncoderDecoder model(config);

      std::vector<std::vector<double>> params;
      std::vector<double> shared = model.InitParams(rng);
      std::vector<std::vector<geo::Point>> recents;
      std::vector<const std::vector<double>*> row_params;
      for (int w = 0; w < 9; ++w) {
        params.push_back(model.InitParams(rng));
        std::vector<geo::Point> walk;
        for (int s = 0; s < 4; ++s) {
          walk.push_back(grid.Clamp({rng.Uniform(0.0, grid.width_km()),
                                     rng.Uniform(0.0, grid.height_km())}));
        }
        recents.push_back(std::move(walk));
      }
      for (int w = 0; w < 9; ++w) {
        row_params.push_back(w % 3 == 0 ? &shared : &params[w]);
      }

      core::FleetForecastScratch scratch;
      std::vector<std::vector<geo::TimedPoint>> batched;
      core::RolloutPredict(model, row_params, recents, grid,
                           /*horizon_steps=*/7, /*now_min=*/600.0,
                           /*step_period_min=*/10.0, scratch, &batched);

      ASSERT_EQ(batched.size(), recents.size());
      for (size_t w = 0; w < recents.size(); ++w) {
        auto scalar = oracle::RolloutPredict(model, *row_params[w],
                                             recents[w], grid, 7, 600.0,
                                             10.0);
        ASSERT_EQ(batched[w].size(), scalar.size());
        for (size_t i = 0; i < scalar.size(); ++i) {
          EXPECT_EQ(batched[w][i].loc.x, scalar[i].loc.x);
          EXPECT_EQ(batched[w][i].loc.y, scalar[i].loc.y);
          EXPECT_EQ(batched[w][i].time_min, scalar[i].time_min);
        }
      }
    }
  }
}

/// Scratch reuse must be stateless: a big batch, then a small one, then
/// big again — each must match a fresh-scratch run bit for bit (stale
/// tails from the larger plan must never leak into the smaller).
TEST(ForecastParityTest, EngineScratchShrinkThenGrowParity) {
  Seq2SeqConfig config;
  config.input_dim = 2;
  config.hidden_dim = 7;
  config.seq_out = 2;
  tamp::Rng rng(31);
  EncoderDecoder model(config);

  std::vector<std::vector<double>> params;
  std::vector<Sequence> windows;
  for (int r = 0; r < 8; ++r) {
    params.push_back(model.InitParams(rng));
    windows.push_back(MakeWindow(rng, 6, 2));
  }

  auto run = [&](size_t rows, RolloutScratch& scratch) {
    std::vector<const std::vector<double>*> row_params;
    std::vector<const Sequence*> inputs;
    for (size_t r = 0; r < rows; ++r) {
      row_params.push_back(&params[r]);
      inputs.push_back(&windows[r]);
    }
    std::vector<Sequence> out;
    model.PredictBatch(row_params, inputs, &out, scratch);
    return out;
  };

  RolloutScratch reused;
  for (size_t rows : {8u, 2u, 8u}) {
    std::vector<Sequence> with_reuse = run(rows, reused);
    RolloutScratch fresh;
    std::vector<Sequence> from_fresh = run(rows, fresh);
    ASSERT_EQ(with_reuse.size(), rows);
    for (size_t r = 0; r < rows; ++r) {
      ExpectSequenceEq(with_reuse[r], from_fresh[r]);
    }
  }
}

TEST(ForecastParityTest, TrainerEvaluateMatchesScalarOracle) {
  meta::TrainerConfig config;
  config.model.hidden_dim = 6;
  tamp::Rng rng(43);
  EncoderDecoder model(config.model);

  meta::TrainedModels models;
  models.model_config = config.model;
  std::vector<meta::LearningTask> tasks;
  for (int w = 0; w < 5; ++w) {
    models.worker_params.push_back(model.InitParams(rng));
    meta::LearningTask task;
    task.worker_id = w;
    // Worker 3's eval windows have mixed lengths: each run of equal
    // lengths is its own batch, and the worker must still agree.
    for (int i = 0; i < 4; ++i) {
      meta::TrainingSample sample;
      int steps = (w == 3 && i % 2 == 1) ? 3 : 4;
      sample.input = MakeWindow(rng, steps, 2);
      sample.target.push_back({rng.Uniform01(), rng.Uniform01()});
      sample.target_km.push_back(
          {sample.target[0][0] * 20.0, sample.target[0][1] * 10.0});
      task.eval.push_back(std::move(sample));
    }
    tasks.push_back(std::move(task));
  }

  // The oracle's distances: every sample through the scalar Predict, in
  // Evaluate's order (samples, then steps, per worker; workers in order).
  geo::GridSpec grid(20.0, 10.0, 50, 100);
  std::vector<std::vector<double>> distances(tasks.size());
  for (size_t w = 0; w < tasks.size(); ++w) {
    for (const meta::TrainingSample& sample : tasks[w].eval) {
      const Sequence pred =
          oracle::Predict(model, models.worker_params[w], sample.input);
      for (size_t t = 0; t < pred.size(); ++t) {
        distances[w].push_back(geo::Distance(
            grid.Denormalize({pred[t][0], pred[t][1]}),
            grid.Denormalize({sample.target[t][0], sample.target[t][1]})));
      }
    }
  }

  // A 2 km threshold, then exactly one point's distance: Def. 7 matches
  // d <= a, so that point must count as matched.
  for (const double radius_km : {2.0, distances[2][1]}) {
    std::vector<meta::PredictionMetrics> oracle(tasks.size());
    double se_sum = 0.0, ae_sum = 0.0;
    int matched_total = 0, points_total = 0;
    for (size_t w = 0; w < tasks.size(); ++w) {
      double se = 0.0, ae = 0.0;
      int matched = 0, points = 0;
      for (const double d : distances[w]) {
        se += d * d;
        ae += d;
        if (d <= radius_km) ++matched;
        ++points;
      }
      oracle[w].num_points = points;
      oracle[w].rmse_km = std::sqrt(se / points);
      oracle[w].mae_km = ae / points;
      oracle[w].matching_rate = static_cast<double>(matched) / points;
      se_sum += se;
      ae_sum += ae;
      matched_total += matched;
      points_total += points;
    }

    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      meta::EvalResult result = meta::MobilityTrainer(config).Evaluate(
          models, tasks, grid, radius_km);
      EXPECT_EQ(result.aggregate.rmse_km, std::sqrt(se_sum / points_total));
      EXPECT_EQ(result.aggregate.mae_km, ae_sum / points_total);
      EXPECT_EQ(result.aggregate.matching_rate,
                static_cast<double>(matched_total) / points_total);
      EXPECT_EQ(result.aggregate.num_points, points_total);
      ASSERT_EQ(result.per_worker.size(), oracle.size());
      for (size_t w = 0; w < oracle.size(); ++w) {
        EXPECT_EQ(result.per_worker[w].num_points, oracle[w].num_points);
        EXPECT_EQ(result.per_worker[w].rmse_km, oracle[w].rmse_km);
        EXPECT_EQ(result.per_worker[w].mae_km, oracle[w].mae_km);
        EXPECT_EQ(result.per_worker[w].matching_rate,
                  oracle[w].matching_rate);
      }
    }
  }
}

/// The in-tile rollout against the oracle's one-worker rollout at the
/// shapes that can break it: singleton rows interleaved in caller order
/// with a shared group of more than kTileCols rows (one group, two
/// chunks), a last pass that produces only part of its seq_out steps
/// (seq_out 3, horizon 4), with and without the time-of-day input, at 1
/// to 8 threads.
TEST(ForecastParityTest, RolloutMatchesScalarAtTileAndPassEdges) {
  const geo::GridSpec grid(28.0, 14.0, 50, 100);
  constexpr int kHorizon = 4;
  for (int input_dim : {2, 3}) {
    for (int seq_out : {1, 3}) {
      Seq2SeqConfig config;
      config.input_dim = input_dim;
      config.hidden_dim = 5;
      config.seq_out = seq_out;
      tamp::Rng rng(static_cast<uint64_t>(53 + 10 * input_dim + seq_out));
      EncoderDecoder model(config);

      const std::vector<double> shared = model.InitParams(rng);
      std::vector<std::vector<double>> own;
      std::vector<const std::vector<double>*> row_params;
      std::vector<std::vector<geo::Point>> recents;
      int shared_rows = 0;
      for (int r = 0; r < 80; ++r) {
        // Every 8th row (from row 3) is a fine-tuned singleton; the other
        // 70 rows share one parameter vector.
        if (r % 8 == 3) {
          own.push_back(model.InitParams(rng));
        } else {
          ++shared_rows;
        }
        std::vector<geo::Point> walk;
        for (int step = 0; step < 5; ++step) {
          walk.push_back({rng.Uniform(0.0, grid.width_km()),
                          rng.Uniform(0.0, grid.height_km())});
        }
        recents.push_back(std::move(walk));
      }
      ASSERT_GT(shared_rows, static_cast<int>(EncoderDecoder::kTileCols));
      size_t next_own = 0;
      for (int r = 0; r < 80; ++r) {
        row_params.push_back(r % 8 == 3 ? &own[next_own++] : &shared);
      }

      std::vector<std::vector<geo::TimedPoint>> scalar;
      for (size_t r = 0; r < recents.size(); ++r) {
        scalar.push_back(oracle::RolloutPredict(model, *row_params[r],
                                                recents[r], grid, kHorizon,
                                                /*now_min=*/1430.0,
                                                /*step_period_min=*/10.0));
      }
      for (int threads : {1, 2, 4, 8}) {
        ThreadCountGuard guard(threads);
        core::FleetForecastScratch scratch;
        std::vector<std::vector<geo::TimedPoint>> batched;
        core::RolloutPredict(model, row_params, recents, grid, kHorizon,
                             1430.0, 10.0, scratch, &batched);
        ASSERT_EQ(batched.size(), scalar.size());
        for (size_t r = 0; r < scalar.size(); ++r) {
          ASSERT_EQ(batched[r].size(), static_cast<size_t>(kHorizon));
          for (size_t i = 0; i < scalar[r].size(); ++i) {
            EXPECT_EQ(batched[r][i].loc.x, scalar[r][i].loc.x)
                << "row " << r << " step " << i << " threads " << threads;
            EXPECT_EQ(batched[r][i].loc.y, scalar[r][i].loc.y)
                << "row " << r << " step " << i << " threads " << threads;
            EXPECT_EQ(batched[r][i].time_min, scalar[r][i].time_min)
                << "row " << r << " step " << i << " threads " << threads;
          }
        }
      }
    }
  }
}

/// The work counters are part of the bench gate, so they must not depend
/// on the thread count, and the cell count must equal the scalar chain's
/// LSTM step count. A distinct-params fleet runs one
/// 1-column tile per row; a shared-params fleet of 70 rows runs
/// ceil(70/64) = 2 tiles, strictly fewer kernel launches than cells.
TEST(ForecastParityTest, WorkCountersAreExactAndThreadInvariant) {
  Seq2SeqConfig config;
  config.input_dim = 3;
  config.hidden_dim = 8;
  config.seq_out = 2;
  tamp::Rng rng(47);
  EncoderDecoder model(config);

  std::vector<std::vector<double>> params;
  std::vector<Sequence> windows;
  std::vector<const std::vector<double>*> distinct_params;
  std::vector<const std::vector<double>*> shared_params;
  std::vector<const Sequence*> inputs;
  const int rows = 70;  // > kTileCols: the shared group spans two tiles.
  for (int r = 0; r < rows; ++r) {
    params.push_back(model.InitParams(rng));
    windows.push_back(MakeWindow(rng, 5, 3));
  }
  for (int r = 0; r < rows; ++r) {
    distinct_params.push_back(&params[r]);
    shared_params.push_back(&params[0]);
    inputs.push_back(&windows[r]);
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& cells = registry.GetCounter("nn.forecast_cells");
  obs::Counter& gemm = registry.GetCounter("nn.batched_gemm_calls");
  obs::Counter& batch_rows = registry.GetCounter("nn.batch_rows");

  // Scalar reference: one LSTM step per row per (seq_in + seq_out) step;
  // kernels: one gate launch per tile per cell step plus one readout
  // launch per tile per decoder step.
  const int64_t expected_cells = static_cast<int64_t>(rows) * (5 + 2);
  struct Fleet {
    const std::vector<const std::vector<double>*>* row_params;
    int64_t tiles;
  };
  const Fleet fleets[] = {{&distinct_params, rows},
                          {&shared_params, (rows + 63) / 64}};
  for (const Fleet& fleet : fleets) {
    for (int threads : {1, 2, 4, 8}) {
      ThreadCountGuard guard(threads);
      RolloutScratch scratch;
      std::vector<Sequence> out;
      const int64_t c0 = cells.value();
      const int64_t g0 = gemm.value();
      const int64_t r0 = batch_rows.value();
      model.PredictBatch(*fleet.row_params, inputs, &out, scratch);
      EXPECT_EQ(cells.value() - c0, expected_cells) << threads;
      EXPECT_EQ(gemm.value() - g0, fleet.tiles * (7 + 2)) << threads;
      EXPECT_EQ(batch_rows.value() - r0, rows) << threads;
    }
  }
  EXPECT_LT(fleets[1].tiles * (7 + 2), expected_cells);
}

}  // namespace
}  // namespace tamp::nn
