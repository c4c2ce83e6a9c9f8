#pragma once

#include <vector>

#include "geo/point.h"
#include "geo/poi.h"
#include "nn/encoder_decoder.h"

namespace tamp::meta {

/// One (input routine, future routine) pair sampled from a worker's
/// historical data (Def. 3): the input is the seq_in most recent observed
/// locations, the target the seq_out locations that follow. Model
/// coordinates are normalized into [0,1]^2; `target_km` keeps the same
/// target points in map kilometres for the task-assignment-oriented loss
/// weights (Eq. 7), which are functions of real distances to historical tasks.
struct TrainingSample {
  nn::Sequence input;                // seq_in x 2, normalized.
  nn::Sequence target;               // seq_out x 2, normalized.
  std::vector<geo::Point> target_km; // seq_out points in km.
};

/// A learning task Gamma_i (Section III-B): everything the meta-learning
/// stack knows about one worker's mobility-prediction problem.
struct LearningTask {
  int worker_id = -1;

  /// Few-shot adaptation set (MAML inner loop, Alg. 3 lines 4-7).
  std::vector<TrainingSample> support;
  /// Meta-objective set (Alg. 3 line 8).
  std::vector<TrainingSample> query;
  /// Held-out test-day samples used only for RMSE/MAE/MR evaluation.
  std::vector<TrainingSample> eval;

  /// Spatial feature V^(i): POIs visited while performing historical tasks.
  geo::PoiSequence pois;
  /// Distribution feature: the worker's historical location cloud (km),
  /// compared across tasks with the Wasserstein distance (Eq. 3).
  std::vector<geo::Point> location_cloud;
};

}  // namespace tamp::meta
