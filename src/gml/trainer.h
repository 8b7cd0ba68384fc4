// The one training loop every GML method runs on. A method supplies its
// own steps — building its parameters, one epoch, its test pass — and
// RunTraining owns the rest: the memory scope and stopwatch, the per-epoch
// cancellation and time-budget checks, early stopping, and the report.
#ifndef KGNET_GML_TRAINER_H_
#define KGNET_GML_TRAINER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/cancel.h"
#include "common/result.h"
#include "gml/graph_data.h"
#include "tensor/rng.h"

namespace kgnet::gml {

/// Hyperparameters for one training run.
struct TrainConfig {
  size_t epochs = 40;
  float lr = 0.01f;
  size_t hidden_dim = 32;
  size_t embed_dim = 32;
  /// Mini-batch knobs (SAINT / Shadow / KGE / MorsE).
  size_t batch_size = 512;
  size_t saint_sample_nodes = 2048;
  size_t shadow_hops = 2;
  size_t shadow_neighbor_budget = 10;
  size_t negatives_per_positive = 4;
  /// Early stopping patience in epochs (0 disables).
  size_t patience = 8;
  uint64_t seed = 17;
  /// LP evaluation: number of sampled negative candidates per test edge
  /// (0 = rank against all entities).
  size_t eval_candidates = 100;
  /// LP evaluation scope: true ranks the true tail against
  /// destination-type instances only (hard, type-restricted protocol);
  /// false ranks against the whole entity set (OGB-style protocol, the
  /// one the paper's Figure 15 uses).
  bool eval_within_type = true;
  /// Wall-clock training budget in seconds (0 = unlimited). Training
  /// stops at the first epoch boundary past the budget — this is how
  /// KGNet's task *time budget* reaches the pipeline.
  double max_seconds = 0.0;
  /// Cooperative cancellation (common/cancel.h), polled with CheckNow (so
  /// a deadline is evaluated every epoch rather than on the per-row
  /// stride) at the same epoch boundaries as max_seconds; the default
  /// token is inert. Unlike the budget — which *keeps* the partially
  /// trained model — a tripped token makes Train() return its
  /// Cancelled/DeadlineExceeded status, so the pipeline registers
  /// nothing. This is how a draining server bounds an in-flight TrainGML
  /// (docs/RESILIENCE.md).
  common::CancelToken cancel;
};

/// What a training run produced (feeds KGMeta and the experiment tables).
struct TrainReport {
  std::string method;
  /// Primary metric: NC accuracy or LP Hits@10, in [0,1].
  double metric = 0.0;
  /// Secondary metrics.
  double macro_f1 = 0.0;
  double mrr = 0.0;
  /// Best validation metric over the epochs (-1 when none was validated).
  double valid_metric = 0.0;
  double final_loss = 0.0;
  size_t epochs_run = 0;
  /// Wall-clock training seconds.
  double train_seconds = 0.0;
  /// Peak live tensor bytes during training (MemoryMeter).
  size_t peak_memory_bytes = 0;
  /// Mean per-instance inference latency in microseconds.
  double inference_us = 0.0;
};

/// What one epoch produced.
struct EpochResult {
  /// The training loss; the report keeps the last epoch's.
  float loss = 0.0f;
  /// The validation metric early stopping watches (higher is better);
  /// none when the epoch had nothing to validate on.
  std::optional<double> valid_metric;
};

/// A GML method's own part of a training run.
struct TrainingSteps {
  /// Builds the parameters and per-run state; the first to draw from the
  /// run's RNG.
  std::function<void(tensor::Rng*)> init;
  /// Trains and validates epoch `epoch` (0-based).
  std::function<EpochResult(size_t epoch, tensor::Rng*)> epoch;
  /// Optional: the epoch just run has the best valid_metric so far.
  std::function<void()> improved;
  /// Optional: runs once training is over and its report fields are set,
  /// before the timed test pass (restore the best parameters, build what
  /// the test pass reads).
  std::function<void()> finish;
  /// The timed test pass: sets the report's test metrics and returns the
  /// number of instances it inferred.
  std::function<size_t(TrainReport*)> test;
};

/// Runs `steps` under `config` and fills `report`, naming the run
/// `method`:
///   * init, then up to config.epochs epochs, all inside one memory scope;
///   * before each epoch, a tripped config.cancel returns its status (the
///     report is left untouched) and a spent config.max_seconds ends
///     training;
///   * after an epoch that validated, early stopping with
///     config.patience;
///   * then the training fields of the report, then finish, then the timed
///     test pass behind inference_us.
Status RunTraining(const char* method, const GraphData& graph,
                   const TrainConfig& config, const TrainingSteps& steps,
                   TrainReport* report);

}  // namespace kgnet::gml

#endif  // KGNET_GML_TRAINER_H_
