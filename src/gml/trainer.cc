#include "gml/trainer.h"

#include <algorithm>

#include "gml/train_util.h"
#include "tensor/memory_meter.h"

namespace kgnet::gml {

namespace {

/// Early-stopping tracker: call Update(metric) per validated epoch; Stop()
/// turns true after `patience` of them without improvement.
class EarlyStopper {
 public:
  explicit EarlyStopper(size_t patience) : patience_(patience) {}
  /// Returns true if `metric` improved the best value.
  bool Update(double metric) {
    if (metric > best_) {
      best_ = metric;
      stale_ = 0;
      return true;
    }
    ++stale_;
    return false;
  }
  bool Stop() const { return patience_ > 0 && stale_ >= patience_; }
  double best() const { return best_; }

 private:
  size_t patience_;
  size_t stale_ = 0;
  double best_ = -1.0;
};

}  // namespace

Status RunTraining(const char* method, const GraphData& graph,
                   const TrainConfig& config, const TrainingSteps& steps,
                   TrainReport* report) {
  tensor::PeakMemoryScope mem_scope;
  Stopwatch timer;
  tensor::Rng rng(config.seed);
  steps.init(&rng);

  EarlyStopper stopper(config.patience);
  float loss = 0.0f;
  size_t epoch = 0;
  for (; epoch < config.epochs; ++epoch) {
    KGNET_RETURN_IF_ERROR(config.cancel.CheckNow());
    if (config.max_seconds > 0 && timer.Seconds() >= config.max_seconds) break;
    const EpochResult result = steps.epoch(epoch, &rng);
    loss = result.loss;
    if (!result.valid_metric) continue;
    if (stopper.Update(*result.valid_metric) && steps.improved)
      steps.improved();
    if (stopper.Stop()) {
      ++epoch;
      break;
    }
  }

  report->method = method;
  report->epochs_run = epoch;
  report->final_loss = loss;
  report->train_seconds = timer.Seconds();
  report->peak_memory_bytes = mem_scope.PeakBytes() + graph.StructureBytes();
  report->valid_metric = stopper.best();
  if (steps.finish) steps.finish();

  Stopwatch infer_timer;
  const size_t inferred = steps.test(report);
  report->inference_us = infer_timer.Micros() / std::max<size_t>(inferred, 1);
  return Status::OK();
}

}  // namespace kgnet::gml
