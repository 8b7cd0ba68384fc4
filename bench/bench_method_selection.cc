// Ablation A2: budget-aware GML method selection (Section IV-A).
//
// Sweeps memory and time budgets over the node-classification method pool
// and reports which method the analytic cost model selects, then trains
// the selection and compares predicted vs measured cost.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "core/kgnet.h"
#include "core/method_selector.h"
#include "workload/dblp_gen.h"

int main() {
  using namespace kgnet;
  using namespace kgnet::core;
  using workload::DblpSchema;
  bench::ShapeChecker shape;

  core::KgNet kg;
  workload::DblpOptions opts;
  opts.num_papers = 800;
  opts.num_authors = 400;
  opts.num_venues = 8;
  opts.num_affiliations = 24;
  opts.periphery_scale = 2.0;
  if (!workload::GenerateDblp(opts, &kg.store()).ok()) return 1;

  // Build the graph summary the selector sees (via one KG' extraction).
  core::TrainTaskSpec base;
  base.task = gml::TaskType::kNodeClassification;
  base.target_type_iri = DblpSchema::Publication();
  base.label_predicate_iri = DblpSchema::PublishedIn();
  base.config.epochs = 40;
  base.config.patience = 0;
  base.config.hidden_dim = 16;
  base.config.embed_dim = 16;

  std::printf("METHOD SELECTION under budgets (NC pool: GCN, SAGE, RGCN, "
              "G-SAINT, SH-SAINT)\n\n");
  std::printf("%-34s %-14s %12s %12s\n", "budget", "selected",
              "est mem (MB)", "est time (s)");

  struct Case {
    const char* label;
    TaskBudget budget;
  };
  TaskBudget unconstrained;
  TaskBudget tight_mem;
  tight_mem.max_memory_bytes = 3 << 20;  // 3 MB
  TaskBudget time_prio;
  time_prio.priority = BudgetPriority::kTime;
  TaskBudget mem_prio;
  mem_prio.priority = BudgetPriority::kMemory;
  const Case cases[] = {
      {"unconstrained, ModelScore", unconstrained},
      {"max memory 3MB", tight_mem},
      {"priority Time", time_prio},
      {"priority Memory", mem_prio},
  };

  std::string unconstrained_pick, tight_pick;
  for (const Case& c : cases) {
    core::TrainTaskSpec spec = base;
    spec.budget = c.budget;
    spec.model_name = "selbench";
    auto out = kg.TrainTask(spec);
    if (!out.ok()) {
      std::fprintf(stderr, "%s\n", out.status().ToString().c_str());
      return 1;
    }
    std::printf("%-34s %-14s %12.1f %12.2f\n", c.label,
                out->report.method.c_str(),
                bench::ToMb(out->selection.estimate.memory_bytes),
                out->selection.estimate.seconds);
    if (c.label == std::string("unconstrained, ModelScore"))
      unconstrained_pick = out->report.method;
    if (c.label == std::string("max memory 3MB")) {
      tight_pick = out->report.method;
      // Estimated vs measured cost for the constrained pick.
      std::printf("%-34s %-14s %12.1f %12.2f   (measured)\n", "", "",
                  bench::ToMb(out->report.peak_memory_bytes),
                  out->report.train_seconds);
      shape.Check(out->report.peak_memory_bytes <
                      2 * out->selection.estimate.memory_bytes + (2 << 20),
                  "measured memory within 2x of the analytic estimate");
    }
  }

  shape.Check(unconstrained_pick == "Shadow-SAINT",
              "unconstrained ModelScore picks the highest-prior method");
  shape.Check(tight_pick != "RGCN",
              "tight memory budget excludes full-batch RGCN");

  // Probe-based refinement (the paper's "run a few epochs" estimator).
  {
    core::TrainTaskSpec spec = base;
    MetaSampler sampler(&kg.store());
    MetaSampleSpec ms;
    ms.target_type_iri = spec.target_type_iri;
    ms.supervision_predicate_iris = {spec.label_predicate_iri};
    auto sub = sampler.ExtractTriples(ms);
    if (sub.ok()) {
      gml::TransformOptions topts;
      topts.target_type_iri = spec.target_type_iri;
      topts.label_predicate_iri = spec.label_predicate_iri;
      topts.feature_dim = 16;
      auto graph = gml::BuildGraphData(sub->triples, kg.store().dict(), topts);
      if (graph.ok()) {
        auto analytic = MethodSelector::Estimate(
            gml::GmlMethod::kRgcn, GraphSummary::FromGraph(*graph),
            base.config);
        auto probed = MethodSelector::Probe(gml::GmlMethod::kRgcn, *graph,
                                            base.config, 2);
        if (probed.ok()) {
          std::printf("\nProbe refinement (RGCN, 40 epochs): analytic "
                      "%.2fs vs probed %.2fs\n",
                      analytic.seconds, probed->seconds);
          shape.Check(probed->seconds > 0, "probe produces a usable time");
        }
      }
    }
  }
  return shape.Report() == 0 ? 0 : 1;
}
