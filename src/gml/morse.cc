#include "gml/morse.h"

#include <algorithm>
#include <cmath>

#include "gml/kge.h"
#include "tensor/rng.h"

namespace kgnet::gml {

using tensor::Matrix;

namespace {
/// Maximum incident roles aggregated per entity (keeps steps O(1)).
constexpr size_t kMaxIncident = 32;
/// Number of hashed anchor buckets.
constexpr size_t kAnchorBuckets = 4096;

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

uint32_t AnchorBucket(uint32_t v) {
  return (v * 2654435761u) % kAnchorBuckets;
}
}  // namespace

void MorseModel::ComputeEntityEmbedding(uint32_t v, float* out) const {
  const size_t d = dim_;
  std::vector<float> agg(d, 0.0f);
  const auto& inc = incident_[v];
  const size_t n = std::min(inc.size(), kMaxIncident);
  if (n > 0) {
    for (size_t i = 0; i < n; ++i) {
      const float* row = rel_types_.Row(inc[i]);
      for (size_t k = 0; k < d; ++k) agg[k] += row[k];
    }
    const float inv = 1.0f / static_cast<float>(n);
    for (size_t k = 0; k < d; ++k) agg[k] *= inv;
  }
  const float* anchor = anchors_.Row(AnchorBucket(v));
  for (size_t k = 0; k < d; ++k) agg[k] += anchor[k];
  if (v < neighbors_.size() && !neighbors_[v].empty()) {
    const auto& nbs = neighbors_[v];
    const float inv = 1.0f / static_cast<float>(nbs.size());
    for (const Neighbor& nb : nbs) {
      const float g = role_gate_[nb.role];
      const float* na = anchors_.Row(AnchorBucket(nb.node));
      for (size_t k = 0; k < d; ++k) agg[k] += inv * g * na[k];
    }
  }
  // out = W · agg (linear refinement; a saturating nonlinearity traps
  // optimization on the type-discrimination plateau).
  for (size_t i = 0; i < d; ++i) {
    const float* wrow = w_.Row(i);
    float acc = 0.0f;
    for (size_t k = 0; k < d; ++k) acc += wrow[k] * agg[k];
    out[i] = acc;
  }
}

Status MorseModel::Train(const GraphData& graph, const TrainConfig& config,
                         TrainReport* report) {
  if (graph.train_edges.empty())
    return Status::InvalidArgument("graph carries no link-prediction edges");
  const size_t d = config.embed_dim;
  std::vector<float> eh(d), et(d), gh(d), gt(d), gr(d);
  std::vector<float> agg_h(d), agg_t(d), pre_h(d), pre_t(d);
  std::vector<Edge> pos;
  Matrix best_rel_types, best_rel_scoring, best_w, best_anchors;
  std::vector<float> best_gates;
  bool have_best = false;

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) {
    dim_ = d;
    num_relations_ = graph.num_relations;
    rel_types_ = Matrix(num_relations_ * 2, dim_);
    rel_types_.XavierInit(rng);
    rel_scoring_ = Matrix(num_relations_, dim_);
    rel_scoring_.XavierInit(rng);
    // W starts as the identity and is refined slowly: the aggregate is
    // already in the embedding space (TransE-style), and a randomly
    // initialized mixing matrix makes optimization dominated by W-alignment
    // instead of anchor clustering.
    w_ = Matrix(dim_, dim_);
    for (size_t i = 0; i < dim_; ++i) w_.At(i, i) = 1.0f;
    // Anchors start at zero: initial embeddings depend only on the relation
    // signature, and per-entity structure grows from gradients. Random
    // anchor init makes convergence depend heavily on hash-layout luck.
    anchors_ = Matrix(kAnchorBuckets, dim_);

    // Incidence lists (entity-independent signature of each node) and
    // sampled neighbor lists (capped; reservoir-free truncation suffices
    // since edge order is arbitrary).
    constexpr size_t kMaxNeighbors = 16;
    incident_.assign(graph.num_nodes, {});
    neighbors_.assign(graph.num_nodes, {});
    role_gate_.assign(num_relations_ * 2, 1.0f);
    for (const Edge& e : graph.edges) {
      const uint32_t out_role = e.rel;
      const uint32_t in_role = static_cast<uint32_t>(num_relations_ + e.rel);
      incident_[e.src].push_back(out_role);
      incident_[e.dst].push_back(in_role);
      if (neighbors_[e.src].size() < kMaxNeighbors)
        neighbors_[e.src].push_back(Neighbor{e.dst, out_role});
      if (neighbors_[e.dst].size() < kMaxNeighbors)
        neighbors_[e.dst].push_back(Neighbor{e.src, in_role});
    }

    // Edge-sampled training over *all* message-passing edges (MorsE
    // meta-trains over sampled sub-KGs spanning every relation; the
    // training task edges are already part of graph.edges). Per-epoch cost
    // therefore scales with the KG size — the mechanism behind the paper's
    // Figure 15 full-KG vs KG' gap under a fixed budget.
    //
    // The task relation is oversampled so that roughly a third of the
    // training steps exercise it: MorsE's meta-objective is the downstream
    // task, and without the boost the target relation receives only its
    // frequency share of the updates and rarely escapes the type-
    // discrimination plateau.
    pos = graph.edges;
    if (graph.task_relation != UINT32_MAX && !graph.train_edges.empty()) {
      const size_t non_task = graph.edges.size() - graph.train_edges.size();
      const size_t repeats = non_task / (2 * graph.train_edges.size());
      for (size_t r = 0; r < repeats; ++r)
        pos.insert(pos.end(), graph.train_edges.begin(),
                   graph.train_edges.end());
    }
    std::shuffle(pos.begin(), pos.end(), rng->generator());
  };

  auto aggregate = [&](uint32_t v, float* agg, float* pre, float* emb) {
    std::fill(agg, agg + d, 0.0f);
    const auto& inc = incident_[v];
    const size_t n = std::min(inc.size(), kMaxIncident);
    if (n > 0) {
      for (size_t i = 0; i < n; ++i) {
        const float* row = rel_types_.Row(inc[i]);
        for (size_t k = 0; k < d; ++k) agg[k] += row[k];
      }
      const float inv = 1.0f / static_cast<float>(n);
      for (size_t k = 0; k < d; ++k) agg[k] *= inv;
    }
    const float* anchor = anchors_.Row(AnchorBucket(v));
    for (size_t k = 0; k < d; ++k) agg[k] += anchor[k];
    const auto& nbs = neighbors_[v];
    if (!nbs.empty()) {
      const float inv = 1.0f / static_cast<float>(nbs.size());
      for (const Neighbor& nb : nbs) {
        const float g = role_gate_[nb.role];
        const float* na = anchors_.Row(AnchorBucket(nb.node));
        for (size_t k = 0; k < d; ++k) agg[k] += inv * g * na[k];
      }
    }
    for (size_t i = 0; i < d; ++i) {
      const float* wrow = w_.Row(i);
      float acc = 0.0f;
      for (size_t k = 0; k < d; ++k) acc += wrow[k] * agg[k];
      pre[i] = acc;
      emb[i] = acc;
    }
  };

  // Backprops d(loss)/d(emb) into rel_types_ and w_ for node v.
  auto backprop_entity = [&](uint32_t v, const float* agg, const float* pre,
                             const float* demb) {
    const float lr = config.lr;
    std::vector<float> dpre(demb, demb + d);
    (void)pre;
    // dW[i][k] += dpre[i] * agg[k]; dagg[k] = sum_i dpre[i] * W[i][k]
    std::vector<float> dagg(d, 0.0f);
    const float w_lr = 0.1f * lr;  // refine W slowly
    for (size_t i = 0; i < d; ++i) {
      float* wrow = w_.Row(i);
      const float dp = dpre[i];
      for (size_t k = 0; k < d; ++k) {
        dagg[k] += dp * wrow[k];
        wrow[k] -= w_lr * dp * agg[k];
      }
    }
    float* anchor = anchors_.Row(AnchorBucket(v));
    for (size_t k = 0; k < d; ++k) anchor[k] -= lr * dagg[k];
    const auto& nbs = neighbors_[v];
    if (!nbs.empty()) {
      const float ninv = 1.0f / static_cast<float>(nbs.size());
      for (const Neighbor& nb : nbs) {
        float* na = anchors_.Row(AnchorBucket(nb.node));
        const float g = role_gate_[nb.role];
        float ggrad = 0.0f;
        for (size_t k = 0; k < d; ++k) {
          ggrad += ninv * dagg[k] * na[k];
          na[k] -= lr * ninv * g * dagg[k];
        }
        role_gate_[nb.role] -= lr * ggrad;
      }
    }
    const auto& inc = incident_[v];
    const size_t n = std::min(inc.size(), kMaxIncident);
    if (n == 0) return;
    const float inv = 1.0f / static_cast<float>(n);
    for (size_t i = 0; i < n; ++i) {
      float* row = rel_types_.Row(inc[i]);
      for (size_t k = 0; k < d; ++k) row[k] -= lr * inv * dagg[k];
    }
  };

  steps.epoch = [&](size_t epoch, tensor::Rng* rng) {
    // A local, not a capture: the updates below store floats, which would
    // make the compiler reload a float read through a reference.
    const float lr = config.lr;
    float loss = 0.0f;
    for (const Edge& e : pos) {
      for (size_t neg = 0; neg <= config.negatives_per_positive; ++neg) {
        uint32_t h = e.src, t = e.dst;
        float target = 1.0f;
        if (neg > 0) {
          target = -1.0f;
          if (rng->NextFloat() < 0.5f) {
            h = static_cast<uint32_t>(rng->NextUint(graph.num_nodes));
          } else {
            t = static_cast<uint32_t>(rng->NextUint(graph.num_nodes));
          }
        }
        aggregate(h, agg_h.data(), pre_h.data(), eh.data());
        aggregate(t, agg_t.data(), pre_t.data(), et.data());
        float* rv = rel_scoring_.Row(e.rel);
        // TransE score and gradients wrt derived embeddings.
        float s = 0.0f;
        for (size_t k = 0; k < d; ++k) {
          const float diff = eh[k] + rv[k] - et[k];
          s -= std::fabs(diff);
          const float sign = diff > 0 ? 1.0f : (diff < 0 ? -1.0f : 0.0f);
          gh[k] = -sign;
          gr[k] = -sign;
          gt[k] = sign;
        }
        const float sigma = Sigmoid(-target * s);
        const float dL_ds = -target * sigma;
        loss += std::log1p(std::exp(-std::fabs(target * s))) +
                std::max(-target * s, 0.0f);
        for (size_t k = 0; k < d; ++k) {
          rv[k] -= lr * dL_ds * gr[k];
          gh[k] *= dL_ds;
          gt[k] *= dL_ds;
        }
        backprop_entity(h, agg_h.data(), pre_h.data(), gh.data());
        backprop_entity(t, agg_t.data(), pre_t.data(), gt.data());
      }
    }
    // Validation samples candidates even when the final evaluation ranks
    // them all, so the budget is spent on training.
    return EpochResult{loss, ValidationMrr(graph, config, epoch)};
  };
  // Snapshot the best-validation parameters; restored once training is
  // over so late-epoch collapse cannot hurt the served model.
  steps.improved = [&] {
    best_rel_types = rel_types_;
    best_rel_scoring = rel_scoring_;
    best_w = w_;
    best_anchors = anchors_;
    best_gates = role_gate_;
    have_best = true;
  };
  steps.finish = [&] {
    if (have_best) {
      rel_types_ = std::move(best_rel_types);
      rel_scoring_ = std::move(best_rel_scoring);
      w_ = std::move(best_w);
      anchors_ = std::move(best_anchors);
      role_gate_ = std::move(best_gates);
    }
    // Materialize entity embeddings for fast inference.
    entity_cache_ = Matrix(graph.num_nodes, d);
    for (uint32_t v = 0; v < graph.num_nodes; ++v)
      ComputeEntityEmbedding(v, entity_cache_.Row(v));
  };
  steps.test = [&](TrainReport* r) { return TestRanks(graph, config, r); };
  return RunTraining("MorsE", graph, config, steps, report);
}

float MorseModel::Score(uint32_t src, uint32_t rel, uint32_t dst) const {
  const size_t d = dim_;
  std::vector<float> eh(d), et(d);
  if (entity_cache_.rows() > src && entity_cache_.rows() > dst) {
    std::copy(entity_cache_.Row(src), entity_cache_.Row(src) + d, eh.begin());
    std::copy(entity_cache_.Row(dst), entity_cache_.Row(dst) + d, et.begin());
  } else {
    ComputeEntityEmbedding(src, eh.data());
    ComputeEntityEmbedding(dst, et.data());
  }
  return KgeScoreRows(KgeScore::kTransE, eh.data(), rel_scoring_.Row(rel),
                      et.data(), d);
}

std::vector<float> MorseModel::EntityEmbedding(uint32_t node) const {
  const size_t d = dim_;
  std::vector<float> out(d);
  if (entity_cache_.rows() > node) {
    std::copy(entity_cache_.Row(node), entity_cache_.Row(node) + d,
              out.begin());
  } else if (node < incident_.size()) {
    ComputeEntityEmbedding(node, out.data());
  }
  return out;
}

std::vector<float> MorseModel::RelationEmbedding(uint32_t rel) const {
  if (rel >= rel_scoring_.rows()) return {};
  return std::vector<float>(rel_scoring_.Row(rel),
                            rel_scoring_.Row(rel) + dim_);
}

}  // namespace kgnet::gml
