#include "gml/kge.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "tensor/rng.h"

namespace kgnet::gml {

using tensor::Matrix;

namespace {

float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

float KgeScoreRows(KgeScore kind, const float* h, const float* r,
                   const float* t, size_t d, float* gh, float* gr,
                   float* gt) {
  switch (kind) {
    case KgeScore::kTransE: {
      float s = 0.0f;
      for (size_t i = 0; i < d; ++i) {
        const float diff = h[i] + r[i] - t[i];
        s -= std::fabs(diff);
        const float sign = diff > 0 ? 1.0f : (diff < 0 ? -1.0f : 0.0f);
        if (gh) {
          gh[i] = -sign;
          gr[i] = -sign;
          gt[i] = sign;
        }
      }
      return s;
    }
    case KgeScore::kDistMult: {
      float s = 0.0f;
      for (size_t i = 0; i < d; ++i) {
        s += h[i] * r[i] * t[i];
        if (gh) {
          gh[i] = r[i] * t[i];
          gr[i] = h[i] * t[i];
          gt[i] = h[i] * r[i];
        }
      }
      return s;
    }
    case KgeScore::kComplEx: {
      // First half = real part, second half = imaginary part.
      const size_t m = d / 2;
      float s = 0.0f;
      for (size_t i = 0; i < m; ++i) {
        const float hr = h[i], hi = h[m + i];
        const float rr = r[i], ri = r[m + i];
        const float tr = t[i], ti = t[m + i];
        // Re(<h, r, conj(t)>) expanded:
        s += hr * rr * tr + hi * rr * ti + hr * ri * ti - hi * ri * tr;
        if (gh) {
          gh[i] = rr * tr + ri * ti;
          gh[m + i] = rr * ti - ri * tr;
          gr[i] = hr * tr + hi * ti;
          gr[m + i] = hr * ti - hi * tr;
          gt[i] = hr * rr - hi * ri;
          gt[m + i] = hi * rr + hr * ri;
        }
      }
      return s;
    }
    case KgeScore::kRotatE: {
      // Relation stores phases in its first half; h, t are complex.
      const size_t m = d / 2;
      float s = 0.0f;
      for (size_t i = 0; i < m; ++i) {
        const float hr = h[i], hi = h[m + i];
        const float tr = t[i], ti = t[m + i];
        const float theta = r[i];
        const float c = std::cos(theta), sn = std::sin(theta);
        // h rotated by theta.
        const float xr = hr * c - hi * sn;
        const float xi = hr * sn + hi * c;
        const float dr = xr - tr;
        const float di = xi - ti;
        const float norm = std::sqrt(dr * dr + di * di) + 1e-9f;
        s -= norm;
        if (gh) {
          const float ddr = dr / norm;  // d norm / d dr
          const float ddi = di / norm;
          // d(-norm)/d h = -(ddr * dxr/dh + ddi * dxi/dh)
          gh[i] = -(ddr * c + ddi * sn);
          gh[m + i] = -(-ddr * sn + ddi * c);
          // d xr/d theta = -hr sn - hi c = -xi ; d xi/d theta = xr
          gr[i] = -(ddr * (-xi) + ddi * xr);
          gr[m + i] = 0.0f;
          gt[i] = ddr;
          gt[m + i] = ddi;
        }
      }
      return s;
    }
  }
  return 0.0f;
}

Status KgeModel::Train(const GraphData& graph, const TrainConfig& config,
                       TrainReport* report) {
  if (graph.train_edges.empty())
    return Status::InvalidArgument("graph carries no link-prediction edges");
  // All message-passing edges plus training task edges supervise the
  // embeddings (the task edges are already appended to graph.edges by the
  // transformer, so graph.edges suffices).
  const std::vector<Edge>& pos_edges = graph.edges;
  std::vector<float> gh, gr, gt;
  Matrix best_entities, best_relations;
  bool have_best = false;

  TrainingSteps steps;
  steps.init = [&](tensor::Rng* rng) {
    dim_ = config.embed_dim;
    if ((score_ == KgeScore::kComplEx || score_ == KgeScore::kRotatE) &&
        dim_ % 2 != 0)
      ++dim_;  // complex models need an even dimension
    entities_ = Matrix(graph.num_nodes, dim_);
    entities_.XavierInit(rng);
    relations_ = Matrix(graph.num_relations, dim_);
    relations_.XavierInit(rng);
    gh.resize(dim_);
    gr.resize(dim_);
    gt.resize(dim_);
  };
  steps.epoch = [&](size_t epoch, tensor::Rng* rng) {
    // A local, not a capture: the row updates below store floats, which
    // would make the compiler reload a float read through a reference.
    const float lr = config.lr;
    float loss = 0.0f;
    for (size_t bstart = 0; bstart < pos_edges.size();
         bstart += config.batch_size) {
      const size_t bend =
          std::min(bstart + config.batch_size, pos_edges.size());
      for (size_t i = bstart; i < bend; ++i) {
        const Edge& e = pos_edges[i];
        // One positive + negatives.
        for (size_t neg = 0; neg <= config.negatives_per_positive; ++neg) {
          uint32_t h = e.src, t = e.dst;
          float target = 1.0f;
          if (neg > 0) {
            target = -1.0f;
            if (rng->NextFloat() < 0.5f) {
              h = static_cast<uint32_t>(rng->NextUint(graph.num_nodes));
            } else if (e.rel == graph.task_relation &&
                       !graph.destination_candidates.empty() &&
                       rng->NextFloat() < 0.5f) {
              // Type-constrained (hard) negative: corrupt the tail within
              // the destination type, forcing discrimination among the
              // candidates evaluation actually ranks over.
              t = graph.destination_candidates[rng->NextUint(
                  graph.destination_candidates.size())];
            } else {
              t = static_cast<uint32_t>(rng->NextUint(graph.num_nodes));
            }
          }
          float* hv = entities_.Row(h);
          float* rv = relations_.Row(e.rel);
          float* tv = entities_.Row(t);
          const float s = KgeScoreRows(score_, hv, rv, tv, dim_, gh.data(),
                                       gr.data(), gt.data());
          // Logistic loss: L = softplus(-target * s).
          const float sigma = Sigmoid(-target * s);
          const float dL_ds = -target * sigma;
          loss += std::log1p(std::exp(-std::fabs(target * s))) +
                  std::max(-target * s, 0.0f);
          for (size_t k = 0; k < dim_; ++k) {
            hv[k] -= lr * dL_ds * gh[k];
            rv[k] -= lr * dL_ds * gr[k];
            tv[k] -= lr * dL_ds * gt[k];
          }
        }
      }
    }
    return EpochResult{loss, ValidationMrr(graph, config, epoch)};
  };
  // Keep the best-validation parameters, restored once training is over.
  steps.improved = [&] {
    best_entities = entities_;
    best_relations = relations_;
    have_best = true;
  };
  steps.finish = [&] {
    if (!have_best) return;
    entities_ = std::move(best_entities);
    relations_ = std::move(best_relations);
  };
  steps.test = [&](TrainReport* r) { return TestRanks(graph, config, r); };
  const char* name = score_ == KgeScore::kTransE     ? "TransE"
                     : score_ == KgeScore::kDistMult ? "DistMult"
                     : score_ == KgeScore::kComplEx  ? "ComplEx"
                                                     : "RotatE";
  return RunTraining(name, graph, config, steps, report);
}

float KgeModel::Score(uint32_t src, uint32_t rel, uint32_t dst) const {
  return KgeScoreRows(score_, entities_.Row(src), relations_.Row(rel),
                      entities_.Row(dst), dim_);
}

std::vector<float> KgeModel::EntityEmbedding(uint32_t node) const {
  if (node >= entities_.rows()) return {};
  return std::vector<float>(entities_.Row(node),
                            entities_.Row(node) + dim_);
}

std::vector<float> KgeModel::RelationEmbedding(uint32_t rel) const {
  if (rel >= relations_.rows()) return {};
  return std::vector<float>(relations_.Row(rel), relations_.Row(rel) + dim_);
}

std::vector<uint32_t> TopKByScore(
    std::vector<std::pair<float, uint32_t>> scored, size_t k) {
  for (auto& [score, row] : scored)
    if (std::isnan(score)) score = -std::numeric_limits<float>::infinity();
  const size_t kk = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + kk, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  std::vector<uint32_t> out;
  out.reserve(kk);
  for (size_t i = 0; i < kk; ++i) out.push_back(scored[i].second);
  return out;
}

std::vector<size_t> RankTestEdges(const LinkPredictor& model,
                                  const GraphData& graph,
                                  const std::vector<Edge>& test_edges,
                                  size_t eval_candidates, uint64_t seed,
                                  bool within_type) {
  tensor::Rng rng(seed);
  // When the transformer knows the destination type (and within_type is
  // requested), rank against its instances: the candidate pool is then
  // identical in meaning across the full-KG and KG' pipelines.
  static const std::vector<uint32_t> kEmptyPool;
  const std::vector<uint32_t>& pool =
      within_type ? graph.destination_candidates : kEmptyPool;
  auto draw = [&]() -> uint32_t {
    if (!pool.empty())
      return pool[rng.NextUint(pool.size())];
    return static_cast<uint32_t>(rng.NextUint(graph.num_nodes));
  };
  std::vector<size_t> ranks;
  ranks.reserve(test_edges.size());
  for (const Edge& e : test_edges) {
    const float true_score = model.Score(e.src, e.rel, e.dst);
    size_t better = 0;
    size_t tied = 0;
    auto consider = [&](uint32_t t) {
      if (t == e.dst) return;
      const float s = model.Score(e.src, e.rel, t);
      if (s > true_score) {
        ++better;
      } else if (s == true_score) {
        ++tied;
      }
    };
    if (eval_candidates == 0) {
      // Full ranking over the candidate pool (or all entities).
      if (!pool.empty()) {
        for (uint32_t t : pool) consider(t);
      } else {
        for (uint32_t t = 0; t < graph.num_nodes; ++t) consider(t);
      }
    } else {
      for (size_t c = 0; c < eval_candidates; ++c) consider(draw());
    }
    // Ties take the expected (mid) rank, so degenerate models that score
    // every candidate equally cannot fake rank 1.
    ranks.push_back(better + tied / 2 + 1);
  }
  return ranks;
}

}  // namespace kgnet::gml
