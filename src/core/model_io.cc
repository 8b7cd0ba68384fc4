#include "core/model_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "rdf/ntriples.h"

namespace kgnet::core {

namespace {

constexpr char kMagic[5] = {'K', 'G', 'N', 'M', '1'};

// ---- framed little-endian writers/readers ----

void WriteU64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteF64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteStr(std::ostream& os, const std::string& s) {
  WriteU64(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}
void WriteFloats(std::ostream& os, const std::vector<float>& v) {
  WriteU64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

bool ReadU64(std::istream& is, uint64_t* v) {
  return static_cast<bool>(
      is.read(reinterpret_cast<char*>(v), sizeof(*v)));
}
bool ReadF64(std::istream& is, double* v) {
  return static_cast<bool>(
      is.read(reinterpret_cast<char*>(v), sizeof(*v)));
}
bool ReadStr(std::istream& is, std::string* s) {
  uint64_t n = 0;
  if (!ReadU64(is, &n) || n > (1ull << 32)) return false;
  s->resize(n);
  return static_cast<bool>(
      is.read(s->data(), static_cast<std::streamsize>(n)));
}
bool ReadFloats(std::istream& is, std::vector<float>* v) {
  uint64_t n = 0;
  if (!ReadU64(is, &n) || n > (1ull << 32)) return false;
  v->resize(n);
  return static_cast<bool>(
      is.read(reinterpret_cast<char*>(v->data()),
              static_cast<std::streamsize>(n * sizeof(float))));
}

}  // namespace

Result<ServingBundle> BuildServingBundle(const TrainedModel& model) {
  ServingBundle bundle;
  if (model.graph == nullptr || model.source_store == nullptr)
    return Status::FailedPrecondition(
        "model has no graph/source store (already a loaded bundle?)");
  const rdf::Dictionary& dict = model.source_store->dict();
  const gml::GraphData& graph = *model.graph;

  if (model.classifier != nullptr) {
    std::vector<int> preds =
        model.classifier->Predict(graph, graph.target_nodes);
    for (size_t i = 0; i < graph.target_nodes.size(); ++i) {
      const int cls = preds[i];
      if (cls < 0 || static_cast<size_t>(cls) >= graph.class_terms.size())
        continue;
      bundle.nc_predictions.emplace(
          dict.Lookup(graph.node_terms[graph.target_nodes[i]]).lexical,
          dict.Lookup(graph.class_terms[cls]).lexical);
    }
    return bundle;
  }

  if (model.predictor != nullptr) {
    bundle.node_iris.reserve(graph.num_nodes);
    for (uint32_t v = 0; v < graph.num_nodes; ++v) {
      std::vector<float> emb = model.predictor->EntityEmbedding(v);
      if (bundle.embed_dim == 0) bundle.embed_dim = emb.size();
      if (emb.size() != bundle.embed_dim)
        return Status::Internal("inconsistent embedding dimensions");
      bundle.node_iris.push_back(
          dict.Lookup(graph.node_terms[v]).lexical);
      bundle.embeddings.insert(bundle.embeddings.end(), emb.begin(),
                               emb.end());
    }
    // Approximate the task-relation vector from training edges: the mean
    // of (tail - head) in embedding space — exact for TransE, a serviceable
    // translation estimate for the other scorers.
    if (!graph.train_edges.empty() && bundle.embed_dim > 0) {
      bundle.task_relation.assign(bundle.embed_dim, 0.0f);
      for (const gml::Edge& e : graph.train_edges) {
        const float* h = &bundle.embeddings[e.src * bundle.embed_dim];
        const float* t = &bundle.embeddings[e.dst * bundle.embed_dim];
        for (size_t k = 0; k < bundle.embed_dim; ++k)
          bundle.task_relation[k] += t[k] - h[k];
      }
      const float inv = 1.0f / static_cast<float>(graph.train_edges.size());
      for (float& x : bundle.task_relation) x *= inv;
    }
    bundle.destination_rows = graph.destination_candidates;
    return bundle;
  }
  if (model.bundle != nullptr) return *model.bundle;  // already a bundle
  return Status::FailedPrecondition("model has no servable artifact");
}

Status SaveTrainedModel(const TrainedModel& model, const std::string& path) {
  KGNET_ASSIGN_OR_RETURN(ServingBundle bundle, BuildServingBundle(model));
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return Status::Internal("cannot open for writing: " + path);
  os.write(kMagic, sizeof(kMagic));

  const ModelInfo& info = model.info;
  WriteStr(os, info.uri);
  WriteU64(os, static_cast<uint64_t>(info.task));
  WriteStr(os, info.method);
  WriteStr(os, info.target_type_iri);
  WriteStr(os, info.label_predicate_iri);
  WriteStr(os, info.source_type_iri);
  WriteStr(os, info.destination_type_iri);
  WriteStr(os, info.task_predicate_iri);
  WriteStr(os, info.sampler_label);
  WriteF64(os, info.accuracy);
  WriteF64(os, info.mrr);
  WriteF64(os, info.inference_us);
  WriteU64(os, info.cardinality);
  WriteF64(os, info.train_seconds);
  WriteU64(os, info.train_memory_bytes);

  WriteU64(os, bundle.nc_predictions.size());
  for (const auto& [node, cls] : bundle.nc_predictions) {
    WriteStr(os, node);
    WriteStr(os, cls);
  }
  WriteU64(os, bundle.node_iris.size());
  for (const auto& iri : bundle.node_iris) WriteStr(os, iri);
  WriteU64(os, bundle.embed_dim);
  WriteFloats(os, bundle.embeddings);
  WriteFloats(os, bundle.task_relation);
  WriteU64(os, bundle.destination_rows.size());
  for (uint32_t row : bundle.destination_rows)
    WriteU64(os, row);
  if (!os) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<std::shared_ptr<TrainedModel>> LoadTrainedModel(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open: " + path);
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return Status::ParseError("not a KGNet model bundle: " + path);

  auto model = std::make_shared<TrainedModel>();
  ModelInfo& info = model->info;
  uint64_t task = 0, cardinality = 0, mem = 0;
  double acc = 0, mrr = 0, infer = 0, secs = 0;
  if (!ReadStr(is, &info.uri) || !ReadU64(is, &task) ||
      !ReadStr(is, &info.method) || !ReadStr(is, &info.target_type_iri) ||
      !ReadStr(is, &info.label_predicate_iri) ||
      !ReadStr(is, &info.source_type_iri) ||
      !ReadStr(is, &info.destination_type_iri) ||
      !ReadStr(is, &info.task_predicate_iri) ||
      !ReadStr(is, &info.sampler_label) || !ReadF64(is, &acc) ||
      !ReadF64(is, &mrr) || !ReadF64(is, &infer) ||
      !ReadU64(is, &cardinality) || !ReadF64(is, &secs) ||
      !ReadU64(is, &mem))
    return Status::ParseError("truncated model bundle: " + path);
  info.task = static_cast<gml::TaskType>(task);
  info.accuracy = acc;
  info.mrr = mrr;
  info.inference_us = infer;
  info.cardinality = cardinality;
  info.train_seconds = secs;
  info.train_memory_bytes = mem;

  auto bundle = std::make_shared<ServingBundle>();
  uint64_t n = 0;
  if (!ReadU64(is, &n)) return Status::ParseError("truncated bundle");
  for (uint64_t i = 0; i < n; ++i) {
    std::string node, cls;
    if (!ReadStr(is, &node) || !ReadStr(is, &cls))
      return Status::ParseError("truncated prediction table");
    bundle->nc_predictions.emplace(std::move(node), std::move(cls));
  }
  if (!ReadU64(is, &n)) return Status::ParseError("truncated bundle");
  bundle->node_iris.resize(n);
  for (auto& iri : bundle->node_iris)
    if (!ReadStr(is, &iri)) return Status::ParseError("truncated iri table");
  uint64_t dim = 0;
  if (!ReadU64(is, &dim) || !ReadFloats(is, &bundle->embeddings) ||
      !ReadFloats(is, &bundle->task_relation))
    return Status::ParseError("truncated embeddings");
  bundle->embed_dim = dim;
  if (bundle->embeddings.size() != bundle->node_iris.size() * dim)
    return Status::ParseError("embedding table size mismatch");
  if (!ReadU64(is, &n)) return Status::ParseError("truncated bundle");
  bundle->destination_rows.resize(n);
  for (auto& row : bundle->destination_rows) {
    uint64_t v = 0;
    if (!ReadU64(is, &v)) return Status::ParseError("truncated candidates");
    row = static_cast<uint32_t>(v);
  }
  model->bundle = std::move(bundle);

  // Rebuild the similarity index for LP/ES bundles.
  if (model->bundle->embed_dim > 0 && !model->bundle->node_iris.empty()) {
    auto store = std::make_shared<EmbeddingStore>(model->bundle->embed_dim);
    for (size_t row = 0; row < model->bundle->node_iris.size(); ++row) {
      std::vector<float> v(
          model->bundle->embeddings.begin() + row * model->bundle->embed_dim,
          model->bundle->embeddings.begin() +
              (row + 1) * model->bundle->embed_dim);
      (void)store->Add(row, v);
    }
    model->embeddings = std::move(store);
  }
  return model;
}

Result<size_t> SaveModelStore(const ModelStore& store, const KgMeta& kgmeta,
                              const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create directory: " + dir);
  size_t written = 0;
  for (const std::string& uri : store.ListUris()) {
    auto model = store.Get(uri);
    if (!model.ok()) continue;
    // Derive a filesystem-safe name from the URI tail.
    std::string name = uri.substr(uri.rfind('/') + 1);
    for (char& c : name)
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
          c != '_')
        c = '_';
    KGNET_RETURN_IF_ERROR(
        SaveTrainedModel(**model, dir + "/" + name + ".kgm"));
    ++written;
  }
  std::ofstream meta(dir + "/kgmeta.nt", std::ios::trunc);
  if (!meta) return Status::Internal("cannot write kgmeta.nt");
  KGNET_RETURN_IF_ERROR(rdf::WriteNTriples(kgmeta.store(), meta));
  return written;
}

Result<size_t> LoadModelStore(const std::string& dir, ModelStore* store,
                              KgMeta* kgmeta) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    return Status::NotFound("not a directory: " + dir);
  // Sorted, so the KgMeta registration order does not follow the
  // filesystem's directory order.
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    if (entry.path().extension() == ".kgm") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  size_t loaded = 0;
  for (const auto& path : paths) {
    KGNET_ASSIGN_OR_RETURN(auto model, LoadTrainedModel(path.string()));
    const std::string uri = model->info.uri;
    store->Put(std::move(model));
    // Re-register metadata unless already present.
    if (!kgmeta->Get(uri).ok()) {
      auto restored = store->Get(uri);
      if (restored.ok())
        KGNET_RETURN_IF_ERROR(kgmeta->RegisterModel((*restored)->info));
    }
    ++loaded;
  }
  return loaded;
}

}  // namespace kgnet::core

namespace kgnet::core {
// ServingBundle-based scoring helper used by the inference manager.
float ServingScore(const ServingBundle& b, size_t src_row, size_t dst_row) {
  float s = 0.0f;
  const float* h = &b.embeddings[src_row * b.embed_dim];
  const float* t = &b.embeddings[dst_row * b.embed_dim];
  for (size_t k = 0; k < b.embed_dim; ++k) {
    const float r = k < b.task_relation.size() ? b.task_relation[k] : 0.0f;
    s -= std::fabs(h[k] + r - t[k]);
  }
  return s;
}
}  // namespace kgnet::core
