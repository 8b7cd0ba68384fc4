#include "core/model_io.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

namespace kgnet::core {

namespace {

constexpr char kMagic[5] = {'K', 'G', 'N', 'M', '2'};
constexpr char kRetiredMagic[5] = {'K', 'G', 'N', 'M', '1'};
constexpr uint32_t kNoRow = UINT32_MAX;

// ---- framed little-endian writers ----

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
void WriteStrs(std::ostream& os, const std::vector<std::string>& v) {
  WriteU64(os, v.size());
  for (const std::string& s : v) WriteStr(os, s);
}
void WriteFloats(std::ostream& os, const std::vector<float>& v) {
  WriteU64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

/// Reads the framed values back out of a file's bytes. Every count and
/// length is checked against the bytes left before anything is allocated.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint64_t n = 0;
    if (!U64(&n) || n > rest_.size()) return false;
    s->assign(rest_.data(), n);
    rest_.remove_prefix(n);
    return true;
  }
  bool Strs(std::vector<std::string>* v) {
    uint64_t n = 0;
    if (!Count(&n)) return false;
    v->resize(n);
    for (std::string& s : *v)
      if (!Str(&s)) return false;
    return true;
  }
  bool Floats(std::vector<float>* v) {
    uint64_t n = 0;
    if (!U64(&n) || n > rest_.size() / sizeof(float)) return false;
    v->resize(n);
    return Raw(v->data(), n * sizeof(float));
  }
  /// A count of items written as at least one u64 each.
  bool Count(uint64_t* n) {
    return U64(n) && *n <= rest_.size() / sizeof(uint64_t);
  }

 private:
  bool Raw(void* out, size_t n) {
    if (n > rest_.size()) return false;
    if (n > 0) std::memcpy(out, rest_.data(), n);
    rest_.remove_prefix(n);
    return true;
  }

  std::string_view rest_;
};

/// A bundle with one row per node of `graph`.
ServingBundle NodeRows(const gml::GraphData& graph,
                       const rdf::Dictionary& dict) {
  ServingBundle bundle;
  bundle.node_iris.reserve(graph.num_nodes);
  for (rdf::TermId term : graph.node_terms)
    bundle.node_iris.push_back(dict.Lookup(term).lexical);
  return bundle;
}

/// Why a bundle read from disk cannot be served, or "" when it can. The
/// indexes it holds were range-checked as they were read.
std::string Invalid(const ModelInfo& info, const ServingBundle& b) {
  const size_t rows = b.node_iris.size();
  if (rows >= kNoRow) return "too many rows";
  const bool nc = info.task == gml::TaskType::kNodeClassification;
  if (b.row_class.size() != (nc ? rows : 0)) return "class table size";
  if (b.relation_row.size() != b.embed_dim) return "relation row size";
  // Both factors are bounded by the file's size, so this cannot overflow.
  if (b.entity_rows.size() != rows * b.embed_dim)
    return "embedding table size";
  return "";
}

}  // namespace

void ServingBundle::IndexRows() {
  size_t cap = 1;
  while (cap < 2 * node_iris.size()) cap <<= 1;
  slots_.assign(cap, kNoRow);
  const std::hash<std::string_view> hash;
  for (uint32_t row = 0; row < node_iris.size(); ++row) {
    size_t at = hash(node_iris[row]) & (cap - 1);
    while (slots_[at] != kNoRow && node_iris[slots_[at]] != node_iris[row])
      at = (at + 1) & (cap - 1);
    if (slots_[at] == kNoRow) slots_[at] = row;
  }
}

bool ServingBundle::FindRow(std::string_view iri, uint32_t* row) const {
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t at = std::hash<std::string_view>()(iri) & mask;
       slots_[at] != kNoRow; at = (at + 1) & mask) {
    if (node_iris[slots_[at]] == iri) {
      *row = slots_[at];
      return true;
    }
  }
  return false;
}

Result<ServingBundle> BuildServingBundle(
    const gml::NodeClassifier& classifier, const gml::GraphData& graph,
    const rdf::Dictionary& dict) {
  ServingBundle bundle = NodeRows(graph, dict);
  for (rdf::TermId term : graph.class_terms)
    bundle.class_iris.push_back(dict.Lookup(term).lexical);
  bundle.row_class.assign(graph.num_nodes, -1);
  const std::vector<int>& preds = classifier.predictions();
  for (uint32_t node : graph.target_nodes)
    if (node < preds.size() && preds[node] >= 0 &&
        static_cast<size_t>(preds[node]) < bundle.class_iris.size())
      bundle.row_class[node] = preds[node];
  bundle.IndexRows();
  return bundle;
}

Result<ServingBundle> BuildServingBundle(const gml::LinkPredictor& predictor,
                                         const gml::GraphData& graph,
                                         const rdf::Dictionary& dict) {
  if (graph.task_relation == UINT32_MAX)
    return Status::FailedPrecondition("graph has no task relation");
  ServingBundle bundle = NodeRows(graph, dict);
  bundle.score = predictor.score_kind();
  bundle.relation_row = predictor.RelationEmbedding(graph.task_relation);
  bundle.embed_dim = bundle.relation_row.size();
  bundle.entity_rows.reserve(graph.num_nodes * bundle.embed_dim);
  for (uint32_t v = 0; v < graph.num_nodes; ++v) {
    const std::vector<float> row = predictor.EntityEmbedding(v);
    if (row.size() != bundle.embed_dim)
      return Status::Internal("inconsistent embedding dimensions");
    bundle.entity_rows.insert(bundle.entity_rows.end(), row.begin(), row.end());
  }
  bundle.destination_rows = graph.destination_candidates;
  if (bundle.destination_rows.empty()) {
    bundle.destination_rows.resize(graph.num_nodes);
    for (uint32_t v = 0; v < graph.num_nodes; ++v)
      bundle.destination_rows[v] = v;
  }
  bundle.IndexRows();
  return bundle;
}

Status SaveTrainedModel(const TrainedModel& model, const std::string& path) {
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

  const ServingBundle& bundle = model.bundle;
  WriteStrs(os, bundle.node_iris);
  WriteStrs(os, bundle.class_iris);
  WriteU64(os, bundle.row_class.size());
  for (int32_t c : bundle.row_class) WriteU64(os, static_cast<uint64_t>(c + 1));
  WriteU64(os, static_cast<uint64_t>(bundle.score));
  WriteU64(os, bundle.embed_dim);
  WriteFloats(os, bundle.entity_rows);
  WriteFloats(os, bundle.relation_row);
  WriteU64(os, bundle.destination_rows.size());
  for (uint32_t row : bundle.destination_rows) WriteU64(os, row);
  if (!os) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<std::shared_ptr<TrainedModel>> LoadTrainedModel(
    const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  Result<std::shared_ptr<TrainedModel>> model = ParseTrainedModel(bytes);
  if (!model.ok())
    return Status::ParseError(model.status().message() + ": " + path);
  return model;
}

Result<std::shared_ptr<TrainedModel>> ParseTrainedModel(
    std::string_view bytes) {
  if (bytes.substr(0, sizeof(kRetiredMagic)) ==
      std::string_view(kRetiredMagic, sizeof(kRetiredMagic)))
    return Status::ParseError(
        "unsupported model bundle version KGNM1 (this build reads KGNM2)");
  if (bytes.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic)))
    return Status::ParseError("not a KGNet model bundle");
  Reader in(bytes.substr(sizeof(kMagic)));

  auto model = std::make_shared<TrainedModel>();
  ModelInfo& info = model->info;
  uint64_t task = 0, cardinality = 0, mem = 0;
  if (!in.Str(&info.uri) || !in.U64(&task) || !in.Str(&info.method) ||
      !in.Str(&info.target_type_iri) || !in.Str(&info.label_predicate_iri) ||
      !in.Str(&info.source_type_iri) ||
      !in.Str(&info.destination_type_iri) ||
      !in.Str(&info.task_predicate_iri) || !in.Str(&info.sampler_label) ||
      !in.F64(&info.accuracy) || !in.F64(&info.mrr) ||
      !in.F64(&info.inference_us) || !in.U64(&cardinality) ||
      !in.F64(&info.train_seconds) || !in.U64(&mem))
    return Status::ParseError("truncated model record");
  if (task > static_cast<uint64_t>(gml::TaskType::kEntitySimilarity))
    return Status::ParseError("unknown task type");
  info.task = static_cast<gml::TaskType>(task);
  info.cardinality = cardinality;
  info.train_memory_bytes = mem;

  ServingBundle& b = model->bundle;
  uint64_t n = 0, score = 0, dim = 0;
  if (!in.Strs(&b.node_iris) || !in.Strs(&b.class_iris) || !in.Count(&n))
    return Status::ParseError("truncated iri tables");
  b.row_class.resize(n);
  for (int32_t& c : b.row_class) {
    uint64_t v = 0;
    if (!in.U64(&v)) return Status::ParseError("truncated class table");
    if (v > b.class_iris.size())
      return Status::ParseError("class index out of range");
    c = static_cast<int32_t>(v) - 1;
  }
  if (!in.U64(&score) || !in.U64(&dim) || !in.Floats(&b.entity_rows) ||
      !in.Floats(&b.relation_row) || !in.Count(&n))
    return Status::ParseError("truncated embeddings");
  if (score > static_cast<uint64_t>(gml::KgeScore::kRotatE))
    return Status::ParseError("unknown score kind");
  b.score = static_cast<gml::KgeScore>(score);
  b.embed_dim = dim;
  b.destination_rows.resize(n);
  for (uint32_t& row : b.destination_rows) {
    uint64_t v = 0;
    if (!in.U64(&v)) return Status::ParseError("truncated candidates");
    if (v >= b.node_iris.size())
      return Status::ParseError("destination row out of range");
    row = static_cast<uint32_t>(v);
  }
  const std::string invalid = Invalid(info, b);
  if (!invalid.empty())
    return Status::ParseError("inconsistent model bundle: " + invalid);
  b.IndexRows();
  return model;
}

Result<size_t> SaveModelStore(const KgMeta& kgmeta, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create directory: " + dir);
  size_t written = 0;
  for (const std::string& uri : kgmeta.ListModelUris()) {
    auto model = kgmeta.GetModel(uri);
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
  return written;
}

Result<size_t> LoadModelStore(const std::string& dir, KgMeta* kgmeta) {
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
    KGNET_RETURN_IF_ERROR(
        kgmeta->RegisterModel(std::move(model), /*replace=*/true).status());
    ++loaded;
  }
  return loaded;
}

}  // namespace kgnet::core

