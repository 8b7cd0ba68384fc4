// Model persistence: save/load round trips for NC and LP models, serving
// parity between registered models and their loaded copies, and a seeded
// corruption sweep over saved bundles.
#include "core/model_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "core/kgnet.h"
#include "tensor/rng.h"
#include "workload/dblp_gen.h"

namespace kgnet::core {
namespace {

using workload::DblpSchema;

/// The KG every model here trains on.
void GenerateKg(KgNet* kg) {
  workload::DblpOptions opts;
  opts.num_papers = 80;
  opts.num_authors = 40;
  opts.num_venues = 4;
  opts.num_affiliations = 8;
  opts.include_periphery = false;
  EXPECT_TRUE(workload::GenerateDblp(opts, &kg->store()).ok());
}

/// The venue classifier, registered as model/nc-<n>.
TrainTaskSpec NcSpec() {
  TrainTaskSpec nc;
  nc.task = gml::TaskType::kNodeClassification;
  nc.target_type_iri = DblpSchema::Publication();
  nc.label_predicate_iri = DblpSchema::PublishedIn();
  nc.config.epochs = 3;
  nc.config.hidden_dim = 8;
  nc.config.embed_dim = 8;
  nc.model_name = "nc";
  return nc;
}

class ModelIoTest : public ::testing::Test {
 protected:
  ModelIoTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("kgnet_model_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    GenerateKg(&kg_);
    auto nc_out = kg_.TrainTask(NcSpec());
    EXPECT_TRUE(nc_out.ok());
    nc_uri_ = nc_out->model_uri;

    TrainTaskSpec lp;
    lp.task = gml::TaskType::kLinkPrediction;
    lp.target_type_iri = DblpSchema::Person();
    lp.destination_type_iri = DblpSchema::Affiliation();
    lp.task_predicate_iri = DblpSchema::PrimaryAffiliation();
    lp.config.epochs = 3;
    lp.config.embed_dim = 8;
    lp.model_name = "lp";
    auto lp_out = kg_.TrainTask(lp);
    EXPECT_TRUE(lp_out.ok());
    lp_uri_ = lp_out->model_uri;
  }

  ~ModelIoTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  KgNet kg_;
  std::filesystem::path dir_;
  std::string nc_uri_;
  std::string lp_uri_;
};

TEST_F(ModelIoTest, NcBundleCoversAllTargets) {
  auto model = kg_.service().kgmeta().GetModel(nc_uri_);
  ASSERT_TRUE(model.ok());
  const ServingBundle& bundle = (*model)->bundle;
  ASSERT_EQ(bundle.row_class.size(), bundle.node_iris.size());
  EXPECT_EQ(std::count_if(bundle.row_class.begin(), bundle.row_class.end(),
                          [](int32_t c) { return c >= 0; }),
            80);
}

/// The bit patterns of `v`, so that equal means bitwise-equal.
std::vector<uint32_t> Bits(const std::vector<float>& v) {
  std::vector<uint32_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i)
    std::memcpy(&out[i], &v[i], sizeof(float));
  return out;
}

TEST_F(ModelIoTest, LoadedBundlesEqualTheRegisteredOnes) {
  for (const std::string& uri : {nc_uri_, lp_uri_}) {
    auto model = kg_.service().kgmeta().GetModel(uri);
    ASSERT_TRUE(model.ok());
    const std::string path = (dir_ / "m.kgm").string();
    ASSERT_TRUE(SaveTrainedModel(**model, path).ok());
    auto loaded = LoadTrainedModel(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ServingBundle& a = (*model)->bundle;
    const ServingBundle& b = (*loaded)->bundle;
    EXPECT_EQ(a.node_iris, b.node_iris) << uri;
    EXPECT_EQ(a.class_iris, b.class_iris) << uri;
    EXPECT_EQ(a.row_class, b.row_class) << uri;
    EXPECT_EQ(a.score, b.score) << uri;
    EXPECT_EQ(a.embed_dim, b.embed_dim) << uri;
    EXPECT_EQ(Bits(a.entity_rows), Bits(b.entity_rows)) << uri;
    EXPECT_EQ(Bits(a.relation_row), Bits(b.relation_row)) << uri;
    EXPECT_EQ(a.destination_rows, b.destination_rows) << uri;
  }
}

TEST_F(ModelIoTest, SaveLoadRoundTripPreservesInfo) {
  auto model = kg_.service().kgmeta().GetModel(nc_uri_);
  ASSERT_TRUE(model.ok());
  const std::string path = (dir_ / "nc.kgm").string();
  ASSERT_TRUE(SaveTrainedModel(**model, path).ok());

  auto loaded = LoadTrainedModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ModelInfo& a = (*model)->info;
  const ModelInfo& b = (*loaded)->info;
  EXPECT_EQ(a.uri, b.uri);
  EXPECT_EQ(a.task, b.task);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.target_type_iri, b.target_type_iri);
  EXPECT_EQ(a.sampler_label, b.sampler_label);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.cardinality, b.cardinality);
  EXPECT_EQ((*loaded)->bundle.node_iris, (*model)->bundle.node_iris);
}

TEST_F(ModelIoTest, LoadedNcModelServesIdenticalPredictions) {
  auto& manager = kg_.service().inference_manager();
  auto live = manager.GetNodeClassDictionary(nc_uri_);
  ASSERT_TRUE(live.ok());

  const std::string path = (dir_ / "nc.kgm").string();
  auto model = kg_.service().kgmeta().GetModel(nc_uri_);
  ASSERT_TRUE(SaveTrainedModel(**model, path).ok());

  // Replace the live model with the loaded bundle under the same URI.
  auto loaded = LoadTrainedModel(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(
      kg_.service().kgmeta().RegisterModel(*loaded, /*replace=*/true).ok());

  auto served = manager.GetNodeClassDictionary(nc_uri_);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(*served, *live);
  // Per-instance path too.
  auto one = manager.GetNodeClass(nc_uri_,
                                  "https://dblp.org/rdf/publication/3");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(*one, live->at("https://dblp.org/rdf/publication/3"));
}

TEST_F(ModelIoTest, LoadedLpModelServesLinksAndSimilarity) {
  const std::string path = (dir_ / "lp.kgm").string();
  auto model = kg_.service().kgmeta().GetModel(lp_uri_);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(SaveTrainedModel(**model, path).ok());
  auto loaded = LoadTrainedModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(
      kg_.service().kgmeta().RegisterModel(*loaded, /*replace=*/true).ok());

  auto& manager = kg_.service().inference_manager();
  auto links =
      manager.GetTopKLinks(lp_uri_, "https://dblp.org/rdf/person/0", 3);
  ASSERT_TRUE(links.ok()) << links.status();
  EXPECT_EQ(links->size(), 3u);
  for (const auto& iri : *links)
    EXPECT_NE(iri.find("affiliation"), std::string::npos) << iri;

  auto sims = manager.GetSimilarEntities(
      lp_uri_, "https://dblp.org/rdf/person/1", 4);
  ASSERT_TRUE(sims.ok()) << sims.status();
  EXPECT_EQ(sims->size(), 4u);
}

TEST_F(ModelIoTest, SaveLoadWholeStore) {
  const std::string store_dir = (dir_ / "models").string();
  auto n = SaveModelStore(kg_.service().kgmeta(), store_dir);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2u);
  // The directory holds exactly the .kgm bundles: each carries the
  // ModelInfo that LoadModelStore registers in KGMeta.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    EXPECT_EQ(entry.path().extension(), ".kgm") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 2u);

  KgMeta fresh_meta;
  auto loaded = LoadModelStore(store_dir, &fresh_meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);
  EXPECT_EQ(fresh_meta.NumModels(), 2u);
  EXPECT_TRUE(fresh_meta.GetModel(nc_uri_).ok());
  EXPECT_TRUE(fresh_meta.GetModel(lp_uri_).ok());
  auto info = fresh_meta.Get(nc_uri_);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->target_type_iri, DblpSchema::Publication());
}

// A service that loaded saved models trains under the first free model
// URI, so it never collides with a loaded one.
TEST_F(ModelIoTest, TrainingAfterALoadTakesAFreeUri) {
  const std::string store_dir = (dir_ / "models").string();
  ASSERT_TRUE(SaveModelStore(kg_.service().kgmeta(), store_dir).ok());
  KgNet fresh;
  GenerateKg(&fresh);
  ASSERT_TRUE(LoadModelStore(store_dir, &fresh.service().kgmeta()).ok());
  auto trained = fresh.TrainTask(NcSpec());
  ASSERT_TRUE(trained.ok()) << trained.status();
  EXPECT_NE(trained->model_uri, nc_uri_);
  EXPECT_NE(trained->model_uri, lp_uri_);
  EXPECT_EQ(fresh.service().kgmeta().NumModels(), 3u);

  const std::string paper = "https://dblp.org/rdf/publication/3";
  auto want = kg_.service().inference_manager().GetNodeClass(nc_uri_, paper);
  ASSERT_TRUE(want.ok()) << want.status();
  InferenceManager& im = fresh.service().inference_manager();
  auto loaded = im.GetNodeClass(nc_uri_, paper);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, *want);
  auto own = im.GetNodeClass(trained->model_uri, paper);
  EXPECT_TRUE(own.ok()) << own.status();
}

// A load over a registered URI replaces the record and the bundle
// together: the file wins for what KGMeta reports, for the triples SPARQL
// reads and for the answers the verbs serve.
TEST_F(ModelIoTest, LoadOverARegisteredUriReplacesRecordAndBundle) {
  auto model = kg_.service().kgmeta().GetModel(nc_uri_);
  ASSERT_TRUE(model.ok());
  // The file: this model with an accuracy no run on 80 papers reaches, and
  // every target predicted as the first class.
  TrainedModel file = **model;
  file.info.accuracy = 0.123456789;
  for (int32_t& c : file.bundle.row_class)
    if (c > 0) c = 0;
  const std::string store_dir = (dir_ / "models").string();
  std::filesystem::create_directories(store_dir);
  ASSERT_TRUE(SaveTrainedModel(file, store_dir + "/nc.kgm").ok());

  KgNet other;
  GenerateKg(&other);
  auto trained = other.TrainTask(NcSpec());
  ASSERT_TRUE(trained.ok()) << trained.status();
  ASSERT_EQ(trained->model_uri, nc_uri_);
  ASSERT_NE(trained->info.accuracy, file.info.accuracy);
  ASSERT_TRUE(LoadModelStore(store_dir, &other.service().kgmeta()).ok());

  KgMeta& meta = other.service().kgmeta();
  EXPECT_EQ(meta.NumModels(), 1u);
  EXPECT_EQ(meta.Get(nc_uri_)->accuracy, file.info.accuracy);
  sparql::QueryEngine engine(&meta.mutable_store());
  auto r = engine.ExecuteString("SELECT ?acc WHERE { <" + nc_uri_ + "> <" +
                                KgnetVocab::Accuracy() + "> ?acc . }");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 1u);
  double acc = -1;
  EXPECT_TRUE(r->rows[0][0].AsDouble(&acc));
  EXPECT_EQ(acc, file.info.accuracy);

  auto served =
      other.service().inference_manager().GetNodeClassDictionary(nc_uri_);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->size(), 80u);
  for (const auto& [paper, cls] : *served)
    EXPECT_EQ(cls, file.bundle.class_iris[0]) << paper;
}

TEST_F(ModelIoTest, LoadRejectsGarbage) {
  const std::string path = (dir_ / "junk.kgm").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a model", f);
    std::fclose(f);
  }
  EXPECT_EQ(LoadTrainedModel(path).status().code(), StatusCode::kParseError);
  EXPECT_EQ(LoadTrainedModel((dir_ / "missing.kgm").string())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ModelIoTest, LoadRejectsTheRetiredFormat) {
  const std::string path = (dir_ / "old.kgm").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "KGNM1" << std::string(64, '\0');
  }
  auto loaded = LoadTrainedModel(path);
  ASSERT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("unsupported model bundle "
                                           "version KGNM1"),
            std::string::npos)
      << loaded.status();
}

/// Registers `model` in `meta`, calls every verb on it for a few IRIs it
/// holds and one it does not, then deletes it; each call must return (its
/// answer is not checked).
::testing::AssertionResult CallEveryVerb(
    const std::shared_ptr<TrainedModel>& model, KgMeta* meta) {
  const Status registered = meta->RegisterModel(model).status();
  if (!registered.ok()) return ::testing::AssertionFailure() << registered;
  InferenceManager im(meta);
  const std::string& uri = model->info.uri;
  std::vector<std::string> iris = {"https://dblp.org/rdf/no-such-node"};
  for (size_t i = 0; i < model->bundle.node_iris.size() && i < 3; ++i)
    iris.push_back(model->bundle.node_iris[i]);
  (void)im.GetNodeClassBatch(uri, iris);
  (void)im.GetNodeClassDictionary(uri);
  (void)im.GetTopKLinksBatch(uri, iris, 3);
  for (const std::string& iri : iris) {
    (void)im.GetNodeClass(uri, iri);
    (void)im.GetTopKLinks(uri, iri, 3);
    (void)im.GetSimilarEntities(uri, iri, 3);
    auto row = im.GetEmbeddingRow(uri, iri);
    if (row.ok()) (void)im.GetSimilarByRow(uri, iri, *row, 3);
  }
  const Status deleted = meta->DeleteModel(uri);
  if (!deleted.ok()) return ::testing::AssertionFailure() << deleted;
  return ::testing::AssertionSuccess();
}

/// Loads `bytes`: a ParseError, or a model whose every call returns.
::testing::AssertionResult LoadsCleanly(const std::string& bytes,
                                        KgMeta* meta) {
  auto model = ParseTrainedModel(bytes);
  if (!model.ok()) {
    if (model.status().code() == StatusCode::kParseError)
      return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << model.status();
  }
  return CallEveryVerb(*model, meta);
}

TEST_F(ModelIoTest, CorruptBundlesFailWithParseErrorOrServe) {
  KgMeta meta;  // serves each model that loads, one at a time
  for (const std::string& uri : {nc_uri_, lp_uri_}) {
    auto model = kg_.service().kgmeta().GetModel(uri);
    ASSERT_TRUE(model.ok());
    const std::string path = (dir_ / "m.kgm").string();
    ASSERT_TRUE(SaveTrainedModel(**model, path).ok());
    std::ifstream is(path, std::ios::binary);
    const std::string saved((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    ASSERT_TRUE(ParseTrainedModel(saved).ok());

    // Every truncation prefix.
    for (size_t n = 0; n < saved.size(); ++n) {
      auto cut = ParseTrainedModel(std::string_view(saved).substr(0, n));
      ASSERT_EQ(cut.status().code(), StatusCode::kParseError)
          << uri << " cut at " << n;
    }
    // Seeded bit flips.
    tensor::Rng rng(0x6b676e6dull);
    for (int i = 0; i < 300; ++i) {
      std::string flipped = saved;
      const size_t at = rng.NextUint(flipped.size());
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << rng.NextUint(8)));
      ASSERT_TRUE(LoadsCleanly(flipped, &meta)) << uri << " flip at " << at;
    }
    // Lying counts and lengths: a huge u64 written at every offset, once
    // with the rest of the file behind it and once as the file's end.
    for (uint64_t lie : {uint64_t{1} << 40, ~uint64_t{0}}) {
      for (size_t at = 0; at + sizeof(lie) <= saved.size(); ++at) {
        std::string lying = saved;
        std::memcpy(lying.data() + at, &lie, sizeof(lie));
        ASSERT_TRUE(LoadsCleanly(lying, &meta)) << uri << " lie at " << at;
        ASSERT_TRUE(LoadsCleanly(lying.substr(0, at + sizeof(lie)), &meta))
            << uri << " lie ending the file at " << at;
      }
    }
  }
}

TEST_F(ModelIoTest, SparqlMlWorksAgainstLoadedModels) {
  // Persist, wipe, reload — then answer a Figure-2-style query from the
  // restored bundle.
  KgMeta& meta = kg_.service().kgmeta();
  const std::string store_dir = (dir_ / "models").string();
  ASSERT_TRUE(SaveModelStore(meta, store_dir).ok());
  for (const auto& uri : meta.ListModelUris())
    ASSERT_TRUE(meta.DeleteModel(uri).ok());
  ASSERT_EQ(meta.NumModels(), 0u);
  auto loaded = LoadModelStore(store_dir, &meta);
  ASSERT_TRUE(loaded.ok());

  auto r = kg_.Execute(
      "PREFIX dblp: <https://dblp.org/rdf/>\n"
      "PREFIX kgnet: <https://www.kgnet.com/>\n"
      "SELECT ?paper ?venue WHERE {\n"
      " ?paper a dblp:Publication .\n"
      " ?paper ?clf ?venue .\n"
      " ?clf a kgnet:NodeClassifier .\n"
      " ?clf kgnet:TargetNode dblp:Publication . } LIMIT 6");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 6u);
  for (const auto& row : r->rows)
    EXPECT_NE(row[1].lexical.find("venue"), std::string::npos);
}

}  // namespace
}  // namespace kgnet::core
