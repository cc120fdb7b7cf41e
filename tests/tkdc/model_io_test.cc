#include "tkdc/model_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/binned_kde.h"
#include "baselines/knn.h"
#include "baselines/nocut.h"
#include "baselines/rkde.h"
#include "baselines/simple_kde.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"

namespace tkdc {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 0x100000001b3ULL;
  }
  return checksum;
}

// Rebuilds the pre-version-3 flavor of a serialized tkdc section by
// removing everything versions 3+ added: the index_backend config field
// (4 bytes), the version-4 fast_math_leaf byte, and the version-6
// coreset_epsilon double at the end of the fixed-size config prefix, plus
// the trailing spatial-index section — whose byte length follows from the
// tree shape (k-d geometry: one DoubleVec of 2 * dims doubles per node,
// then the version-4 SoA descriptor of three uint64s) — and the version-6
// budget/coreset trailer (four doubles, flag byte, uint64, double,
// uint32).
std::string StripIndexAdditions(const std::string& section,
                                const SpatialIndex& tree) {
  constexpr size_t kIndexBackendOffset = 115;
  const size_t per_node = 2 * sizeof(uint64_t) + 2 * sizeof(uint32_t) + 1;
  const size_t geometry =
      sizeof(uint64_t) + 2 * tree.dims() * tree.num_nodes() * sizeof(double);
  const size_t budget_trailer = 4 * sizeof(double) + 1 + sizeof(uint64_t) +
                                sizeof(double) + sizeof(uint32_t);
  const size_t index_bytes = 1 + sizeof(uint64_t) +
                             tree.size() * sizeof(uint64_t) +
                             tree.num_nodes() * per_node + geometry +
                             3 * sizeof(uint64_t) + budget_trailer;
  std::string stripped =
      section.substr(0, kIndexBackendOffset) +
      section.substr(kIndexBackendOffset + sizeof(uint32_t) +
                     sizeof(uint8_t) + sizeof(double));
  return stripped.substr(0, stripped.size() - index_bytes);
}

class ModelIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  Dataset TrainSet(uint64_t seed = 1, size_t n = 2000) {
    Rng rng(seed);
    return SampleStandardGaussian(n, 2, rng);
  }
};

TEST_F(ModelIoTest, RoundTripPreservesThresholdAndClassifications) {
  const Dataset data = TrainSet();
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("model.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, /*include_densities=*/true,
                        &error))
      << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;

  EXPECT_DOUBLE_EQ(loaded->threshold(), original.threshold());
  EXPECT_DOUBLE_EQ(loaded->threshold_lower(), original.threshold_lower());
  EXPECT_DOUBLE_EQ(loaded->threshold_upper(), original.threshold_upper());
  EXPECT_EQ(loaded->training_densities(), original.training_densities());
  EXPECT_EQ(loaded->kernel().bandwidths(), original.kernel().bandwidths());

  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
  for (size_t i = 0; i < data.size(); i += 37) {
    EXPECT_EQ(loaded->ClassifyTraining(data.Row(i)),
              original.ClassifyTraining(data.Row(i)));
  }
}

TEST_F(ModelIoTest, RoundTripPreservesConfig) {
  TkdcConfig config;
  config.p = 0.07;
  config.epsilon = 0.02;
  config.kernel = KernelType::kEpanechnikov;
  config.split_rule = SplitRule::kMedian;
  config.leaf_size = 17;
  const Dataset data = TrainSet(2);
  TkdcClassifier original(config);
  original.Train(data);
  const std::string path = TempPath("config.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, true, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_DOUBLE_EQ(loaded->config().p, 0.07);
  EXPECT_DOUBLE_EQ(loaded->config().epsilon, 0.02);
  EXPECT_EQ(loaded->config().kernel, KernelType::kEpanechnikov);
  EXPECT_EQ(loaded->config().split_rule, SplitRule::kMedian);
  EXPECT_EQ(loaded->config().leaf_size, 17u);
}

TEST_F(ModelIoTest, DensitiesCanBeOmitted) {
  const Dataset data = TrainSet(3);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("slim.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, /*include_densities=*/false,
                        &error))
      << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->training_densities().empty());
  EXPECT_DOUBLE_EQ(loaded->threshold(), original.threshold());
}

TEST_F(ModelIoTest, SaveRejectsUntrainedClassifier) {
  TkdcClassifier untrained;
  std::string error;
  EXPECT_FALSE(SaveModel(TempPath("bad.tkdc"), untrained, Dataset(2),
                         true, &error));
  EXPECT_NE(error.find("not trained"), std::string::npos);
}

TEST_F(ModelIoTest, SaveRejectsMismatchedData) {
  const Dataset data = TrainSet(4);
  TkdcClassifier classifier;
  classifier.Train(data);
  const Dataset other = TrainSet(5, 100);
  std::string error;
  EXPECT_FALSE(SaveModel(TempPath("mismatch.tkdc"), classifier, other, true,
                         &error));
  EXPECT_NE(error.find("does not match"), std::string::npos);
}

TEST_F(ModelIoTest, LoadRejectsMissingFile) {
  std::string error;
  EXPECT_EQ(LoadModel(TempPath("nope.tkdc"), &error), nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(ModelIoTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("magic.tkdc");
  std::ofstream(path) << "this is not a model";
  std::string error;
  EXPECT_EQ(LoadModel(path, &error), nullptr);
  EXPECT_NE(error.find("not a tkdc model"), std::string::npos);
}

TEST_F(ModelIoTest, LoadRejectsTruncatedFile) {
  const Dataset data = TrainSet(6);
  TkdcClassifier classifier;
  classifier.Train(data);
  const std::string path = TempPath("trunc.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, classifier, data, true, &error)) << error;
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_EQ(LoadModel(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST_F(ModelIoTest, LoadRejectsBitFlip) {
  const Dataset data = TrainSet(7);
  TkdcClassifier classifier;
  classifier.Train(data);
  const std::string path = TempPath("flip.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, classifier, data, true, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents[contents.size() / 2] ^= 0x40;  // Flip a payload bit.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  EXPECT_EQ(LoadModel(path, &error), nullptr)
      << "bit flip must be detected";
}

// Version-2 files carry an algorithm tag; every classifier in the lineup
// must round trip through LoadAnyModel with its labels intact.
class AnyModelRoundTripTest
    : public ModelIoTest,
      public ::testing::WithParamInterface<const char*> {
 protected:
  std::unique_ptr<DensityClassifier> MakeClassifier() {
    const std::string name = GetParam();
    if (name == "tkdc") return std::make_unique<TkdcClassifier>();
    if (name == "nocut") return std::make_unique<NocutClassifier>();
    if (name == "simple") return std::make_unique<SimpleKdeClassifier>();
    if (name == "rkde") return std::make_unique<RkdeClassifier>();
    if (name == "binned") return std::make_unique<BinnedKdeClassifier>();
    KnnOptions options;
    options.threshold_sample = 500;
    return std::make_unique<KnnClassifier>(options);
  }
};

TEST_P(AnyModelRoundTripTest, RoundTripPreservesLabelsAndThreshold) {
  const Dataset data = TrainSet(21, 1200);
  auto original = MakeClassifier();
  original->Train(data);
  const std::string path = TempPath(std::string(GetParam()) + ".tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, *original, data, /*include_densities=*/false,
                        &error))
      << error;
  auto loaded = LoadAnyModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->name(), GetParam());
  EXPECT_TRUE(loaded->trained());
  EXPECT_EQ(loaded->dims(), original->dims());
  EXPECT_DOUBLE_EQ(loaded->threshold(), original->threshold());
  Rng rng(22);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original->Classify(q)) << "trial " << i;
  }
  for (size_t i = 0; i < data.size(); i += 31) {
    EXPECT_EQ(loaded->ClassifyTraining(data.Row(i)),
              original->ClassifyTraining(data.Row(i)))
        << "row " << i;
  }
}

TEST_P(AnyModelRoundTripTest, LoadModelAcceptsOnlyTkdcFamilies) {
  const Dataset data = TrainSet(23, 600);
  auto original = MakeClassifier();
  original->Train(data);
  const std::string path = TempPath(std::string(GetParam()) + "_narrow.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, *original, data, false, &error)) << error;
  auto loaded = LoadModel(path, &error);
  const std::string name = GetParam();
  if (name == "tkdc" || name == "nocut") {
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(loaded->name(), name);
  } else {
    EXPECT_EQ(loaded, nullptr);
    EXPECT_NE(error.find("use LoadAnyModel"), std::string::npos) << error;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AnyModelRoundTripTest,
                         ::testing::Values("tkdc", "nocut", "simple", "rkde",
                                           "binned", "knn"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Save -> load -> save must reproduce the model file byte for byte, for
// every model kind the format holds: the loaders restore exactly what the
// writers serialize, and nothing in a file depends on how the model was
// obtained (trained or loaded). Parameter: "<kind>_<backend>", or just
// "<kind>" for the index-free simple and binned models. "coreset" is tkdc
// with epsilon-coreset compression (the v6 trailer's enabled branch), "mc"
// the multi-class container.
class ModelBytesRoundTripTest
    : public ModelIoTest,
      public ::testing::WithParamInterface<std::string> {
 protected:
  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::unique_ptr<DensityClassifier> MakeClassifier(const std::string& kind,
                                                    IndexBackend backend) {
    TkdcConfig config;
    config.index_backend = backend;
    if (kind == "tkdc") return std::make_unique<TkdcClassifier>(config);
    if (kind == "coreset") {
      config.epsilon = 0.8;
      config.coreset_epsilon = 0.6;
      return std::make_unique<TkdcClassifier>(config);
    }
    if (kind == "nocut") return std::make_unique<NocutClassifier>(config);
    if (kind == "simple") return std::make_unique<SimpleKdeClassifier>();
    if (kind == "binned") return std::make_unique<BinnedKdeClassifier>();
    if (kind == "rkde") {
      RkdeOptions options;
      options.base = config;
      options.threshold_sample = 300;
      return std::make_unique<RkdeClassifier>(options);
    }
    KnnOptions options;
    options.index_backend = backend;
    options.threshold_sample = 300;
    return std::make_unique<KnnClassifier>(options);
  }
};

TEST_P(ModelBytesRoundTripTest, SaveLoadSaveIsByteIdentical) {
  const std::string param = GetParam();
  const std::string kind = param.substr(0, param.find('_'));
  const IndexBackend backend = param.ends_with("_balltree")
                                   ? IndexBackend::kBallTree
                                   : IndexBackend::kKdTree;
  const std::string first = TempPath("bytes_" + param + "_1.tkdc");
  const std::string second = TempPath("bytes_" + param + "_2.tkdc");
  std::string error;
  if (kind == "mc") {
    Rng rng(51);
    std::vector<Dataset> parts;
    parts.push_back(SampleStandardGaussian(300, 2, rng));
    parts.push_back(SampleStandardGaussian(200, 2, rng));
    TkdcConfig config;
    config.index_backend = backend;
    MultiClassClassifier original(config);
    ASSERT_TRUE(original.TrainParts(parts, {"a", "b"}).ok());
    ASSERT_TRUE(SaveMultiClassModel(first, original, true, &error)) << error;
    auto loaded = LoadMultiClassModel(first, &error);
    ASSERT_NE(loaded, nullptr) << error;
    ASSERT_TRUE(SaveMultiClassModel(second, *loaded, true, &error)) << error;
  } else {
    // A coreset needs more rows before a halving fits its error share.
    const Dataset data = TrainSet(52, kind == "coreset" ? 8000 : 600);
    auto original = MakeClassifier(kind, backend);
    original->Train(data);
    if (kind == "coreset") {
      ASSERT_TRUE(dynamic_cast<const TkdcClassifier&>(*original)
                      .coreset_info()
                      .enabled)
          << "fixture must exercise a compressed model";
    }
    ASSERT_TRUE(SaveModel(first, *original, data, true, &error)) << error;
    auto loaded = LoadAnyModel(first, &error);
    ASSERT_NE(loaded, nullptr) << error;
    ASSERT_TRUE(SaveModel(second, *loaded, data, true, &error)) << error;
  }
  const std::string bytes = ReadBytes(first);
  ASSERT_FALSE(bytes.empty());
  EXPECT_TRUE(bytes == ReadBytes(second))
      << param << ": the re-saved file differs from the original";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ModelBytesRoundTripTest,
    ::testing::Values("tkdc_kdtree", "nocut_kdtree", "coreset_kdtree",
                      "simple", "rkde_kdtree", "binned", "knn_kdtree",
                      "mc_kdtree", "tkdc_balltree", "nocut_balltree",
                      "coreset_balltree", "rkde_balltree", "knn_balltree",
                      "mc_balltree"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST_F(ModelIoTest, GridCacheModelRoundTrips) {
  TkdcConfig config;
  config.use_grid = true;
  config.grid_max_dims = 2;
  const Dataset data = TrainSet(24);
  TkdcClassifier original(config);
  original.Train(data);
  ASSERT_NE(original.model().grid, nullptr)
      << "fixture must exercise the grid cache";
  const std::string path = TempPath("grid.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, true, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  // Restore rebuilds the grid deterministically from the restored
  // thresholds, so the loaded engine prunes exactly like the original.
  ASSERT_NE(loaded->model().grid, nullptr);
  const uint64_t before = loaded->grid_prunes();
  Rng rng(25);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> q{rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
  EXPECT_GT(loaded->grid_prunes(), before)
      << "restored grid cache never pruned a query";
}

TEST_F(ModelIoTest, BallTreeBackedModelsRoundTrip) {
  // Every tree-backed algorithm must round trip its ball-tree flavor: the
  // index section stores the backend tag, and the loader must come back
  // with a ball tree (not silently rebuild a k-d tree) and identical
  // labels.
  const Dataset data = TrainSet(30, 1200);
  std::vector<std::unique_ptr<DensityClassifier>> originals;
  {
    TkdcConfig config;
    config.index_backend = IndexBackend::kBallTree;
    originals.push_back(std::make_unique<TkdcClassifier>(config));
  }
  {
    RkdeOptions options;
    options.base.index_backend = IndexBackend::kBallTree;
    options.threshold_sample = 500;
    originals.push_back(std::make_unique<RkdeClassifier>(options));
  }
  {
    KnnOptions options;
    options.index_backend = IndexBackend::kBallTree;
    options.threshold_sample = 500;
    originals.push_back(std::make_unique<KnnClassifier>(options));
  }
  for (auto& original : originals) {
    original->Train(data);
    ASSERT_EQ(original->index_backend(),
              std::optional(IndexBackend::kBallTree))
        << original->name();
    const std::string path = TempPath(original->name() + "_ball.tkdc");
    std::string error;
    ASSERT_TRUE(SaveModel(path, *original, data, false, &error))
        << original->name() << ": " << error;
    auto loaded = LoadAnyModel(path, &error);
    ASSERT_NE(loaded, nullptr) << original->name() << ": " << error;
    EXPECT_EQ(loaded->index_backend(), std::optional(IndexBackend::kBallTree))
        << loaded->name();
    Rng rng(31);
    for (int i = 0; i < 150; ++i) {
      std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
      EXPECT_EQ(loaded->Classify(q), original->Classify(q))
          << original->name() << " trial " << i;
    }
  }
}

TEST_F(ModelIoTest, ReadsVersionOneFiles) {
  // Version 1 had no algorithm tag and no spatial-index section: the
  // payload began directly with the tkdc section, which ended at the raw
  // training values. Build a v1 file from a current one by dropping the
  // tag, stripping the version-3 additions, rewinding the version field,
  // and recomputing the FNV-1a checksum over the shorter payload — then
  // require the loader to accept it as a plain tkdc model. Legacy files
  // are inherently kd-backed, so pin the backend rather than inherit
  // TKDC_INDEX (the transformation below strips kd-sized geometry).
  const Dataset data = TrainSet(26);
  TkdcConfig config;
  config.index_backend = IndexBackend::kKdTree;
  TkdcClassifier original(config);
  original.Train(data);
  const std::string v3_path = TempPath("v3.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(v3_path, original, data, true, &error)) << error;
  std::ifstream in(v3_path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // Layout: magic[4] version[4] tag[4] section... checksum[8].
  ASSERT_GT(contents.size(), 20u);
  const std::string section = StripIndexAdditions(
      contents.substr(12, contents.size() - 12 - sizeof(uint64_t)),
      original.tree());
  const uint64_t checksum = Fnv1a(section);
  const std::string v1_path = TempPath("v1.tkdc");
  std::ofstream out(v1_path, std::ios::binary);
  out.write(contents.data(), 4);  // Magic.
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(section.data(), static_cast<std::streamsize>(section.size()));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.close();

  auto loaded = LoadModel(v1_path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->name(), "tkdc");
  EXPECT_DOUBLE_EQ(loaded->threshold(), original.threshold());
  EXPECT_EQ(loaded->training_densities(), original.training_densities());
  Rng rng(27);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
}

TEST_F(ModelIoTest, ReadsVersionTwoFiles) {
  // Version 2 added the algorithm tag but predates the index section and
  // the index_backend config field. Same transformation as the v1 test,
  // keeping the tag in place (the checksum covers tag + section). As in
  // the v1 test, the backend is pinned to kd: legacy files predate the
  // backend tag and the strip helper assumes kd geometry.
  const Dataset data = TrainSet(28);
  TkdcConfig config;
  config.index_backend = IndexBackend::kKdTree;
  TkdcClassifier original(config);
  original.Train(data);
  const std::string v3_path = TempPath("v3_for_v2.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(v3_path, original, data, true, &error)) << error;
  std::ifstream in(v3_path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(contents.size(), 20u);
  const std::string tag = contents.substr(8, 4);
  const std::string section = StripIndexAdditions(
      contents.substr(12, contents.size() - 12 - sizeof(uint64_t)),
      original.tree());
  const uint64_t checksum = Fnv1a(tag + section);
  const std::string v2_path = TempPath("v2.tkdc");
  std::ofstream out(v2_path, std::ios::binary);
  out.write(contents.data(), 4);  // Magic.
  const uint32_t version = 2;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(tag.data(), static_cast<std::streamsize>(tag.size()));
  out.write(section.data(), static_cast<std::streamsize>(section.size()));
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.close();

  auto loaded = LoadModel(v2_path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->name(), "tkdc");
  EXPECT_DOUBLE_EQ(loaded->threshold(), original.threshold());
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
}

TEST_F(ModelIoTest, SoaMirrorRebuiltOnLoadMatchesWriter) {
  // The SoA leaf mirror is derived state: never serialized, rebuilt by the
  // restore constructors, and cross-checked against the version-4
  // descriptor. The rebuilt layout must match the writer's exactly — same
  // leaf count, same padded extent, and bit-identical block contents —
  // so leaf scans on a loaded model reproduce the original's sums.
  const Dataset data = TrainSet(41);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("soa.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;

  const SpatialIndex& before = original.tree();
  const SpatialIndex& after = loaded->tree();
  ASSERT_EQ(before.num_nodes(), after.num_nodes());
  EXPECT_EQ(before.num_soa_leaves(), after.num_soa_leaves());
  EXPECT_EQ(before.num_soa_doubles(), after.num_soa_doubles());
  for (size_t i = 0; i < before.num_nodes(); ++i) {
    if (!before.node(i).is_leaf()) continue;
    const SpatialIndex::SoaLeaf a = before.LeafSoa(i);
    const SpatialIndex::SoaLeaf b = after.LeafSoa(i);
    ASSERT_EQ(a.count, b.count) << "node " << i;
    ASSERT_EQ(a.padded, b.padded) << "node " << i;
    for (size_t v = 0; v < before.dims() * a.padded; ++v) {
      // EXPECT_EQ would fail on the +inf padding; compare bit patterns.
      uint64_t bits_a = 0, bits_b = 0;
      std::memcpy(&bits_a, &a.block[v], sizeof(bits_a));
      std::memcpy(&bits_b, &b.block[v], sizeof(bits_b));
      ASSERT_EQ(bits_a, bits_b) << "node " << i << " slot " << v;
    }
  }
}

TEST_F(ModelIoTest, FastMathLeafFlagRoundTrips) {
  const Dataset data = TrainSet(43);
  TkdcConfig config;
  config.fast_math_leaf = true;
  TkdcClassifier original(config);
  original.Train(data);
  const std::string path = TempPath("fastmath.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->config().fast_math_leaf);
  Rng rng(45);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
}

TEST_F(ModelIoTest, LoadRejectsCorruptSoaDescriptor) {
  // Flip the descriptor's lane-width field (first of the three trailing
  // uint64s of the index section) and fix up the checksum: the loader
  // must reject the file on the descriptor check, not deserialize a
  // layout the binary cannot reproduce.
  const Dataset data = TrainSet(47, 500);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("soa_corrupt.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // The tkdc section ends with the index section (whose last 24 bytes are
  // the SoA descriptor) followed by the version-6 budget/coreset trailer
  // (4 doubles + u8 + u64 + double + u32 = 53 bytes), then the 8-byte
  // checksum.
  constexpr size_t kBudgetTrailerBytes =
      4 * sizeof(double) + 1 + sizeof(uint64_t) + sizeof(double) +
      sizeof(uint32_t);
  ASSERT_GT(contents.size(), 32u + kBudgetTrailerBytes);
  const size_t lane_width_offset =
      contents.size() - 8 - kBudgetTrailerBytes - 24;
  uint64_t lane_width = 0;
  std::memcpy(&lane_width, contents.data() + lane_width_offset,
              sizeof(lane_width));
  ASSERT_EQ(lane_width, 4u);  // kSimdBlockWidth — layout sanity check.
  lane_width = 8;
  std::memcpy(contents.data() + lane_width_offset, &lane_width,
              sizeof(lane_width));
  const uint64_t checksum =
      Fnv1a(contents.substr(8, contents.size() - 8 - sizeof(uint64_t)));
  std::memcpy(contents.data() + contents.size() - sizeof(uint64_t), &checksum,
              sizeof(checksum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  EXPECT_EQ(LoadModel(path, &error), nullptr);
  EXPECT_NE(error.find("SoA"), std::string::npos) << error;
}

TEST_F(ModelIoTest, LoadRejectsShapeWhoseProductOverflows) {
  // dims = n = 2^32 passes a per-field cap, and dims * n wraps to 0 in
  // 64 bits; the shape check must see the true product and refuse the
  // shape before any size derived from it is used.
  const Dataset data = TrainSet(49, 300);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("shape_overflow.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // Header (8) + tag (4) + the 128-byte version-6 config block.
  constexpr size_t kDimsOffset = 8 + 4 + 128;
  uint64_t dims = 0, n = 0;
  std::memcpy(&dims, contents.data() + kDimsOffset, sizeof(dims));
  std::memcpy(&n, contents.data() + kDimsOffset + 8, sizeof(n));
  ASSERT_EQ(dims, 2u);  // Layout sanity check.
  ASSERT_EQ(n, 300u);
  const uint64_t huge = uint64_t{1} << 32;
  std::memcpy(contents.data() + kDimsOffset, &huge, sizeof(huge));
  std::memcpy(contents.data() + kDimsOffset + 8, &huge, sizeof(huge));
  const uint64_t checksum =
      Fnv1a(contents.substr(8, contents.size() - 8 - sizeof(uint64_t)));
  std::memcpy(contents.data() + contents.size() - sizeof(uint64_t), &checksum,
              sizeof(checksum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  EXPECT_EQ(LoadAnyModel(path, &error), nullptr);
  EXPECT_NE(error.find("implausible model dimensions"), std::string::npos)
      << error;
}

TEST_F(ModelIoTest, LoadedModelKeepsWorkingAfterOriginalDies) {
  const std::string path = TempPath("lifetime.tkdc");
  {
    const Dataset data = TrainSet(8);
    TkdcClassifier original;
    original.Train(data);
    std::string error;
    ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  }
  std::string error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->Classify(std::vector<double>{0.0, 0.0}),
            Classification::kHigh);
  EXPECT_EQ(loaded->Classify(std::vector<double>{7.0, 7.0}),
            Classification::kLow);
}

}  // namespace
}  // namespace tkdc
