#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/dataset_builder.hpp"
#include "core/pipeline_config.hpp"
#include "ml/arff.hpp"
#include "perf/perf_log.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace hmd::core {
namespace {

PipelineConfig tiny_config(std::uint64_t seed = 2018) {
  PipelineConfig cfg = PipelineConfig::quick(0.01, 3);
  cfg.collector.ops_per_window = 600;
  cfg.seed = seed;
  return cfg;
}

TEST(PipelineConfig, PaperHasFullComposition) {
  const PipelineConfig cfg = PipelineConfig::paper();
  EXPECT_EQ(cfg.composition.total(), 3070u);
  EXPECT_EQ(cfg.collector.num_windows, 16u);
  EXPECT_DOUBLE_EQ(cfg.train_fraction, 0.7);
  EXPECT_DOUBLE_EQ(cfg.collector.window_ms, 10.0);
}

TEST(PipelineConfig, PaperRowCountNearFiftyThousand) {
  const PipelineConfig cfg = PipelineConfig::paper();
  const std::size_t rows = cfg.composition.total() * cfg.collector.num_windows;
  EXPECT_NEAR(static_cast<double>(rows), 50000.0, 2000.0);
}

TEST(PipelineConfig, CacheKeyReactsToEveryKnob) {
  const PipelineConfig base = tiny_config();
  PipelineConfig s = base;
  s.seed = 1;
  PipelineConfig w = base;
  w.collector.num_windows = 9;
  PipelineConfig n = base;
  n.sandbox.host_noise_frac = 0.2;
  PipelineConfig i = base;
  i.collector.ideal_pmu = true;
  EXPECT_NE(base.cache_key(), s.cache_key());
  EXPECT_NE(base.cache_key(), w.cache_key());
  EXPECT_NE(base.cache_key(), n.cache_key());
  EXPECT_NE(base.cache_key(), i.cache_key());
  EXPECT_EQ(base.cache_key(), tiny_config().cache_key());
}

TEST(DatasetBuilder, DatabaseMatchesComposition) {
  DatasetBuilder builder(tiny_config());
  const auto db = builder.build_database();
  EXPECT_EQ(db.size(), tiny_config().composition.total());
}

TEST(DatasetBuilder, DatasetShapeIsRowsBySixteenPlusClass) {
  DatasetBuilder builder(tiny_config());
  const ml::Dataset d = builder.build_multiclass_dataset();
  EXPECT_EQ(d.num_features(), 16u);
  EXPECT_EQ(d.num_classes(), 6u);
  EXPECT_EQ(d.num_instances(),
            tiny_config().composition.total() * 3u);  // 3 windows each
  EXPECT_EQ(d.attribute(0).name(), "instructions");
  EXPECT_EQ(d.class_attribute().values()[0], "benign");
}

TEST(DatasetBuilder, DeterministicInSeed) {
  DatasetBuilder a(tiny_config(7));
  DatasetBuilder b(tiny_config(7));
  const ml::Dataset da = a.build_multiclass_dataset();
  const ml::Dataset db = b.build_multiclass_dataset();
  ASSERT_EQ(da.num_instances(), db.num_instances());
  for (std::size_t i = 0; i < da.num_instances(); ++i)
    for (std::size_t f = 0; f < da.num_features(); ++f)
      EXPECT_DOUBLE_EQ(da.features_of(i)[f], db.features_of(i)[f]);
}

TEST(DatasetBuilder, DifferentSeedsDiffer) {
  const ml::Dataset da =
      DatasetBuilder(tiny_config(1)).build_multiclass_dataset();
  const ml::Dataset db =
      DatasetBuilder(tiny_config(2)).build_multiclass_dataset();
  bool any_diff = false;
  for (std::size_t f = 0; f < da.num_features(); ++f)
    any_diff |= da.features_of(0)[f] != db.features_of(0)[f];
  EXPECT_TRUE(any_diff);
}

TEST(DatasetBuilder, ProgressCallbackCoversAllSamples) {
  DatasetBuilder builder(tiny_config());
  std::size_t calls = 0, last_done = 0, total = 0;
  builder.build_multiclass_dataset([&](std::size_t done, std::size_t t) {
    ++calls;
    last_done = done;
    total = t;
  });
  EXPECT_EQ(calls, tiny_config().composition.total());
  EXPECT_EQ(last_done, total);
}

TEST(DatasetBuilder, ParallelCollectionBitIdenticalToSerial) {
  // The collection pass fans per-sample simulation across a pool; each
  // sample is seeded independently, so the dataset — and the cached CSV
  // byte stream — must not depend on the thread count.
  DatasetBuilder builder(tiny_config(31));
  const ml::Dataset serial = builder.build_multiclass_dataset();
  ThreadPool pool(4);
  const ml::Dataset parallel = builder.build_multiclass_dataset({}, &pool);

  ASSERT_EQ(parallel.num_instances(), serial.num_instances());
  for (std::size_t i = 0; i < serial.num_instances(); ++i) {
    EXPECT_EQ(parallel.class_of(i), serial.class_of(i));
    for (std::size_t f = 0; f < serial.num_features(); ++f)
      EXPECT_EQ(parallel.features_of(i)[f], serial.features_of(i)[f])
          << "row " << i << " feature " << f;
  }

  std::ostringstream serial_csv, parallel_csv;
  ml::write_dataset_csv(serial_csv, serial);
  ml::write_dataset_csv(parallel_csv, parallel);
  EXPECT_EQ(parallel_csv.str(), serial_csv.str());
}

TEST(DatasetBuilder, ParallelProgressStillCoversAllSamples) {
  DatasetBuilder builder(tiny_config());
  ThreadPool pool(3);
  std::size_t calls = 0, max_done = 0, total = 0;
  builder.build_multiclass_dataset(
      [&](std::size_t done, std::size_t t) {
        // The builder serializes progress calls; done counts completions.
        ++calls;
        max_done = std::max(max_done, done);
        total = t;
      },
      &pool);
  EXPECT_EQ(calls, tiny_config().composition.total());
  EXPECT_EQ(max_done, total);
}

TEST(DatasetBuilder, BinaryRelabelGroupsMalware) {
  DatasetBuilder builder(tiny_config());
  const ml::Dataset multi = builder.build_multiclass_dataset();
  const ml::Dataset binary = DatasetBuilder::to_binary(multi);
  EXPECT_EQ(binary.num_classes(), 2u);
  EXPECT_EQ(binary.num_instances(), multi.num_instances());
  const auto counts = binary.class_counts();
  const auto multi_counts = multi.class_counts();
  EXPECT_EQ(counts[0], multi_counts[0]);  // benign
  EXPECT_EQ(counts[1], multi.num_instances() - multi_counts[0]);
}

TEST(DatasetBuilder, CountsAreNonNegativeAndFinite) {
  DatasetBuilder builder(tiny_config());
  const ml::Dataset d = builder.build_multiclass_dataset();
  for (std::size_t i = 0; i < d.num_instances(); ++i)
    for (double v : d.features_of(i)) {
      EXPECT_GE(v, 0.0);
      EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(DatasetBuilder, RunLogsRoundTripThroughCsv) {
  DatasetBuilder builder(tiny_config());
  const auto logs = builder.collect_run_logs(4);
  ASSERT_EQ(logs.size(), 4u);
  std::ostringstream csv;
  perf::combine_logs_to_csv(csv, logs);
  std::istringstream in(csv.str());
  const hmd::CsvTable table = hmd::read_csv(in);
  EXPECT_EQ(table.header.size(), 17u);  // 16 counters + class
  EXPECT_EQ(table.rows.size(), 4u * 3u);
}

TEST(DatasetBuilder, PerfLogTextRoundTrip) {
  DatasetBuilder builder(tiny_config());
  const auto logs = builder.collect_run_logs(1);
  std::ostringstream out;
  perf::write_perf_log(out, logs.front());
  std::istringstream in(out.str());
  const perf::RunLog parsed = perf::read_perf_log(in);
  EXPECT_EQ(parsed.sample_id, logs.front().sample_id);
  EXPECT_EQ(parsed.samples.size(), logs.front().samples.size());
}

TEST(DatasetBuilder, CsvCacheRoundTrip) {
  const std::string path = "/tmp/hmd_test_cache.csv";
  std::filesystem::remove(path);
  DatasetBuilder builder(tiny_config());
  const ml::Dataset built = builder.load_or_build(path);
  ASSERT_TRUE(std::filesystem::exists(path));
  const ml::Dataset loaded = builder.load_or_build(path);
  ASSERT_EQ(loaded.num_instances(), built.num_instances());
  // The cache is exact: a warm run trains on the very values a cold
  // run does.
  for (std::size_t i = 0; i < built.num_instances(); ++i) {
    EXPECT_EQ(loaded.class_of(i), built.class_of(i));
    for (std::size_t f = 0; f < built.num_features(); ++f)
      EXPECT_EQ(loaded.features_of(i)[f], built.features_of(i)[f])
          << "row " << i << " feature " << f;
  }
  std::filesystem::remove(path);
}

TEST(DatasetBuilder, EmptyCachePathAlwaysBuilds) {
  DatasetBuilder builder(tiny_config());
  const ml::Dataset d = builder.load_or_build("");
  EXPECT_GT(d.num_instances(), 0u);
}

}  // namespace
}  // namespace hmd::core
