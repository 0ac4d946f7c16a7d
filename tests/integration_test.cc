// Cross-module integration: the extension codes driven through the full
// storage/analytics stack, end to end.
#include <gtest/gtest.h>

#include "codes/carousel.h"
#include "core/all_symbol.h"
#include "core/galloper.h"
#include "core/input_format.h"
#include "mr/framework.h"
#include "mr/wordcount.h"
#include "scenario/scenario.h"
#include "store/file_store.h"
#include "store/recovery.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper {
namespace {

TEST(Integration, AllSymbolCodeThroughFileStoreAndRecovery) {
  core::AllSymbolGalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  Rng rng(1);
  const Buffer file = random_buffer(code.engine().num_chunks() * 64, rng);
  const auto id = fs.write(file);

  // Kill a global parity and the extra block — both repair locally (g
  // reads) under the extension.
  fs.fail_server(6);
  fs.fail_server(8);
  EXPECT_TRUE(fs.all_recoverable());
  for (size_t s : {6u, 8u}) fs.revive_server(s);
  store::RecoveryManager mgr(simulation, fs);
  const auto report = mgr.recover_all();
  EXPECT_EQ(report.blocks_repaired, 2u);
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_TRUE(fs.scrub().empty());
}

TEST(Integration, AllSymbolCodeRunsAnalyticsOnAllDataBearingBlocks) {
  core::AllSymbolGalloperCode code(4, 2, 1);
  Rng rng(2);
  const size_t chunk = mr::kWordCountRecordBytes * 4;
  const Buffer corpus =
      mr::generate_text(code.engine().num_chunks() * chunk, rng);
  const auto blocks = code.encode(corpus);
  core::InputFormat fmt(code, blocks[0].size());
  // 7 data-bearing blocks; the extra block holds no original data.
  EXPECT_EQ(fmt.splits().size(), 7u);
  EXPECT_EQ(fmt.original_bytes_in_block(7), 0u);

  mr::WordCountMapper mapper;
  mr::WordCountReducer reducer;
  mr::LocalRunner runner(mapper, reducer);
  std::vector<ConstByteSpan> spans(blocks.begin(), blocks.end());
  EXPECT_EQ(runner.run(fmt, spans), runner.run_plain(corpus));
}

TEST(Integration, CarouselThroughFileStore) {
  codes::CarouselCode code(4, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, 6, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  Rng rng(3);
  const Buffer file = random_buffer(code.engine().num_chunks() * 32, rng);
  const auto id = fs.write(file);
  fs.fail_server(0);
  fs.fail_server(5);
  EXPECT_TRUE(fs.all_recoverable());
  EXPECT_EQ(*fs.read(id), file);
  fs.revive_server(0);
  const auto helpers = fs.repair(id, 0);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_EQ(helpers->size(), 4u) << "Carousel repairs like Reed-Solomon";
}

TEST(Integration, ScenarioRunsOnAllSymbolCode) {
  core::AllSymbolGalloperCode code(4, 2, 1);
  scenario::ScenarioConfig config;
  config.num_files = 2;
  config.file_bytes = 4096;
  config.num_jobs = 6;
  config.seed = 5;
  config.job_config.max_split_bytes = 1ull << 40;
  const auto r = scenario::run_scenario(code, config);
  EXPECT_EQ(r.jobs_run, 6u);
  EXPECT_TRUE(r.all_files_intact || r.data_loss_events > 0);
}

TEST(Integration, UpdateSurvivesSubsequentRepair) {
  // Update parity via delta, then lose and repair a block: the repaired
  // bytes must reflect the update.
  core::GalloperCode code(4, 2, 1);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, 7, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  Rng rng(6);
  const size_t chunk = 256;
  Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const auto id = fs.write(file);

  const Buffer fresh = random_buffer(chunk, rng);
  fs.update_range(id, 2 * chunk, fresh);
  std::copy(fresh.begin(), fresh.end(),
            file.begin() + static_cast<ptrdiff_t>(2 * chunk));

  fs.fail_server(0);  // chunk 2 lives in block 0
  fs.revive_server(0);
  ASSERT_TRUE(fs.repair(id, 0).has_value());
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_TRUE(fs.scrub().empty());
}

}  // namespace
}  // namespace galloper
