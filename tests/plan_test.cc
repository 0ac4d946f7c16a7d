// Plan layer tests: the sharded LRU PlanCache, cached-vs-fresh bit-identity
// on every data path, per-row solvability (decode_fast vs read_range), plan
// pinning, and a concurrent mixed-pattern stress (registered under the TSan
// matrix with a 2-worker pool).
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "codes/engine.h"
#include "codes/plan.h"
#include "codes/reed_solomon.h"
#include "core/galloper.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::codes {
namespace {

using galloper::Buffer;
using galloper::CheckError;
using galloper::ConstByteSpan;
using galloper::Rng;
using galloper::random_buffer;

// Every test here toggles the global cache; restore the default so suites
// that run after plan_test in the same binary see a fresh, enabled cache.
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override { PlanCache::global().reset(1024); }
  void TearDown() override { PlanCache::global().reset(1024); }
};

std::map<size_t, ConstByteSpan> view_of(const std::vector<Buffer>& blocks,
                                        const std::vector<size_t>& ids) {
  std::map<size_t, ConstByteSpan> view;
  for (size_t b : ids) view.emplace(b, blocks[b]);
  return view;
}

PlanKey key(uint64_t engine, uint64_t pattern) {
  PlanKey k;
  k.engine_id = engine;
  k.op = PlanOp::kDecode;
  k.available = {pattern};
  return k;
}

TEST(PlanCacheUnit, GetPutAndHitMissCounters) {
  PlanCache cache(8, /*shards=*/1);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);
  auto plan = std::make_shared<CodecPlan>();
  cache.put(key(1, 1), plan);
  EXPECT_EQ(cache.get(key(1, 1)), plan);
  EXPECT_EQ(cache.get(key(2, 1)), nullptr);  // other engine, same pattern
  const PlanCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(PlanCacheUnit, LruEvictsOldestAndGetPromotes) {
  PlanCache cache(3, /*shards=*/1);
  std::vector<std::shared_ptr<CodecPlan>> plans;
  for (uint64_t i = 0; i < 3; ++i) {
    plans.push_back(std::make_shared<CodecPlan>());
    cache.put(key(1, i), plans.back());
  }
  // Touch pattern 0, making pattern 1 the LRU entry.
  EXPECT_NE(cache.get(key(1, 0)), nullptr);
  cache.put(key(1, 3), std::make_shared<CodecPlan>());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);  // evicted
  EXPECT_NE(cache.get(key(1, 0)), nullptr);  // promoted, survived
  EXPECT_NE(cache.get(key(1, 2)), nullptr);
  EXPECT_NE(cache.get(key(1, 3)), nullptr);
  // An evicted plan stays valid for holders of the shared_ptr.
  EXPECT_EQ(plans[1].use_count(), 1);
}

TEST(PlanCacheUnit, DisabledCacheStoresNothing) {
  PlanCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(key(1, 1), std::make_shared<CodecPlan>());
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PlanCacheUnit, ResetClearsEntriesAndResizes) {
  PlanCache cache(8, /*shards=*/1);
  cache.put(key(1, 1), std::make_shared<CodecPlan>());
  cache.reset(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.reset(8);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.get(key(1, 1)), nullptr);  // reset dropped the entry
}

// Cached-vs-fresh bit-identity across all six data paths: run each path
// once with the global cache disabled (every call plans from scratch — the
// pre-plan-cache behavior) and twice with it enabled (miss, then hit), and
// demand identical bytes.
TEST_F(PlanTest, CachedMatchesFreshOnAllPaths) {
  core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  Rng rng(7);
  const size_t chunk = 512;
  const Buffer file = random_buffer(e.num_chunks() * chunk, rng);
  const auto blocks = e.encode(file);

  std::vector<size_t> some;  // a decodable proper subset: drop one block
  for (size_t b = 1; b < e.num_blocks(); ++b) some.push_back(b);
  ASSERT_TRUE(e.decodable(some));
  const auto view = view_of(blocks, some);

  PlanCache::global().reset(0);  // fresh planning on every call
  const auto fresh_decode = e.decode(view);
  const auto fresh_fast = e.decode_fast(view);
  const auto fresh_repair = e.repair_block(0, view);
  const auto fresh_range = e.read_range(view, chunk / 2, 3 * chunk);
  ASSERT_TRUE(fresh_decode && fresh_fast && fresh_repair && fresh_range);

  PlanCache::global().reset(1024);
  for (int round = 0; round < 2; ++round) {  // miss round, then hit round
    EXPECT_EQ(*e.decode(view), *fresh_decode);
    EXPECT_EQ(*e.decode_fast(view), *fresh_fast);
    EXPECT_EQ(*e.repair_block(0, view), *fresh_repair);
    EXPECT_EQ(*e.read_range(view, chunk / 2, 3 * chunk), *fresh_range);
  }
  const PlanCacheStats st = PlanCache::global().stats();
  EXPECT_GE(st.hits, 4u);  // the second round was all hits

  // Encode and update don't use the pattern cache (their schedules compile
  // at engine construction); verify them against an independent engine of
  // the same code, whose plans were compiled separately.
  core::GalloperCode twin(4, 2, 1);
  EXPECT_EQ(twin.engine().encode(file), blocks);
  auto a = e.encode(file);
  auto b = twin.engine().encode(file);
  const Buffer delta = random_buffer(chunk, rng);
  EXPECT_EQ(e.update_chunk(a, 3, delta), twin.engine().update_chunk(b, 3, delta));
  EXPECT_EQ(a, b);
}

TEST_F(PlanTest, RepeatedLookupReturnsTheSamePlanObject) {
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  const std::vector<size_t> ids{0, 2, 3, 5};
  const auto p1 = e.plan_decode_fast(ids);
  const auto p2 = e.plan_decode_fast(ids);
  EXPECT_EQ(p1.get(), p2.get());  // cache hit: same object, not a recompile
  // Different pattern → different plan.
  EXPECT_NE(e.plan_decode_fast({0, 1, 2, 3}).get(), p1.get());
  // decode and decode_fast are different ops — distinct cache lines.
  EXPECT_NE(e.plan_decode(ids).get(), p1.get());
}

TEST_F(PlanTest, TwinEnginesShareCachedPlans) {
  // Copies carry the same engine_id (same immutable generator), so a plan
  // compiled through one copy is a cache hit for the other.
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  const CodecEngine copy = e;  // NOLINT(performance-unnecessary-copy)
  const auto p1 = e.plan_repair(1, {0, 2, 3, 4});
  const auto p2 = copy.plan_repair(1, {0, 2, 3, 4});
  EXPECT_EQ(p1.get(), p2.get());
  // Independent constructions get distinct ids → no cross-engine sharing.
  codes::ReedSolomonCode other(4, 2);
  EXPECT_NE(other.engine().plan_repair(1, {0, 2, 3, 4}).get(), p1.get());
}

TEST_F(PlanTest, UnsolvablePatternsAreCachedToo) {
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  Rng rng(11);
  const Buffer file = random_buffer(e.num_chunks() * 64, rng);
  const auto blocks = e.encode(file);
  const auto view = view_of(blocks, {0, 1, 2});  // 3 of 6: undecodable
  EXPECT_FALSE(e.decode(view).has_value());
  const uint64_t hits_before = PlanCache::global().stats().hits;
  EXPECT_FALSE(e.decode(view).has_value());  // negative result from cache
  EXPECT_GT(PlanCache::global().stats().hits, hits_before);
}

// decode_fast and read_range share one plan, but solvability is per ROW:
// with only data blocks {0, 1} of an RS(4, 2) code, whole-file paths fail
// while a range confined to the chunks those blocks hold still reads.
TEST_F(PlanTest, PerRowSolvabilityServesPartialReads) {
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  Rng rng(23);
  const size_t chunk = 256;
  const Buffer file = random_buffer(e.num_chunks() * chunk, rng);
  const auto blocks = e.encode(file);
  const auto view = view_of(blocks, {0, 1});

  EXPECT_FALSE(e.decode_fast(view).has_value());
  EXPECT_FALSE(e.decode(view).has_value());

  for (size_t c = 0; c < e.num_chunks(); ++c) {
    const bool held = e.chunk_positions()[c].block <= 1;
    const auto got = e.read_range(view, c * chunk, chunk);
    ASSERT_EQ(got.has_value(), held) << "chunk " << c;
    if (held)
      EXPECT_EQ(*got, Buffer(file.begin() + c * chunk,
                             file.begin() + (c + 1) * chunk));
  }
}

TEST_F(PlanTest, PinnedRepairPlanSurvivesCacheDisableAndEviction) {
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  Rng rng(31);
  const Buffer file = random_buffer(e.num_chunks() * 128, rng);
  const auto blocks = e.encode(file);
  const std::vector<size_t> helpers{1, 2, 3, 4};
  const auto view = view_of(blocks, helpers);
  const auto expected = e.repair_block(0, view);
  ASSERT_TRUE(expected.has_value());

  const auto plan = e.plan_repair(0, helpers);
  PlanCache::global().reset(0);  // pinned plans don't care about the cache
  for (size_t threads : {size_t{1}, size_t{3}}) {
    const auto got = e.repair_block_with_plan(*plan, view, threads);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *expected);
  }
}

// A pinned plan is trusted for its sources but not for its shape: a
// decode_fast plan over the same helpers has num_chunks rows (28 for
// (4,2,1)), and executing it into the 7-stripe repair buffer would write far
// past its end. The executor rejects it by row count before touching bytes.
TEST_F(PlanTest, PinnedRepairRejectsPlanOfAnotherOp) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  Rng rng(37);
  const auto blocks = e.encode(random_buffer(e.num_chunks() * 64, rng));
  // Every survivor: the decode plans over it are fully solvable, so only
  // the row-count check stands between them and the undersized buffer.
  const std::vector<size_t> helpers{1, 2, 3, 4, 5, 6};
  const auto view = view_of(blocks, helpers);
  ASSERT_NE(e.num_chunks(), e.stripes_per_block());
  ASSERT_TRUE(e.plan_decode_fast(helpers)->fully_solvable());

  EXPECT_THROW(e.repair_block_with_plan(*e.plan_decode_fast(helpers), view),
               CheckError);
  EXPECT_THROW(e.repair_block_with_plan(*e.plan_decode(helpers), view, 3),
               CheckError);
  // The matching plan still runs.
  const auto got = e.repair_block_with_plan(*e.plan_repair(0, helpers), view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blocks[0]);
}

TEST_F(PlanTest, EvictionChurnKeepsResultsCorrect) {
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  Rng rng(43);
  const Buffer file = random_buffer(e.num_chunks() * 64, rng);
  const auto blocks = e.encode(file);
  PlanCache::global().reset(2);  // tiny: every pattern change evicts
  for (int round = 0; round < 3; ++round) {
    for (size_t drop = 0; drop < e.num_blocks(); ++drop) {
      std::vector<size_t> ids;
      for (size_t b = 0; b < e.num_blocks(); ++b)
        if (b != drop) ids.push_back(b);
      EXPECT_EQ(*e.decode_fast(view_of(blocks, ids)), file);
    }
  }
  EXPECT_GT(PlanCache::global().stats().evictions, 0u);
}

// Mixed-pattern stress: threads hammer decode_fast and repair through a
// deliberately tiny shared cache (hits, misses, and evictions all racing)
// and every result must stay bit-exact. Registered in the *_tsan2 ctest
// matrix so the shard locking and counter atomics run under TSan.
TEST_F(PlanTest, ConcurrentMixedPatternStress) {
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  Rng rng(57);
  const size_t chunk = 128;
  const Buffer file = random_buffer(e.num_chunks() * chunk, rng);
  const auto blocks = e.encode(file);

  // All 4-of-6 patterns are decodable for RS(4, 2).
  std::vector<std::vector<size_t>> patterns;
  for (size_t i = 0; i < e.num_blocks(); ++i)
    for (size_t j = i + 1; j < e.num_blocks(); ++j) {
      std::vector<size_t> ids;
      for (size_t b = 0; b < e.num_blocks(); ++b)
        if (b != i && b != j) ids.push_back(b);
      patterns.push_back(std::move(ids));
    }
  // Baselines computed up front, single-threaded.
  std::vector<Buffer> repaired0(patterns.size());
  for (size_t p = 0; p < patterns.size(); ++p)
    if (patterns[p][0] != 0)
      repaired0[p] = *e.repair_block(0, view_of(blocks, patterns[p]));

  PlanCache::global().reset(4);  // far fewer slots than live patterns
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < 40; ++i) {
        const size_t p = (t * 13 + i * 7) % patterns.size();
        const auto view = view_of(blocks, patterns[p]);
        if (i % 2 == 0) {
          const auto got = e.decode_fast(view);
          if (!got || *got != file) ++failures;
        } else if (patterns[p][0] != 0) {
          const auto got = e.repair_block(0, view);
          if (!got || *got != repaired0[p]) ++failures;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const PlanCacheStats st = PlanCache::global().stats();
  EXPECT_GT(st.hits + st.misses, 0u);
  EXPECT_LE(st.entries, 8u);  // ceil-divided per-shard caps
}

TEST_F(PlanTest, PlanOpCountersAccumulate) {
  reset_plan_op_stats();
  codes::ReedSolomonCode rs(4, 2);
  const CodecEngine& e = rs.engine();
  Rng rng(61);
  const Buffer file = random_buffer(e.num_chunks() * 64, rng);
  const auto blocks = e.encode(file);
  const auto st_enc = plan_op_stats(PlanOp::kEncode);
  EXPECT_GE(st_enc.plans, 1u);  // engine construction compiled the plan
  EXPECT_GE(st_enc.execs, 1u);

  std::vector<size_t> all(e.num_blocks());
  for (size_t b = 0; b < all.size(); ++b) all[b] = b;
  ASSERT_TRUE(e.decode_fast(view_of(blocks, all)).has_value());
  ASSERT_TRUE(e.decode_fast(view_of(blocks, all)).has_value());
  const auto st = plan_op_stats(PlanOp::kDecodeFast);
  EXPECT_EQ(st.plans, 1u);  // second call hit the cache
  EXPECT_EQ(st.execs, 2u);
}

TEST_F(PlanTest, PlanRepairRejectsFailedAsHelper) {
  codes::ReedSolomonCode rs(4, 2);
  EXPECT_THROW(rs.engine().plan_repair(0, {0, 1, 2, 3}), CheckError);
}

}  // namespace
}  // namespace galloper::codes
