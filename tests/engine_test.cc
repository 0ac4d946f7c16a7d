#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "codes/engine.h"
#include "core/galloper.h"
#include "la/builders.h"
#include "la/solve.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::codes {
namespace {

using galloper::Buffer;
using galloper::CheckError;
using galloper::ConstByteSpan;
using galloper::Rng;
using galloper::random_buffer;

// A tiny hand-built engine: 2 data blocks + XOR parity, 1 stripe each.
CodecEngine xor_engine() {
  la::Matrix gen(3, 2, {1, 0, 0, 1, 1, 1});
  return CodecEngine(std::move(gen), 3, 1, {{0, 0}, {1, 0}});
}

TEST(Engine, ConstructionValidatesShapes) {
  // Row count mismatch.
  EXPECT_THROW(CodecEngine(la::Matrix(2, 2), 3, 1, {{0, 0}, {1, 0}}),
               CheckError);
  // Column count vs chunk count mismatch.
  EXPECT_THROW(CodecEngine(la::Matrix(3, 3), 3, 1, {{0, 0}, {1, 0}}),
               CheckError);
}

TEST(Engine, ConstructionRejectsNonSystematicChunkRow) {
  la::Matrix gen(3, 2, {1, 1,   // claims to hold chunk 0 but row is (1,1)
                        0, 1, 1, 1});
  EXPECT_THROW(CodecEngine(std::move(gen), 3, 1, {{0, 0}, {1, 0}}),
               CheckError);
}

TEST(Engine, ConstructionRejectsDuplicateChunkStripe) {
  la::Matrix gen(3, 2, {1, 0, 0, 1, 1, 1});
  EXPECT_THROW(CodecEngine(std::move(gen), 3, 1, {{0, 0}, {0, 0}}),
               CheckError);
}

TEST(Engine, XorCodeEncodesParityAsXor) {
  const CodecEngine e = xor_engine();
  Rng rng(1);
  const Buffer file = random_buffer(2 * 10, rng);
  const auto blocks = e.encode(file);
  ASSERT_EQ(blocks.size(), 3u);
  for (size_t i = 0; i < 10; ++i)
    EXPECT_EQ(blocks[2][i], blocks[0][i] ^ blocks[1][i]);
}

TEST(Engine, OneByteChunksWork) {
  const CodecEngine e = xor_engine();
  Rng rng(2);
  const Buffer file = random_buffer(2, rng);  // chunk size 1
  const auto blocks = e.encode(file);
  std::map<size_t, ConstByteSpan> view{{1, blocks[1]}, {2, blocks[2]}};
  const auto decoded = e.decode(view);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, file);
}

TEST(Engine, DecodeRejectsUnequalBlockSizes) {
  const CodecEngine e = xor_engine();
  Buffer a(4), b(6);
  std::map<size_t, ConstByteSpan> view{{0, a}, {1, b}};
  EXPECT_THROW(e.decode(view), CheckError);
}

TEST(Engine, DecodeEmptyMapFails) {
  const CodecEngine e = xor_engine();
  EXPECT_FALSE(e.decode({}).has_value());
}

TEST(Engine, RepairEmptyHelpersFails) {
  const CodecEngine e = xor_engine();
  EXPECT_FALSE(e.repair_block(0, {}).has_value());
}

TEST(Engine, OraclesOnXorCode) {
  const CodecEngine e = xor_engine();
  EXPECT_TRUE(e.decodable({0, 1}));
  EXPECT_TRUE(e.decodable({0, 2}));
  EXPECT_TRUE(e.decodable({1, 2}));
  EXPECT_FALSE(e.decodable({2}));
  EXPECT_TRUE(e.can_repair(0, {1, 2}));
  EXPECT_FALSE(e.can_repair(0, {1}));
  EXPECT_THROW(e.can_repair(9, {0}), CheckError);
}

TEST(Engine, ChunkBookkeeping) {
  const CodecEngine e = xor_engine();
  EXPECT_EQ(e.num_chunks(), 2u);
  EXPECT_EQ(e.data_stripes_in_block(0), 1u);
  EXPECT_EQ(e.data_stripes_in_block(2), 0u);
  EXPECT_EQ(e.chunks_of_block(0), (std::vector<size_t>{0}));
  EXPECT_EQ(e.chunks_of_block(2), (std::vector<size_t>{SIZE_MAX}));
  EXPECT_EQ(e.row_support(2, 0), 2u);
}

TEST(Engine, EncodeDecodeLinearity) {
  // decode(encode(x) ⊕ encode(y)) = x ⊕ y: the engine is a linear map.
  const CodecEngine e = xor_engine();
  Rng rng(3);
  const Buffer x = random_buffer(2 * 8, rng), y = random_buffer(2 * 8, rng);
  Buffer xy(x.size());
  for (size_t i = 0; i < x.size(); ++i) xy[i] = x[i] ^ y[i];
  const auto bx = e.encode(x), by = e.encode(y), bxy = e.encode(xy);
  for (size_t b = 0; b < 3; ++b)
    for (size_t i = 0; i < bx[b].size(); ++i)
      ASSERT_EQ(bxy[b][i], bx[b][i] ^ by[b][i]);
}

TEST(Engine, DecodeFastEquivalentOnXorCode) {
  const CodecEngine e = xor_engine();
  Rng rng(5);
  const Buffer file = random_buffer(2 * 16, rng);
  const auto blocks = e.encode(file);
  for (const auto& ids : std::vector<std::vector<size_t>>{
           {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}, {0}, {2}}) {
    std::map<size_t, ConstByteSpan> view;
    for (size_t id : ids) view.emplace(id, blocks[id]);
    const auto slow = e.decode(view);
    const auto fast = e.decode_fast(view);
    ASSERT_EQ(slow.has_value(), fast.has_value());
    if (slow) {
      EXPECT_EQ(*slow, *fast);
    }
  }
  EXPECT_FALSE(e.decode_fast({}).has_value());
}

TEST(Engine, DecodeFastAllDataBlocksIsPureCopy) {
  const CodecEngine e = xor_engine();
  Rng rng(6);
  const Buffer file = random_buffer(2 * 16, rng);
  const auto blocks = e.encode(file);
  std::map<size_t, ConstByteSpan> view{{0, blocks[0]}, {1, blocks[1]}};
  const auto out = e.decode_fast(view);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, file);
}

class ParallelEncodeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelEncodeTest, MatchesSerialEncode) {
  const size_t threads = GetParam();
  const CodecEngine e = xor_engine();
  Rng rng(7);
  // Chunk sizes around the slice-split edge cases.
  for (size_t chunk : {1u, 2u, 7u, 1024u, 10000u}) {
    const Buffer file = random_buffer(2 * chunk, rng);
    ASSERT_EQ(e.encode(file, threads), e.encode(file))
        << "threads=" << threads << " chunk=" << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelEncodeTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(Engine, ParallelEncodeValidatesArguments) {
  const CodecEngine e = xor_engine();
  EXPECT_THROW(e.encode(Buffer(16), 0), CheckError);
  EXPECT_THROW(e.encode(Buffer(3), 2), CheckError);  // not 2k
}

TEST(Engine, MultiStripeLayoutRoundTrip) {
  // 2 blocks × 2 stripes, chunks scattered: block0 holds chunks {0,2},
  // block1 pos0 holds chunk 1, block1 pos1 is parity = c0+c1+c2.
  la::Matrix gen(4, 3,
                 {1, 0, 0,   // (0,0) → chunk 0
                  0, 0, 1,   // (0,1) → chunk 2
                  0, 1, 0,   // (1,0) → chunk 1
                  1, 1, 1});  // (1,1) parity
  CodecEngine e(std::move(gen), 2, 2, {{0, 0}, {1, 0}, {0, 1}});
  Rng rng(4);
  const Buffer file = random_buffer(3 * 5, rng);
  const auto blocks = e.encode(file);
  ASSERT_EQ(blocks[0].size(), 10u);
  // Parity stripe value check.
  for (size_t i = 0; i < 5; ++i)
    EXPECT_EQ(blocks[1][5 + i],
              file[i] ^ file[5 + i] ^ file[10 + i]);
  // Chunks land where the layout says.
  EXPECT_EQ(Buffer(blocks[0].begin() + 5, blocks[0].end() - 0),
            Buffer(file.begin() + 10, file.end()));
}

// ---- Memoized decodability ------------------------------------------------

// The uncached oracle: rank of the available blocks' generator rows.
bool rank_decodable(const CodecEngine& e, uint64_t mask) {
  std::vector<size_t> rows;
  for (size_t b = 0; b < e.num_blocks(); ++b)
    if ((mask >> b) & 1)
      for (size_t p = 0; p < e.stripes_per_block(); ++p)
        rows.push_back(b * e.stripes_per_block() + p);
  if (rows.empty()) return e.num_chunks() == 0;
  return la::rank(e.generator().select_rows(rows)) == e.num_chunks();
}

std::vector<size_t> blocks_of(uint64_t mask, size_t n) {
  std::vector<size_t> out;
  for (size_t b = 0; b < n; ++b)
    if ((mask >> b) & 1) out.push_back(b);
  return out;
}

TEST(DecodableMemo, MatchesRankOnEveryMaskOfSmallCodes) {
  for (const auto& [k, l, g] : {std::tuple{4, 2, 1}, std::tuple{4, 2, 2}}) {
    const core::GalloperCode code(k, l, g);
    const CodecEngine& e = code.engine();
    ASSERT_LE(e.num_blocks(), CodecEngine::kDecodableMemoMaxBlocks);
    const uint64_t masks = uint64_t{1} << e.num_blocks();
    // Twice: the first pass fills the memo, the second reads it back.
    for (int pass = 0; pass < 2; ++pass)
      for (uint64_t m = 0; m < masks; ++m)
        ASSERT_EQ(e.decodable(blocks_of(m, e.num_blocks())),
                  rank_decodable(e, m))
            << "(" << k << "," << l << "," << g << ") mask " << m
            << " pass " << pass;
  }
}

TEST(DecodableMemo, MatchesRankOnRandomMasksOfAWideCode) {
  const core::GalloperCode code(12, 4, 2);
  const CodecEngine& e = code.engine();
  Rng rng(0xdec0);
  std::vector<uint64_t> masks(10000);
  for (uint64_t& m : masks)
    m = rng.next_u64() & ((uint64_t{1} << e.num_blocks()) - 1);
  for (int pass = 0; pass < 2; ++pass)
    for (uint64_t m : masks)
      ASSERT_EQ(e.decodable(blocks_of(m, e.num_blocks())),
                rank_decodable(e, m))
          << "mask " << m << " pass " << pass;
}

TEST(DecodableMemo, ConcurrentFirstQueriesAgree) {
  // Every thread races through the same never-queried masks, so first-time
  // fills of one table word collide.
  const core::GalloperCode code(4, 2, 2);
  const CodecEngine& e = code.engine();
  const uint64_t masks = uint64_t{1} << e.num_blocks();
  std::vector<uint8_t> truth(masks);
  for (uint64_t m = 0; m < masks; ++m) truth[m] = rank_decodable(e, m);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (uint64_t m = 0; m < masks; ++m)
        if (e.decodable(blocks_of(m, e.num_blocks())) != (truth[m] != 0))
          wrong.fetch_add(1);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(DecodableMemo, CopiesShareTheMemoAndIdsAreChecked) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine copy = code.engine();
  EXPECT_EQ(copy.decodable({0, 1, 2, 3}),
            code.engine().decodable({0, 1, 2, 3}));
  EXPECT_THROW(code.engine().decodable({0, 99}), CheckError);
}

}  // namespace
}  // namespace galloper::codes
