// Tests for the in-place update (delta parity maintenance) and partial
// range-read data paths of CodecEngine.
#include <gtest/gtest.h>

#include <algorithm>

#include "codes/pyramid.h"
#include "codes/reed_solomon.h"
#include "core/galloper.h"
#include "gf/gf256.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::codes {
namespace {

using core::GalloperCode;
using galloper::Buffer;
using galloper::ByteSpan;
using galloper::CheckError;
using galloper::ConstByteSpan;
using galloper::Rng;
using galloper::random_buffer;

std::map<size_t, ConstByteSpan> view(const std::vector<Buffer>& blocks,
                                     const std::vector<size_t>& ids) {
  std::map<size_t, ConstByteSpan> m;
  for (size_t id : ids) m.emplace(id, blocks[id]);
  return m;
}

std::vector<size_t> all_ids(size_t n) {
  std::vector<size_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// ---------- update_chunk ----------

class UpdateTest : public ::testing::Test {
 protected:
  GalloperCode code{4, 2, 1};
  static constexpr size_t kChunk = 64;
  Rng rng{31};
  Buffer file = random_buffer(code.engine().num_chunks() * kChunk, rng);
  std::vector<Buffer> blocks = code.encode(file);
};

TEST_F(UpdateTest, UpdatedStateEqualsFreshEncode) {
  // Update several chunks and compare against re-encoding from scratch.
  for (size_t chunk : {0u, 5u, 13u, 27u}) {
    const Buffer new_data = random_buffer(kChunk, rng);
    std::copy(new_data.begin(), new_data.end(),
              file.begin() + static_cast<ptrdiff_t>(chunk * kChunk));
    const auto touched = code.engine().update_chunk(blocks, chunk, new_data);
    EXPECT_FALSE(touched.empty());
  }
  EXPECT_EQ(blocks, code.encode(file)) << "delta updates must be exact";
}

TEST_F(UpdateTest, NoopUpdateTouchesNothing) {
  const Buffer same(file.begin(), file.begin() + kChunk);  // chunk 0 as-is
  const auto touched = code.engine().update_chunk(blocks, 0, same);
  EXPECT_TRUE(touched.empty());
  EXPECT_EQ(blocks, code.encode(file));
}

TEST_F(UpdateTest, TouchedSetIsHomeBlockPlusParityConsumers) {
  const Buffer new_data = random_buffer(kChunk, rng);
  const auto touched = code.engine().update_chunk(blocks, 0, new_data);
  // Home block of chunk 0 is block 0 (data at top).
  EXPECT_NE(std::find(touched.begin(), touched.end(), 0u), touched.end());
  // Update I/O is bounded by the number of blocks (each whole block at
  // most once).
  EXPECT_LE(touched.size(), code.num_blocks());
  // Decodability intact after the patch.
  const auto decoded = code.decode(view(blocks, {1, 2, 3, 4, 5, 6}));
  ASSERT_TRUE(decoded.has_value());
}

TEST_F(UpdateTest, UpdateCostSmallerForLrcThanRs) {
  // With Reed-Solomon every parity block consumes every chunk; with the
  // Galloper/Pyramid structure a chunk's local group parity + globals
  // consume it but the OTHER group's local parity does not.
  ReedSolomonCode rs(4, 2);
  Rng r2(32);
  Buffer f2 = random_buffer(4 * kChunk, r2);
  auto b2 = rs.encode(f2);
  const auto rs_touched =
      rs.engine().update_chunk(b2, 0, random_buffer(kChunk, r2));
  EXPECT_EQ(rs_touched.size(), 3u);  // home + 2 parity blocks

  const auto gal_touched =
      code.engine().update_chunk(blocks, 0, random_buffer(kChunk, rng));
  EXPECT_LT(gal_touched.size(), code.num_blocks())
      << "at least one block must be untouched by a single-chunk update";
}

TEST_F(UpdateTest, RejectsBadArguments) {
  Buffer wrong(kChunk - 1);
  EXPECT_THROW(code.engine().update_chunk(blocks, 0, wrong), CheckError);
  EXPECT_THROW(code.engine().update_chunk(blocks, 9999, Buffer(kChunk)),
               CheckError);
  std::vector<Buffer> few(blocks.begin(), blocks.end() - 1);
  EXPECT_THROW(code.engine().update_chunk(few, 0, Buffer(kChunk)),
               CheckError);
}

// ---------- stripe form vs the generator ----------

// The whole-block delta update restated from the generator, byte by byte:
// the home stripe takes the new bytes and every other stripe whose row
// reads the chunk gains coeff·delta. Returns the sorted blocks it changed
// (none for a zero delta).
std::vector<size_t> reference_update(const CodecEngine& e,
                                     std::vector<Buffer>& blocks, size_t c,
                                     ConstByteSpan fresh) {
  const size_t cb = fresh.size(), n = e.stripes_per_block();
  const StripeRef home = e.chunk_positions()[c];
  const size_t home_row = home.block * n + home.pos;
  Buffer delta(cb);
  for (size_t i = 0; i < cb; ++i)
    delta[i] = blocks[home.block][home.pos * cb + i] ^ fresh[i];
  if (std::all_of(delta.begin(), delta.end(), [](uint8_t v) { return !v; }))
    return {};
  std::vector<size_t> touched;
  for (size_t r = 0; r < e.generator().rows(); ++r) {
    const gf::Elem coeff = e.generator().row(r)[c];
    if (coeff == 0) continue;
    uint8_t* stripe = blocks[r / n].data() + (r % n) * cb;
    for (size_t i = 0; i < cb; ++i)
      stripe[i] = r == home_row ? fresh[i]
                                : stripe[i] ^ gf::mul(coeff, delta[i]);
    if (touched.empty() || touched.back() != r / n) touched.push_back(r / n);
  }
  return touched;
}

// Over Galloper, RS, Pyramid and a batched (interleaved) layout, with
// random chunks, multi-chunk ranges and zero deltas: the whole-block
// wrapper and the stripe form over detached stripe copies both match the
// generator reference — bytes and touched blocks — and re-encoding the
// mirror.
TEST(UpdateStripesTest, StripeFormMatchesGeneratorReference) {
  const GalloperCode gal421(4, 2, 1), gal422(4, 2, 2);
  const ReedSolomonCode rs(6, 3);
  const PyramidCode pyr(4, 2, 2);
  struct Case {
    const ErasureCode* code;
    size_t chunk;
    size_t batch;  // >1: chunk is a cell of `batch` interleaved stripes
  };
  const Case cases[] = {{&gal421, 64, 1}, {&gal422, 40, 1}, {&rs, 33, 1},
                        {&pyr, 48, 1},    {&gal422, 24, 5}};
  Rng rng(2024);
  for (const Case& k : cases) {
    const CodecEngine& e = k.code->engine();
    const size_t cell = k.chunk * k.batch;
    Buffer mirror;
    if (k.batch == 1) {
      mirror = random_buffer(e.num_chunks() * cell, rng);
    } else {
      std::vector<Buffer> files;
      std::vector<ConstByteSpan> spans;
      for (size_t i = 0; i < k.batch; ++i)
        files.push_back(random_buffer(e.num_chunks() * k.chunk, rng));
      for (const Buffer& f : files) spans.emplace_back(f);
      mirror = interleave_stripes(spans, k.chunk);
    }
    std::vector<Buffer> wrapped = e.encode(mirror), stripe_form = wrapped,
                        reference = wrapped;
    for (int round = 0; round < 12; ++round) {
      const size_t first = rng.next_below(e.num_chunks());
      const size_t count = 1 + rng.next_below(
                                   std::min<size_t>(4, e.num_chunks() - first));
      for (size_t c = first; c < first + count; ++c) {
        SCOPED_TRACE(k.code->name() + " batch " + std::to_string(k.batch) +
                     " round " + std::to_string(round) + " chunk " +
                     std::to_string(c));
        // Every third chunk rewrites its current bytes: a zero delta.
        Buffer fresh(mirror.begin() + static_cast<ptrdiff_t>(c * cell),
                     mirror.begin() + static_cast<ptrdiff_t>((c + 1) * cell));
        if (rng.next_below(3) != 0) fresh = random_buffer(cell, rng);
        std::copy(fresh.begin(), fresh.end(),
                  mirror.begin() + static_cast<ptrdiff_t>(c * cell));

        const std::vector<size_t> want =
            reference_update(e, reference, c, fresh);
        EXPECT_EQ(e.update_chunk(wrapped, c, fresh), want);

        const std::vector<StripeRef>& targets = e.update_stripes(c);
        ASSERT_EQ(targets.front(), e.chunk_positions()[c]);
        std::vector<Buffer> copies;
        for (const StripeRef& t : targets)
          copies.emplace_back(stripe_form[t.block].begin() +
                                  static_cast<ptrdiff_t>(t.pos * cell),
                              stripe_form[t.block].begin() +
                                  static_cast<ptrdiff_t>((t.pos + 1) * cell));
        std::vector<ByteSpan> spans(copies.begin(), copies.end());
        EXPECT_EQ(e.update_chunk(c, spans, fresh), !want.empty());
        std::vector<size_t> blocks_of;
        for (size_t i = 0; i < targets.size(); ++i) {
          std::copy(copies[i].begin(), copies[i].end(),
                    stripe_form[targets[i].block].begin() +
                        static_cast<ptrdiff_t>(targets[i].pos * cell));
          blocks_of.push_back(targets[i].block);
        }
        std::sort(blocks_of.begin(), blocks_of.end());
        blocks_of.erase(std::unique(blocks_of.begin(), blocks_of.end()),
                        blocks_of.end());
        if (!want.empty()) {
          EXPECT_EQ(blocks_of, want);
        }
      }
      const std::vector<Buffer> encoded = e.encode(mirror);
      ASSERT_EQ(reference, encoded) << k.code->name();
      ASSERT_EQ(wrapped, encoded) << k.code->name();
      ASSERT_EQ(stripe_form, encoded) << k.code->name();
    }
  }
}

TEST(UpdateStripesTest, StripeFormRejectsWrongStripeSets) {
  const GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  const size_t n = e.update_stripes(0).size();
  std::vector<Buffer> bufs(n, Buffer(16, 0));
  std::vector<ByteSpan> spans(bufs.begin(), bufs.end());
  const Buffer fresh(16, 1);
  EXPECT_THROW(e.update_chunk(0, std::span<const ByteSpan>(spans).first(n - 1),
                              fresh),
               CheckError);
  EXPECT_THROW(e.update_chunk(0, spans, Buffer(15, 1)), CheckError);
  EXPECT_THROW(e.update_stripes(e.num_chunks()), CheckError);
}

// ---------- read_range ----------

class ReadRangeTest : public ::testing::Test {
 protected:
  GalloperCode code{4, 2, 1};
  static constexpr size_t kChunk = 32;
  Rng rng{33};
  Buffer file = random_buffer(code.engine().num_chunks() * kChunk, rng);
  std::vector<Buffer> blocks = code.encode(file);

  Buffer expect_range(size_t off, size_t len) const {
    return Buffer(file.begin() + static_cast<ptrdiff_t>(off),
                  file.begin() + static_cast<ptrdiff_t>(off + len));
  }
};

TEST_F(ReadRangeTest, WholeFileEqualsFile) {
  const auto out = code.engine().read_range(
      view(blocks, all_ids(7)), 0, file.size());
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, file);
}

TEST_F(ReadRangeTest, UnalignedRangesFromHealthyBlocks) {
  for (auto [off, len] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {5, 60}, {31, 2}, {100, 333}, {file.size() - 7, 7}}) {
    const auto out =
        code.engine().read_range(view(blocks, all_ids(7)), off, len);
    ASSERT_TRUE(out.has_value()) << off << "+" << len;
    EXPECT_EQ(*out, expect_range(off, len));
  }
}

TEST_F(ReadRangeTest, DegradedRangeReconstructsMissingChunks) {
  // Remove block 0 (holds chunks 0..3): ranges crossing it still read.
  const std::vector<size_t> survivors{1, 2, 3, 4, 5, 6};
  const auto out = code.engine().read_range(view(blocks, survivors), 0,
                                            6 * kChunk);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, expect_range(0, 6 * kChunk));
}

TEST_F(ReadRangeTest, DegradedUnalignedSliver) {
  const std::vector<size_t> survivors{1, 2, 3, 4, 5, 6};
  const auto out =
      code.engine().read_range(view(blocks, survivors), kChunk + 3, 10);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, expect_range(kChunk + 3, 10));
}

TEST_F(ReadRangeTest, UnrecoverableRangeIsNullopt) {
  // Lose blocks 0, 1 and 6: chunks of group 0 become unrecoverable.
  const std::vector<size_t> survivors{2, 3, 4, 5};
  EXPECT_FALSE(code.engine()
                   .read_range(view(blocks, survivors), 0, kChunk)
                   .has_value());
  // But ranges entirely inside group 1's chunks still work.
  const auto group1 = code.engine().chunks_of_block(2)[0];  // a chunk id
  const auto out = code.engine().read_range(view(blocks, survivors),
                                            group1 * kChunk, kChunk);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, expect_range(group1 * kChunk, kChunk));
}

TEST_F(ReadRangeTest, ZeroLengthAndBoundsChecks) {
  const auto out = code.engine().read_range(view(blocks, all_ids(7)), 50, 0);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
  EXPECT_THROW(code.engine().read_range(view(blocks, all_ids(7)),
                                        file.size(), 1),
               CheckError);
}

TEST(ReadRangePyramid, WorksOnUnstripedCodes) {
  PyramidCode code(4, 2, 1);
  Rng rng(34);
  const Buffer file = random_buffer(4 * 128, rng);
  const auto blocks = code.encode(file);
  std::map<size_t, ConstByteSpan> survivors;
  for (size_t b = 1; b < 7; ++b) survivors.emplace(b, blocks[b]);
  const auto out = code.engine().read_range(survivors, 64, 256);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, Buffer(file.begin() + 64, file.begin() + 64 + 256));
}

}  // namespace
}  // namespace galloper::codes
