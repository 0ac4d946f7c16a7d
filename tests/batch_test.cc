// Batched (multi-stripe) execution: one engine call on B stripes in the
// position-major interleaved layout must be bit-identical to B per-stripe
// calls interleaved the same way, for batch sizes {1, 2, 7, 64} and
// deliberately small chunks (where per-call overhead dominates and batching
// matters most). Also covers the interleave helpers, the executor dispatch
// counters, and threaded execution (this suite runs in the TSan 2-worker
// matrix). engine_parallel_test's matrix checks every op over the full
// threads x chunk x batch grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "codes/engine.h"
#include "codes/plan.h"
#include "core/galloper.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::codes {
namespace {

using galloper::Buffer;
using galloper::CheckError;
using galloper::ConstByteSpan;
using galloper::Rng;
using galloper::deinterleave_stripes;
using galloper::interleave_stripes;
using galloper::random_buffer;

constexpr size_t kBatches[] = {1, 2, 7, 64};

std::vector<ConstByteSpan> spans_of(const std::vector<Buffer>& bufs) {
  return std::vector<ConstByteSpan>(bufs.begin(), bufs.end());
}

// `batch` independent random files plus their position-major interleaving.
struct BatchInput {
  std::vector<Buffer> files;  // files[i]: num_chunks · chunk bytes
  Buffer batched;             // num_chunks cells of batch · chunk bytes
};

BatchInput make_input(const CodecEngine& e, size_t batch, size_t chunk,
                      uint64_t seed) {
  BatchInput in;
  Rng rng(seed);
  for (size_t i = 0; i < batch; ++i)
    in.files.push_back(random_buffer(e.num_chunks() * chunk, rng));
  in.batched = interleave_stripes(spans_of(in.files), chunk);
  return in;
}

// Per-stripe encodes interleaved into the expected batched blocks.
std::vector<Buffer> expected_blocks(const CodecEngine& e,
                                    const BatchInput& in, size_t chunk) {
  std::vector<std::vector<Buffer>> per_stripe;
  for (const Buffer& f : in.files) per_stripe.push_back(e.encode(f));
  std::vector<Buffer> out;
  for (size_t b = 0; b < e.num_blocks(); ++b) {
    std::vector<ConstByteSpan> pieces;
    for (const auto& blocks : per_stripe) pieces.emplace_back(blocks[b]);
    out.push_back(interleave_stripes(pieces, chunk));
  }
  return out;
}

std::map<size_t, ConstByteSpan> view_of(const std::vector<Buffer>& blocks,
                                        const std::vector<size_t>& ids) {
  std::map<size_t, ConstByteSpan> view;
  for (size_t b : ids) view.emplace(b, blocks[b]);
  return view;
}

// ---- interleave helpers -------------------------------------------------

TEST(Interleave, RoundTripsAndLaysOutPositionMajor) {
  const Buffer a = {1, 2, 3, 4};
  const Buffer b = {5, 6, 7, 8};
  const Buffer batched = interleave_stripes({a, b}, 2);
  // Cell 0 = [a's cell 0][b's cell 0], cell 1 likewise.
  EXPECT_EQ(batched, (Buffer{1, 2, 5, 6, 3, 4, 7, 8}));
  const auto back = deinterleave_stripes(batched, 2, 2);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);
}

TEST(Interleave, RejectsBadGeometry) {
  const Buffer a = {1, 2, 3};
  const Buffer b = {4, 5, 6, 7};
  EXPECT_THROW(interleave_stripes({a, b}, 1), CheckError);   // unequal sizes
  EXPECT_THROW(interleave_stripes({a}, 2), CheckError);      // partial cell
  EXPECT_THROW(deinterleave_stripes(a, 2, 1), CheckError);   // 3 % 2 != 0
}

// ---- batch == per-stripe bit-identity, all data paths -------------------

class BatchTest : public ::testing::Test {
 protected:
  core::GalloperCode code_{4, 2, 1};
  const CodecEngine& e_{code_.engine()};
};

TEST_F(BatchTest, EncodeBatchMatchesPerStripe) {
  for (size_t batch : kBatches) {
    for (size_t chunk : {size_t{64}, size_t{1024}}) {
      const BatchInput in = make_input(e_, batch, chunk, 10 + batch);
      const auto expect = expected_blocks(e_, in, chunk);
      const auto got = e_.encode(in.batched);
      ASSERT_EQ(got.size(), expect.size());
      for (size_t b = 0; b < got.size(); ++b)
        EXPECT_EQ(got[b], expect[b]) << "batch=" << batch << " block=" << b;
    }
  }
}

TEST_F(BatchTest, DecodeBatchRecoversFromDegradedSet) {
  for (size_t batch : kBatches) {
    const size_t chunk = 64;
    const BatchInput in = make_input(e_, batch, chunk, 20 + batch);
    const auto blocks = expected_blocks(e_, in, chunk);
    // Drop one block (any single loss is decodable for g = 1).
    std::vector<size_t> ids;
    for (size_t b = 0; b < e_.num_blocks(); ++b)
      if (b != 3) ids.push_back(b);
    ASSERT_TRUE(code_.decodable(ids));
    const auto view = view_of(blocks, ids);

    const auto decoded = e_.decode(view);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, in.batched) << "batch=" << batch;

    const auto fast = e_.decode_fast(view);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(*fast, in.batched) << "batch=" << batch;
  }
}

TEST_F(BatchTest, RepairBlockBatchMatchesPerStripeBlock) {
  for (size_t batch : kBatches) {
    const size_t chunk = 64;
    const BatchInput in = make_input(e_, batch, chunk, 30 + batch);
    const auto blocks = expected_blocks(e_, in, chunk);
    for (size_t failed : {size_t{0}, size_t{5}}) {
      const auto helpers = code_.repair_helpers(failed);
      const auto rebuilt = e_.repair_block(failed, view_of(blocks, helpers));
      ASSERT_TRUE(rebuilt.has_value())
          << "batch=" << batch << " failed=" << failed;
      EXPECT_EQ(*rebuilt, blocks[failed]);
    }
  }
}

// The batched blocks form a valid codeword with chunk' = batch · chunk, so
// read_range and update_chunk address cells of the batched layout.
TEST_F(BatchTest, ReadRangeAndUpdateWorkOnBatchedLayout) {
  const size_t batch = 7, chunk = 64, cell = batch * chunk;
  const BatchInput in = make_input(e_, batch, chunk, 40);
  auto blocks = expected_blocks(e_, in, chunk);
  std::vector<size_t> all(e_.num_blocks());
  for (size_t b = 0; b < all.size(); ++b) all[b] = b;

  const auto range = e_.read_range(view_of(blocks, all), cell, 3 * cell);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range, Buffer(in.batched.begin() + cell,
                           in.batched.begin() + 4 * cell));

  // Update cell 2 of the batched layout == updating chunk 2 of every
  // stripe; re-encode of the patched batched file must agree.
  Rng rng(41);
  const Buffer patch = random_buffer(cell, rng);
  e_.update_chunk(blocks, 2, patch);
  Buffer patched = in.batched;
  std::copy(patch.begin(), patch.end(), patched.begin() + 2 * cell);
  const auto expect = e_.encode(patched);
  for (size_t b = 0; b < blocks.size(); ++b) EXPECT_EQ(blocks[b], expect[b]);
}

TEST_F(BatchTest, ThreadedBatchesAreBitIdentical) {
  const size_t batch = 64, chunk = 1024;
  const BatchInput in = make_input(e_, batch, chunk, 50);
  const auto serial = e_.encode(in.batched, /*threads=*/1);
  const auto threaded = e_.encode(in.batched, /*threads=*/3);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t b = 0; b < serial.size(); ++b)
    EXPECT_EQ(serial[b], threaded[b]);

  std::vector<size_t> ids{0, 1, 2, 4, 5, 6};
  const auto view = view_of(serial, ids);
  const auto dec1 = e_.decode_fast(view, 1);
  const auto dec3 = e_.decode_fast(view, 3);
  ASSERT_TRUE(dec1.has_value() && dec3.has_value());
  EXPECT_EQ(*dec1, *dec3);
  EXPECT_EQ(*dec1, in.batched);
}

TEST_F(BatchTest, ExecutorCountsDispatches) {
  const BatchInput in = make_input(e_, 4, 256, 70);
  const BatchExecStats before = batch_exec_stats();
  (void)e_.encode(in.batched);
  const BatchExecStats after = batch_exec_stats();
  EXPECT_GT(after.calls, before.calls);
  EXPECT_GT(after.rows, before.rows);
  EXPECT_GE(after.bytes, before.bytes + 4 * 256);  // ≥ one row's cell
}

}  // namespace
}  // namespace galloper::codes
