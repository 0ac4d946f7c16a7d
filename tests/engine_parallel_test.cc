// The engine's bit-identity matrix: every CodecEngine data path × threads
// {1, 2, 3, 8} × chunk {1, 7, 64, 65, 1024, 10000} × batch {1, 7, 64}.
// A batch of B stripes interleaved position-major (util/bytes.h
// interleave_stripes) is one codeword with chunk B·c, so each op runs ONCE on
// the interleaved buffers with `threads` runners and must equal B serial
// per-stripe calls, interleaved the same way. The chunk sizes include
// sub-cache-line and non-64-multiple ones that exercise slicing tails.
// Runs under each GALLOPER_GF_ISA backend and the TSan 2-worker pool via the
// ctest matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "codes/engine.h"
#include "core/galloper.h"
#include "util/bytes.h"
#include "util/check.h"

namespace galloper::codes {
namespace {

constexpr size_t kBatches[] = {1, 7, 64};

Buffer random_bytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Buffer out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

Buffer interleave(const std::vector<Buffer>& parts, size_t cell) {
  return interleave_stripes(
      std::vector<ConstByteSpan>(parts.begin(), parts.end()), cell);
}

std::map<size_t, ConstByteSpan> view_of(const std::vector<Buffer>& blocks,
                                        const std::vector<size_t>& ids) {
  std::map<size_t, ConstByteSpan> view;
  for (size_t b : ids) view.emplace(b, blocks[b]);
  return view;
}

std::vector<size_t> all_but(size_t n, std::vector<size_t> lost) {
  std::vector<size_t> ids;
  for (size_t b = 0; b < n; ++b)
    if (std::find(lost.begin(), lost.end(), b) == lost.end()) ids.push_back(b);
  return ids;
}

class EngineParallelTest
    : public testing::TestWithParam<std::tuple<size_t, size_t>> {
 protected:
  size_t threads() const { return std::get<0>(GetParam()); }
  size_t chunk() const { return std::get<1>(GetParam()); }

  // B random per-stripe files, their serial per-stripe encodes, and both
  // interleaved: `file`/`blocks` are the batched codeword with chunk B·c.
  struct Batch {
    std::vector<Buffer> files;
    std::vector<std::vector<Buffer>> stripe_blocks;
    Buffer file;
    std::vector<Buffer> blocks;
  };

  Batch make_batch(size_t batch, uint32_t seed) const {
    Batch b;
    for (size_t i = 0; i < batch; ++i) {
      b.files.push_back(random_bytes(e_.num_chunks() * chunk(), seed + i));
      b.stripe_blocks.push_back(e_.encode(b.files.back()));
    }
    b.file = interleave(b.files, chunk());
    b.blocks = interleave_blocks(b.stripe_blocks);
    return b;
  }

  std::vector<Buffer> interleave_blocks(
      const std::vector<std::vector<Buffer>>& stripes) const {
    std::vector<Buffer> out;
    for (size_t blk = 0; blk < e_.num_blocks(); ++blk) {
      std::vector<Buffer> parts;
      for (const auto& blocks : stripes) parts.push_back(blocks[blk]);
      out.push_back(interleave(parts, chunk()));
    }
    return out;
  }

  // B serial per-stripe runs of `op` over the stripes' `ids` views,
  // interleaved with cell = chunk.
  template <typename Op>
  Buffer serial_interleaved(const Batch& b, const std::vector<size_t>& ids,
                            Op op) const {
    std::vector<Buffer> parts;
    for (const auto& blocks : b.stripe_blocks) {
      auto out = op(view_of(blocks, ids));
      EXPECT_TRUE(out.has_value());
      parts.push_back(out ? std::move(*out) : Buffer{});
    }
    return interleave(parts, chunk());
  }

  core::GalloperCode code_{4, 2, 1};
  const CodecEngine& e_{code_.engine()};
};

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineParallelTest,
    testing::Combine(testing::Values(1, 2, 3, 8),
                     testing::Values(1, 7, 64, 65, 1024, 10000)));

// encode, decode, decode_fast, repair_block and repair_block_with_plan.
TEST_P(EngineParallelTest, AllPathsMatchSerial) {
  for (size_t batch : kBatches) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    const Batch b = make_batch(batch, 42);

    const auto blocks = e_.encode(b.file, threads());
    ASSERT_EQ(blocks.size(), b.blocks.size());
    for (size_t blk = 0; blk < blocks.size(); ++blk)
      EXPECT_EQ(blocks[blk], b.blocks[blk]) << "block " << blk;

    // decode / decode_fast from a degraded view (blocks 0 and 2 lost).
    const auto survivors = all_but(e_.num_blocks(), {0, 2});
    const auto view = view_of(b.blocks, survivors);
    const auto dec = e_.decode(view, threads());
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, serial_interleaved(b, survivors, [&](const auto& v) {
                return e_.decode(v);
              }));
    EXPECT_EQ(*dec, b.file);
    const auto fast = e_.decode_fast(view, threads());
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(*fast, serial_interleaved(b, survivors, [&](const auto& v) {
                return e_.decode_fast(v);
              }));
    EXPECT_EQ(*fast, b.file);

    // repair of block 0 from its preferred helper set, planned per call and
    // through a pinned plan.
    const auto helpers = code_.repair_helpers(0);
    const auto hview = view_of(b.blocks, helpers);
    const Buffer expect = serial_interleaved(b, helpers, [&](const auto& v) {
      return e_.repair_block(0, v);
    });
    EXPECT_EQ(expect, b.blocks[0]);
    const auto rep = e_.repair_block(0, hview, threads());
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(*rep, expect);
    const auto pinned = e_.repair_block_with_plan(*e_.plan_repair(0, helpers),
                                                  hview, threads());
    ASSERT_TRUE(pinned.has_value());
    EXPECT_EQ(*pinned, expect);
  }
}

TEST_P(EngineParallelTest, ReadRangeMatchesSerial) {
  for (size_t batch : kBatches) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    const Batch b = make_batch(batch, 7);
    const size_t cell = batch * chunk();
    const size_t file_bytes = b.file.size();
    const size_t stripe_bytes = file_bytes / batch;

    // Block 1 lost → some chunks rebuilt. The serial reference reads each
    // stripe whole; the threaded read slices the interleaved layout.
    const auto survivors = all_but(e_.num_blocks(), {1});
    const auto view = view_of(b.blocks, survivors);
    const Buffer whole = serial_interleaved(b, survivors, [&](const auto& v) {
      return e_.read_range(v, 0, stripe_bytes);
    });
    EXPECT_EQ(whole, b.file);

    // Ranges straddling cell and slice boundaries, plus whole-file.
    const std::pair<size_t, size_t> ranges[] = {
        {0, file_bytes},
        {0, 1},
        {file_bytes - 1, 1},
        {file_bytes / 3, file_bytes / 2 - file_bytes / 3 + 1},
        {cell / 2, std::min(file_bytes - cell / 2, cell + 1)},
    };
    for (const auto& [off, len] : ranges) {
      SCOPED_TRACE(testing::Message()
                   << "range [" << off << ", " << off + len << ")");
      const auto got = e_.read_range(view, off, len, threads());
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, Buffer(whole.begin() + off, whole.begin() + off + len));
    }
  }
}

TEST_P(EngineParallelTest, UpdateChunkMatchesSerial) {
  for (size_t batch : kBatches) {
    SCOPED_TRACE(testing::Message() << "batch " << batch);
    Batch b = make_batch(batch, 99);
    const size_t target = e_.num_chunks() / 2;

    // Per stripe: a fresh chunk, applied serially; batched: the same chunks
    // interleaved into one cell, applied once with `threads` runners.
    std::vector<Buffer> fresh;
    std::vector<size_t> expect_touched;
    for (size_t i = 0; i < batch; ++i) {
      fresh.push_back(random_bytes(chunk(), 1000 + chunk() + i));
      const auto t = e_.update_chunk(b.stripe_blocks[i], target, fresh[i]);
      expect_touched.insert(expect_touched.end(), t.begin(), t.end());
    }
    std::sort(expect_touched.begin(), expect_touched.end());
    expect_touched.erase(
        std::unique(expect_touched.begin(), expect_touched.end()),
        expect_touched.end());

    const Buffer patch = interleave(fresh, chunk());
    EXPECT_EQ(e_.update_chunk(b.blocks, target, patch, threads()),
              expect_touched);
    const auto expect = interleave_blocks(b.stripe_blocks);
    for (size_t blk = 0; blk < b.blocks.size(); ++blk)
      EXPECT_EQ(b.blocks[blk], expect[blk]) << "block " << blk;

    // No-op update: identical data ⇒ empty touched set.
    EXPECT_TRUE(e_.update_chunk(b.blocks, target, patch, threads()).empty());
  }
}

TEST(EngineParallelErrors, ZeroThreadsRejectedEverywhere) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  const Buffer file = random_bytes(e.num_chunks() * 64, 5);
  auto blocks = e.encode(file);
  const auto view = view_of(blocks, all_but(e.num_blocks(), {}));
  const auto helpers = code.repair_helpers(0);
  const auto hview = view_of(blocks, helpers);

  EXPECT_THROW(e.encode(file, 0), CheckError);
  EXPECT_THROW(e.decode(view, 0), CheckError);
  EXPECT_THROW(e.decode_fast(view, 0), CheckError);
  EXPECT_THROW(e.repair_block(0, hview, 0), CheckError);
  EXPECT_THROW(e.repair_block_with_plan(*e.plan_repair(0, helpers), hview, 0),
               CheckError);
  EXPECT_THROW(e.read_range(view, 0, 8, 0), CheckError);
  EXPECT_THROW(e.update_chunk(blocks, 0, Buffer(64), 0), CheckError);
}

TEST(EngineParallelErrors, KeepsSerialSizeChecks) {
  const core::GalloperCode code(4, 2, 1);
  const CodecEngine& e = code.engine();
  // Non-multiple file size must still throw regardless of thread count.
  EXPECT_THROW(e.encode(Buffer(3), 2), CheckError);
  EXPECT_THROW(e.encode(Buffer(3), 8), CheckError);
}

}  // namespace
}  // namespace galloper::codes
