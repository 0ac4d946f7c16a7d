#include <gtest/gtest.h>

#include <algorithm>

#include "codes/pyramid.h"
#include "codes/reed_solomon.h"
#include "core/galloper.h"
#include "core/input_format.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::core {
namespace {

using galloper::Buffer;
using galloper::CheckError;
using galloper::Rational;
using galloper::Rng;
using galloper::random_buffer;

// Reassembles the file by copying every split's bytes out of its block —
// no decoding, pure byte movement.
Buffer reassemble(const InputFormat& fmt, const std::vector<Buffer>& blocks) {
  Buffer file(fmt.total_original_bytes(), 0);
  for (const auto& s : fmt.splits())
    std::copy_n(blocks[s.block].data() + s.block_offset, s.length,
                file.data() + s.file_offset);
  return file;
}

TEST(InputFormat, GalloperSplitsCoverWholeFileOnce) {
  GalloperCode code(4, 2, 1);
  const size_t block_bytes = code.n_stripes() * 64;
  InputFormat fmt(code, block_bytes);
  // One split per block for a homogeneous Galloper code.
  EXPECT_EQ(fmt.splits().size(), 7u);
  std::vector<bool> covered(fmt.total_original_bytes(), false);
  for (const auto& s : fmt.splits()) {
    EXPECT_EQ(s.block_offset, 0u) << "data rotated to the top";
    for (size_t i = 0; i < s.length; ++i) {
      ASSERT_FALSE(covered[s.file_offset + i]) << "double coverage";
      covered[s.file_offset + i] = true;
    }
  }
  for (bool c : covered) EXPECT_TRUE(c);
  EXPECT_EQ(fmt.total_original_bytes(), 4 * block_bytes);
}

TEST(InputFormat, GatherReassemblesFileWithoutDecoding) {
  GalloperCode code(4, 2, 1);
  Rng rng(1);
  const size_t chunk = 32;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const auto blocks = code.encode(file);
  InputFormat fmt(code, code.n_stripes() * chunk);
  EXPECT_EQ(reassemble(fmt, blocks), file);
}

TEST(InputFormat, GatherWorksForHeterogeneousWeights) {
  GalloperCode code(4, 2, 1,
                    {Rational(1, 2), Rational(1, 2), Rational(3, 4),
                     Rational(5, 8), Rational(1, 2), Rational(5, 8),
                     Rational(1, 2)});
  Rng rng(2);
  const size_t chunk = 16;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const auto blocks = code.encode(file);
  InputFormat fmt(code, code.n_stripes() * chunk);
  EXPECT_EQ(reassemble(fmt, blocks), file);
  // Per-block original bytes proportional to weights.
  for (size_t b = 0; b < 7; ++b) {
    const Rational expect = code.weights()[b] *
                            Rational(static_cast<int64_t>(code.n_stripes()));
    EXPECT_EQ(fmt.original_bytes_in_block(b),
              static_cast<size_t>(expect.num()) * chunk);
  }
}

TEST(InputFormat, PyramidExposesOnlyDataBlocks) {
  codes::PyramidCode code(4, 2, 1);
  InputFormat fmt(code, 128);
  EXPECT_EQ(fmt.splits().size(), 4u);
  for (const auto& s : fmt.splits()) {
    EXPECT_LT(s.block, 4u);
    EXPECT_EQ(s.length, 128u);
  }
}

TEST(InputFormat, ReedSolomonGatherEqualsOriginal) {
  codes::ReedSolomonCode code(4, 2);
  Rng rng(3);
  const Buffer file = random_buffer(4 * 100, rng);
  const auto blocks = code.encode(file);
  InputFormat fmt(code, 100);
  EXPECT_EQ(reassemble(fmt, blocks), file);
}

TEST(InputFormat, ZeroWeightBlockHasNoSplit) {
  GalloperCode code(4, 2, 1,
                    {Rational(1), Rational(1, 3), Rational(1), Rational(1, 3),
                     Rational(2, 3), Rational(2, 3), Rational(0)});
  InputFormat fmt(code, code.n_stripes() * 8);
  for (const auto& s : fmt.splits()) EXPECT_NE(s.block, 6u);
  EXPECT_EQ(fmt.original_bytes_in_block(6), 0u);
}

TEST(InputFormat, RejectsIndivisibleBlockSize) {
  GalloperCode code(4, 2, 1);  // N = 7
  EXPECT_THROW(InputFormat(code, 100), CheckError);
}

}  // namespace
}  // namespace galloper::core
