// Adversarial, differential ranged reads against an in-memory mirror.
//
// Seeded random ranges — biased onto segment, chunk and block boundaries,
// lengths from 1 byte to the whole file — over block sizes that are not
// multiples of the segment size, with the block cache on and off, 0/1/2
// lost blocks, and one flipped byte inside or outside the read's plan
// sources, read through each entry point of the read core: direct
// FileStore::read_range, the pipelined StripedReader, and a StripedReader
// with one chunk per batch, whose multi-batch windows replan mid-stream.
// Reads verify only the segments they fetch, so:
//  - a flip INSIDE the fetched sources: the bytes are exact, CRC failures
//    go up by exactly one, and the block self-heals (available again,
//    scrub clean). Source segments the cache already holds are served
//    from it, verified when inserted; when it holds all of them the read
//    fetches nothing and the flip is left to scrub;
//  - a flip OUTSIDE the sources: the read is clean, the block is untouched
//    (still available, same generation), and the next scrub() reports it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "client/cache.h"
#include "client/striped.h"
#include "core/galloper.h"
#include "store/file_store.h"
#include "store/segments.h"
#include "util/rng.h"

namespace galloper::store {
namespace {

using galloper::Buffer;
using galloper::Rng;
using galloper::random_buffer;

// The reader under test.
enum class Reader { kDirect, kStriped, kStripedBatch1 };

// chunk bytes × cache on × lost blocks × reader. The chunk sizes give
// blocks smaller than one segment, blocks of a few segments with chunk
// boundaries off the segment grid, and chunks longer than a segment.
using Param = std::tuple<size_t, bool, size_t, Reader>;

class RangeReadTest : public ::testing::TestWithParam<Param> {};

enum class Flip { kNone, kInside, kOutside };

TEST_P(RangeReadTest, MatchesMirrorAndFindsExactlyTheFlipsItReads) {
  const auto [chunk, cache_on, lost, which] = GetParam();
  core::GalloperCode code(4, 2, 2);
  const codes::CodecEngine& eng = code.engine();
  client::BlockCache cache(8 << 20, /*shards=*/2);  // outlives the store
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks() + 2, sim::ServerSpec{});
  FileStore fs(cluster, code);
  fs.set_block_cache(cache_on ? &cache : nullptr);
  Rng rng(chunk * 7 + lost * 3 + (cache_on ? 1 : 0));
  const Buffer file = random_buffer(eng.num_chunks() * chunk, rng);
  const FileId id = fs.write(file);
  const size_t block_bytes = fs.block_bytes(id);
  ASSERT_NE(block_bytes % kSegmentBytes, 0u);
  const size_t nseg = segment_count(block_bytes);

  // Lost blocks stay down (their servers dead) for the whole run.
  std::vector<size_t> down;
  while (down.size() < lost) {
    const size_t b = rng.next_below(code.num_blocks());
    if (std::find(down.begin(), down.end(), b) != down.end()) continue;
    down.push_back(b);
    fs.fail_server(fs.server_of(b));
  }

  // Boundary marks in file coordinates: every chunk boundary, and every
  // segment boundary of a data stripe mapped back to the file offset it
  // stores.
  std::vector<size_t> marks;
  for (size_t c = 0; c <= eng.num_chunks(); ++c) marks.push_back(c * chunk);
  for (size_t c = 0; c < eng.num_chunks(); ++c) {
    const size_t lo = eng.chunk_positions()[c].pos * chunk;
    for (size_t g = lo / kSegmentBytes + 1; g * kSegmentBytes < lo + chunk;
         ++g)
      marks.push_back(c * chunk + g * kSegmentBytes - lo);
  }
  const auto pick_range = [&]() -> std::pair<size_t, size_t> {
    if (rng.next_below(16) == 0) return {0, file.size()};
    size_t off = rng.next_below(file.size());
    if (rng.next_below(3) != 0) {
      const size_t mark = marks[rng.next_below(marks.size())];
      off = std::min(file.size() - 1, mark - std::min(mark, rng.next_below(8)));
    }
    const size_t room = file.size() - off;
    switch (rng.next_below(3)) {
      case 0:
        return {off, 1 + rng.next_below(std::min<size_t>(room, 16))};
      case 1:
        return {off, 1 + rng.next_below(std::min(room, 2 * chunk))};
      default:
        return {off, 1 + rng.next_below(room)};
    }
  };
  const auto expect_mirror = [&](const std::optional<Buffer>& got,
                                 size_t off, size_t len, const char* what) {
    ASSERT_TRUE(got.has_value()) << what << " [" << off << ", +" << len << ")";
    ASSERT_EQ(got->size(), len);
    ASSERT_TRUE(std::equal(got->begin(), got->end(), file.begin() + off))
        << what << " [" << off << ", +" << len << ")";
  };

  client::StripedReader reader(fs);
  client::ReaderOptions one_chunk;
  one_chunk.batch_chunks = 1;
  client::StripedReader batch1(fs, one_chunk);
  const auto read = [&](size_t off, size_t len) {
    switch (which) {
      case Reader::kDirect:
        return fs.read_range(id, off, len);
      case Reader::kStriped:
        return reader.read_range(id, off, len);
      default:
        return batch1.read_range(id, off, len);
    }
  };
  for (size_t trial = 0; trial < 30; ++trial) {
    // A pipelined read first: it fills the cache (when on) with verified
    // segments that later reads may be served from.
    {
      const auto [off, len] = pick_range();
      expect_mirror(reader.read_range(id, off, len), off, len, "pipelined");
    }

    const auto [off, len] = pick_range();
    std::vector<size_t> available;
    for (size_t b = 0; b < code.num_blocks(); ++b)
      if (fs.block_available(id, b)) available.push_back(b);
    const auto plan = eng.plan_decode_fast(available);
    const auto need = plan_source_segments(*plan, chunk, off, off + len);
    const auto needed = [&](size_t b, size_t g) {
      for (size_t s = 0; s < need.size(); ++s)
        if (plan->source_blocks()[s] == b)
          return std::binary_search(need[s].begin(), need[s].end(), g);
      return false;
    };
    // Per plan slot, the source segments the read fetches: those the
    // cache does not hold. With none left the read is served from the
    // cache and verifies nothing.
    std::vector<std::vector<size_t>> fetched(need.size());
    bool all_cached = true;
    for (size_t s = 0; s < need.size(); ++s) {
      const size_t b = plan->source_blocks()[s];
      for (size_t g : need[s])
        if (!cache_on || cache.get(fs.cache_uid(), id, b, g,
                                   fs.block_generation(id, b)) == nullptr)
          fetched[s].push_back(g);
      all_cached &= fetched[s].empty();
    }

    Flip flip = static_cast<Flip>(trial % 3);
    size_t fb = 0, fg = 0;
    if (flip == Flip::kInside) {
      const auto& inside = all_cached ? need : fetched;
      std::vector<size_t> slots;
      for (size_t s = 0; s < inside.size(); ++s)
        if (!inside[s].empty()) slots.push_back(s);
      const size_t s = slots[rng.next_below(slots.size())];
      fb = plan->source_blocks()[s];
      fg = inside[s][rng.next_below(inside[s].size())];
    } else if (flip == Flip::kOutside) {
      std::vector<std::pair<size_t, size_t>> spots;
      for (size_t b : available)
        for (size_t g = 0; g < nseg; ++g)
          if (!needed(b, g)) spots.emplace_back(b, g);
      if (spots.empty()) {
        flip = Flip::kNone;
      } else {
        std::tie(fb, fg) = spots[rng.next_below(spots.size())];
      }
    }
    const uint64_t gen = fs.block_generation(id, fb);
    if (flip != Flip::kNone) {
      fs.corrupt_block(id, fb,
                       fg * kSegmentBytes +
                           rng.next_below(segment_size(block_bytes, fg)));
    }

    const FileStore::ReadStats before = fs.read_stats();
    expect_mirror(read(off, len), off, len, "read under test");
    const FileStore::ReadStats after = fs.read_stats();
    if (flip == Flip::kInside && !all_cached) {
      EXPECT_EQ(after.crc_failures, before.crc_failures + 1);
      EXPECT_EQ(after.auto_repairs, before.auto_repairs + 1);
      EXPECT_TRUE(fs.block_available(id, fb)) << "not self-healed";
      EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
      continue;
    }
    EXPECT_EQ(after.crc_failures, before.crc_failures);
    if (flip == Flip::kNone) continue;
    // Left alone by the read; scrub reports it, and heals it.
    EXPECT_TRUE(fs.block_available(id, fb));
    EXPECT_EQ(fs.block_generation(id, fb), gen);
    const auto found = fs.scrub(/*quarantine=*/false);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].block, fb);
    EXPECT_EQ(fs.scrub_and_repair().repaired, 1u);
  }

  for (size_t b : down) fs.revive_server(fs.server_of(b));
  for (size_t b : down) ASSERT_TRUE(fs.repair(id, b).has_value());
  expect_mirror(fs.read_range(id, 0, file.size()), 0, file.size(), "final");
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// Direct reads keep the suffix-free names.
std::string reader_suffix(Reader r) {
  switch (r) {
    case Reader::kDirect:
      return "";
    case Reader::kStriped:
      return "_striped";
    default:
      return "_striped_batch1";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RangeReadTest,
    ::testing::Combine(::testing::Values(size_t{1000}, size_t{50000},
                                         size_t{70001}),
                       ::testing::Bool(),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2}),
                       ::testing::Values(Reader::kDirect, Reader::kStriped,
                                         Reader::kStripedBatch1)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "chunk" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_cache" : "_nocache") + "_lost" +
             std::to_string(std::get<2>(info.param)) +
             reader_suffix(std::get<3>(info.param));
    });

}  // namespace
}  // namespace galloper::store
