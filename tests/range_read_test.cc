// Adversarial, differential ranged reads against an in-memory mirror.
//
// Seeded random ranges — biased onto segment, chunk and block boundaries,
// lengths from 1 byte to the whole file — over block sizes that are not
// multiples of the segment size, with the block cache on and off, 0/1/2
// lost blocks, and one flipped byte inside or outside the read's plan
// sources, read through each entry point of the read core: direct
// FileStore::read_range, the pipelined StripedReader, a StripedReader
// with one chunk per batch, whose multi-batch windows replan mid-stream,
// and the map-task split read (read_original_split), whose ranges are
// clipped to one original-data run and whose outside flips prefer another
// segment of the split's own block.
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
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "client/cache.h"
#include "client/striped.h"
#include "core/galloper.h"
#include "core/input_format.h"
#include "mr/framework.h"
#include "mr/store_runner.h"
#include "store/file_store.h"
#include "store/segments.h"
#include "util/rng.h"

namespace galloper::store {
namespace {

using galloper::Buffer;
using galloper::ConstByteSpan;
using galloper::Rng;
using galloper::random_buffer;

// The reader under test.
enum class Reader { kDirect, kStriped, kStripedBatch1, kSplit };

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

  // The original-data run holding file byte `off`.
  const core::InputFormat fmt(code, block_bytes);
  const auto run_of = [&](size_t off) {
    return *std::find_if(fmt.splits().begin(), fmt.splits().end(),
                         [&](const core::InputFormat::Split& r) {
                           return r.file_offset <= off &&
                                  off < r.file_offset + r.length;
                         });
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
      case Reader::kStripedBatch1:
        return batch1.read_range(id, off, len);
      default: {
        const core::InputFormat::Split r = run_of(off);
        return fs.read_original_split(id, r.block,
                                      r.block_offset + (off - r.file_offset),
                                      len);
      }
    }
  };
  for (size_t trial = 0; trial < 30; ++trial) {
    // A pipelined read first: it fills the cache (when on) with verified
    // segments that later reads may be served from.
    {
      const auto [off, len] = pick_range();
      expect_mirror(reader.read_range(id, off, len), off, len, "pipelined");
    }

    auto [off, len] = pick_range();
    if (which == Reader::kSplit) {
      const core::InputFormat::Split r = run_of(off);
      len = std::min(len, r.file_offset + r.length - off);
    }
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
      if (which == Reader::kSplit) {
        const size_t own = run_of(off).block;
        if (std::any_of(spots.begin(), spots.end(),
                        [&](const auto& spot) { return spot.first == own; }))
          std::erase_if(spots,
                        [&](const auto& spot) { return spot.first != own; });
      }
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
    case Reader::kStripedBatch1:
      return "_striped_batch1";
    default:
      return "_split";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RangeReadTest,
    ::testing::Combine(::testing::Values(size_t{1000}, size_t{50000},
                                         size_t{70001}),
                       ::testing::Bool(),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2}),
                       ::testing::Values(Reader::kDirect, Reader::kStriped,
                                         Reader::kStripedBatch1,
                                         Reader::kSplit)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "chunk" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_cache" : "_nocache") + "_lost" +
             std::to_string(std::get<2>(info.param)) +
             reader_suffix(std::get<3>(info.param));
    });

// Seeded random corrupt_block / fail_server / revive_server / repair steps
// interleaved with reads of every split of fmt.splits(cap): a pass of
// direct read_original_split calls, or a one-thread StoreRunner job (which
// reads the splits in order). Every split must come back as the file's
// bytes, and the job's degraded_splits must equal the count predicted from
// block availability: a split is degraded when its block is unavailable,
// or when its read meets the corrupt segment, which it does exactly when
// its decode plan reads that segment (a corrupt segment is never cached —
// only verified copies are). That read quarantines the block, and its
// self-heal restores it before the next split. The steps keep at most one
// corrupt block and at most two blocks unavailable or corrupt, so every
// (4,2,2) read and repair succeeds.
class SplitReadDifferential : public ::testing::TestWithParam<bool> {};

// Emits each split's bytes as a key, so a job's output is the sorted list
// of the bytes its map tasks read.
class EchoMapper : public mr::Mapper {
 public:
  void map(ConstByteSpan input, mr::Emitter& out) const override {
    out.emit({reinterpret_cast<const char*>(input.data()), input.size()}, "");
  }
};

class KeepReducer : public mr::Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              std::vector<mr::KeyValue>& out) const override {
    for (const std::string& v : values) out.push_back({key, v});
  }
};

TEST_P(SplitReadDifferential, BytesAndDegradedSplitsMatchTheModel) {
  const bool cache_on = GetParam();
  core::GalloperCode code(4, 2, 2);
  const codes::CodecEngine& eng = code.engine();
  const size_t n = code.num_blocks();
  // Smaller than the file, so passes evict and flips find uncached
  // segments to land in.
  client::BlockCache cache(384 << 10, /*shards=*/2);  // outlives the store
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, n, sim::ServerSpec{});
  FileStore fs(cluster, code);
  fs.set_block_cache(cache_on ? &cache : nullptr);
  Rng rng(cache_on ? 71 : 72);
  // Blocks of several segments with chunk boundaries off the segment grid;
  // an odd split cap makes splits cross both.
  const size_t chunk = 70001;
  const Buffer file = random_buffer(eng.num_chunks() * chunk, rng);
  const FileId id = fs.write(file);
  const size_t block_bytes = fs.block_bytes(id);
  const std::vector<core::InputFormat::Split> splits =
      core::InputFormat(code, block_bytes).splits(chunk / 2 + 7);

  std::vector<mr::KeyValue> expected;
  for (const auto& s : splits)
    expected.push_back({std::string(file.begin() + s.file_offset,
                                    file.begin() + s.file_offset + s.length),
                        ""});
  std::sort(expected.begin(), expected.end());
  EchoMapper mapper;
  KeepReducer reducer;
  mr::StoreRunnerOptions opt;
  opt.threads = 1;
  opt.max_split_bytes = chunk / 2 + 7;
  opt.reduce_tasks = 1;
  const mr::StoreRunner runner(mapper, reducer, opt);

  // The one corrupt segment, live until its block's generation moves
  // (a quarantine, a kill or a repair install).
  struct Corrupt {
    size_t block, seg;
    uint64_t gen;
  };
  std::optional<Corrupt> corrupt;
  const auto live = [&]() -> std::optional<Corrupt> {
    if (corrupt && fs.block_generation(id, corrupt->block) == corrupt->gen)
      return corrupt;
    return std::nullopt;
  };
  const auto down = [&] {
    std::vector<size_t> out;
    for (size_t b = 0; b < n; ++b)
      if (!fs.block_available(id, b)) out.push_back(b);
    return out;
  };
  // Degraded splits of one in-order pass, and whether it meets the
  // corrupt segment.
  const auto predict = [&]() -> std::pair<size_t, bool> {
    std::vector<size_t> available;
    for (size_t b = 0; b < n; ++b)
      if (fs.block_available(id, b)) available.push_back(b);
    const auto plan = eng.plan_decode_fast(available);
    std::optional<Corrupt> c = live();
    bool met = false;
    size_t degraded = 0;
    for (const auto& s : splits) {
      bool d = !std::binary_search(available.begin(), available.end(),
                                   s.block);
      if (c) {
        const auto need = plan_source_segments(*plan, chunk, s.file_offset,
                                               s.file_offset + s.length);
        for (size_t slot = 0; slot < need.size(); ++slot)
          if (plan->source_blocks()[slot] == c->block &&
              std::binary_search(need[slot].begin(), need[slot].end(),
                                 c->seg)) {
            d = met = true;
            c.reset();
            break;
          }
      }
      degraded += d;
    }
    return {degraded, met};
  };

  size_t passes = 0, flips = 0, degraded_total = 0, met_total = 0;
  for (size_t step = 0; step < 150; ++step) {
    const std::vector<size_t> out = down();
    const std::optional<Corrupt> c = live();
    switch (rng.next_below(6)) {
      case 0: {  // flip a byte in a segment no cache entry holds
        if (c || out.size() > 1) break;
        std::vector<std::pair<size_t, size_t>> spots;
        for (size_t b = 0; b < n; ++b) {
          if (!fs.block_available(id, b)) continue;
          for (size_t g = 0; g < segment_count(block_bytes); ++g)
            if (!cache_on || cache.get(fs.cache_uid(), id, b, g,
                                       fs.block_generation(id, b)) == nullptr)
              spots.emplace_back(b, g);
        }
        if (spots.empty()) break;
        const auto [b, g] = spots[rng.next_below(spots.size())];
        fs.corrupt_block(id, b,
                         g * kSegmentBytes +
                             rng.next_below(segment_size(block_bytes, g)));
        corrupt = Corrupt{b, g, fs.block_generation(id, b)};
        ++flips;
        break;
      }
      case 1: {  // kill a block's server
        const size_t b = rng.next_below(n);
        if (!fs.block_available(id, b)) break;
        const size_t after = out.size() + 1 + (c && c->block != b ? 1 : 0);
        if (after <= 2) fs.fail_server(fs.server_of(b));
        break;
      }
      case 2:  // revive a dead server (its blocks stay lost)
        for (size_t b : out)
          if (!cluster.server(fs.server_of(b)).alive()) {
            fs.revive_server(fs.server_of(b));
            break;
          }
        break;
      case 3:  // repair a lost block on a live server
        for (size_t b : out)
          if (cluster.server(fs.server_of(b)).alive()) {
            ASSERT_TRUE(fs.repair(id, b).has_value()) << "block " << b;
            break;
          }
        break;
      case 4: {  // every split, read directly
        const auto [degraded, met] = predict();
        const FileStore::ReadStats before = fs.read_stats();
        for (const auto& s : splits) {
          const auto got =
              fs.read_original_split(id, s.block, s.block_offset, s.length);
          ASSERT_TRUE(got.has_value()) << "step " << step;
          ASSERT_TRUE(std::equal(got->begin(), got->end(),
                                 file.begin() + s.file_offset))
              << "step " << step << " block " << s.block << " offset "
              << s.block_offset;
        }
        const FileStore::ReadStats after = fs.read_stats();
        EXPECT_EQ(after.crc_failures - before.crc_failures, met ? 1u : 0u);
        EXPECT_EQ(after.auto_repairs - before.auto_repairs, met ? 1u : 0u);
        degraded_total += degraded;
        met_total += met;
        ++passes;
        break;
      }
      default: {  // every split, as one job's map tasks
        const auto [degraded, met] = predict();
        const mr::StoreJobReport report = runner.run_report(fs, id);
        EXPECT_EQ(report.output, expected) << "step " << step;
        EXPECT_EQ(report.degraded_splits, degraded) << "step " << step;
        EXPECT_EQ(report.bytes_original + report.bytes_decoded, file.size());
        degraded_total += degraded;
        met_total += met;
        ++passes;
        break;
      }
    }
    ASSERT_TRUE(fs.all_recoverable()) << "step " << step;
  }
  // The walk must have exercised what it models.
  EXPECT_GT(passes, 10u);
  EXPECT_GT(flips, 0u);
  EXPECT_GT(met_total, 0u);
  EXPECT_GT(degraded_total, 0u);
}

INSTANTIATE_TEST_SUITE_P(Cache, SplitReadDifferential, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "on" : "off");
                         });

}  // namespace
}  // namespace galloper::store
