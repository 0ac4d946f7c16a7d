#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "client/cache.h"
#include "client/load_gen.h"
#include "client/striped.h"
#include "io/async.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "store/file_store.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::client {
namespace {

using galloper::Buffer;
using galloper::Rng;
using galloper::random_buffer;

struct Shape {
  size_t k, l, g;
};

// Pipelined reads must be byte-for-byte the direct FileStore::read_range
// bytes across code shapes, batch granularities, and unaligned ranges.
TEST(StripedReaderTest, BitIdenticalToDirectReads) {
  const Shape shapes[] = {{2, 1, 1}, {4, 2, 2}, {6, 3, 2}};
  for (const Shape& s : shapes) {
    core::GalloperCode code(s.k, s.l, s.g);
    sim::Simulation sim;
    sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
    store::FileStore fs(cluster, code);
    Rng rng(7 + s.k);
    const size_t chunk = 96;
    const Buffer file =
        random_buffer(code.engine().num_chunks() * chunk, rng);
    const store::FileId id = fs.write(file);

    for (size_t batch_chunks : {size_t{1}, size_t{3}, size_t{64}}) {
      ReaderOptions opt;
      opt.batch_chunks = batch_chunks;
      StripedReader reader(fs, opt);
      const size_t ranges[][2] = {
          {0, file.size()},            // whole file
          {0, 0},                      // empty
          {1, file.size() - 2},        // off-by-one both ends
          {chunk - 1, 2},              // straddles a chunk boundary
          {chunk / 2, 3 * chunk},      // unaligned multi-chunk
          {file.size() - 7, 7},        // tail
      };
      for (const auto& r : ranges) {
        const auto piped = reader.read_range(id, r[0], r[1]);
        const auto direct = fs.read_range(id, r[0], r[1]);
        ASSERT_TRUE(piped.has_value());
        ASSERT_TRUE(direct.has_value());
        EXPECT_EQ(*piped, *direct)
            << "shape (" << s.k << "," << s.l << "," << s.g << ") batch="
            << batch_chunks << " off=" << r[0] << " len=" << r[1];
        EXPECT_EQ(*piped,
                  Buffer(file.begin() + r[0], file.begin() + r[0] + r[1]));
      }
    }
  }
}

// A corrupt block must not change the delivered bytes: the batch fetch
// that reads it fails its segment check, and the read quarantines the
// block, replans around it, decodes degraded and rebuilds it, so the
// stripe is whole again for the next reader.
TEST(StripedReaderTest, DegradedReadIsBitIdentical) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  Rng rng(11);
  const size_t chunk = 128;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);
  fs.corrupt_block(id, 1, 5);

  StripedReader reader(fs);
  const auto piped = reader.read_range(id, 0, file.size());
  ASSERT_TRUE(piped.has_value());
  EXPECT_EQ(*piped, file);
  EXPECT_GE(fs.read_stats().crc_failures, 1u);
  EXPECT_EQ(fs.read_stats().auto_repairs, 1u);
  EXPECT_TRUE(fs.lost_blocks(id).empty());
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// Hedged fetches under injected stalls still deliver the direct bytes.
TEST(StripedReaderTest, StalledHelpersStillBitIdentical) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fault::FaultInjector inj(99);
  inj.set_read_latency(0.5, 0.001);
  fs.set_fault_injector(&inj);
  Rng rng(12);
  const size_t chunk = 64;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);

  ReaderOptions opt;
  opt.batch_chunks = 2;
  StripedReader reader(fs, opt);
  for (int i = 0; i < 4; ++i) {
    const auto piped = reader.read_range(id, 0, file.size());
    ASSERT_TRUE(piped.has_value());
    EXPECT_EQ(*piped, file);
  }
}

// The read core's two entry points.
enum class Entry { kStripedReader, kReadRange };

class StripedReaderTest : public ::testing::TestWithParam<Entry> {};

// A read that replans around a block lost mid-read must keep the fault
// schedule PINNED: it already drew (and served) its injector decisions for
// the fetches it issued, and the replanned fetches must not draw a fresh
// schedule — if they did, the process-wide seeded fault sequence would
// depend on whether the quarantine race hit, and degraded chaos runs would
// stop replaying deterministically. Regression for the client bug where
// the fallback went through the fault-drawing read_range, and for direct
// read_range, which drew again for blocks first fetched after a replan.
//
// Shape of the race: a single-batch read of one chunk the victim block
// stores opens, then its fetch parks in an injected stall; a chaos thread
// quarantines the victim inside that window, the parked fetch sees the
// block gone, and the read replans onto blocks it has not fetched yet. A
// clean read and a read that replans draw IDENTICAL decision counts (one
// draw_fetch per fetched slot, all spent before the loss is detected), so
// on a replanned iteration the delta must equal the clean baseline exactly
// — any extra draw is the replan drawing for its new fetches. The chaos
// thread flips a byte in a segment of the victim the read never fetches,
// so the read can only lose the block to the quarantine; a read that met
// the flipped bytes itself would self-heal, and that repair draws its own
// schedule by design.
TEST_P(StripedReaderTest, StaleSessionFallbackPinsFaultSchedule) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fs.set_block_cache(nullptr);  // cache hits elide draws; keep counts exact
  fault::FaultInjector inj(99);
  inj.set_read_latency(1.0, 0.002);  // every fetch parks 2 ms: a wide window
  fs.set_fault_injector(&inj);
  Rng rng(13);
  // Two segments per block, four stripes each.
  const size_t chunk = store::kSegmentBytes / 4;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);

  ReaderOptions opt;
  opt.batch_chunks = code.engine().num_chunks();  // one batch: fixed draws
  StripedReader reader(fs, opt);
  const size_t victim = 1;  // a data block: always fetched by the batch
  size_t first = 0;         // the first chunk the victim stores
  while (code.engine().chunk_positions()[first].block != victim) ++first;
  const Buffer want(file.begin() + first * chunk,
                    file.begin() + (first + 1) * chunk);
  // A byte in the victim's other segment: the read fetches only the
  // segment holding its stripe.
  const size_t stripe_at =
      code.engine().chunk_positions()[first].pos * chunk;
  const size_t flip_at =
      stripe_at < store::kSegmentBytes ? fs.block_bytes(id) - 1 : 0;
  const bool direct = GetParam() == Entry::kReadRange;
  const auto read = [&] {
    return direct ? fs.read_range(id, first * chunk, chunk)
                  : reader.read_range(id, first * chunk, chunk);
  };
  // Reads that replanned around a block lost mid-read, as each entry
  // point reports them.
  const auto replans = [&]() -> uint64_t {
    return direct ? fs.read_stats().replanned_reads : client_stats().fallbacks;
  };

  // Baseline: decisions one clean read consumes.
  const uint64_t d0 = inj.stats().decisions;
  {
    const auto out = read();
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(*out, want);
  }
  const uint64_t clean_draws = inj.stats().decisions - d0;

  bool hit = false;
  for (int iter = 0; iter < 400 && !hit; ++iter) {
    const uint64_t fallbacks_before = replans();
    const uint64_t before = inj.stats().decisions;
    std::thread chaos([&, iter] {
      // Sweep the quarantine across the read's timeline so some iteration
      // lands it between the open step and the parked fetch.
      std::this_thread::sleep_for(
          std::chrono::microseconds(100 * (iter % 60)));
      fs.corrupt_block(id, victim, flip_at);
      fs.scrub(/*quarantine=*/true);
    });
    const auto out = read();
    chaos.join();
    const uint64_t delta = inj.stats().decisions - before;
    ASSERT_TRUE(out.has_value());
    ASSERT_EQ(*out, want) << "iter " << iter;
    if (replans() > fallbacks_before) {
      hit = true;
      EXPECT_EQ(delta, clean_draws)
          << "the fallback re-drew injector decisions instead of keeping "
             "the already-served schedule pinned (iter "
          << iter << ")";
    }
    if (!fs.block_available(id, victim)) {
      ASSERT_TRUE(fs.repair(id, victim).has_value());
    }
  }
  EXPECT_TRUE(hit) << "quarantine race never produced a stale session";
  fs.set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, StripedReaderTest,
    ::testing::Values(Entry::kStripedReader, Entry::kReadRange),
    [](const ::testing::TestParamInfo<Entry>& info) {
      return info.param == Entry::kStripedReader ? "StripedReader"
                                                 : "FileStoreReadRange";
    });

// A pipelined read that meets a corrupt block replans inside the read
// core: it counts as ONE verified read (not a client session plus a
// fallback read) and one client fallback, and it still heals the block.
TEST(StripedReaderTest, ReplannedReadCountsOneVerifiedRead) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fs.set_block_cache(nullptr);
  Rng rng(17);
  const size_t chunk = 128;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);
  fs.corrupt_block(id, 1, 5);

  StripedReader reader(fs);
  const uint64_t fallbacks = client_stats().fallbacks;
  const store::FileStore::ReadStats before = fs.read_stats();
  const auto got = reader.read_range(id, 0, file.size());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, file);
  const store::FileStore::ReadStats after = fs.read_stats();
  EXPECT_EQ(client_stats().fallbacks, fallbacks + 1);
  EXPECT_EQ(after.verified_reads, before.verified_reads + 1);
  EXPECT_EQ(after.replanned_reads, before.replanned_reads + 1);
  EXPECT_EQ(after.crc_failures, before.crc_failures + 1);
  EXPECT_EQ(after.auto_repairs, before.auto_repairs + 1);
  EXPECT_TRUE(fs.lost_blocks(id).empty());
}

// The writer commits through FileStore::write itself: two stores driven by
// same-seed injectors must end up with identical raw blocks and identical
// write-fault schedules.
TEST(StripedWriterTest, BitIdenticalToDirectWrites) {
  core::GalloperCode code(4, 2, 2);
  Rng rng(21);
  const size_t chunk = 4096;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);

  sim::Simulation sim_a, sim_b;
  sim::Cluster cluster_a(sim_a, code.num_blocks() + 2, sim::ServerSpec{});
  sim::Cluster cluster_b(sim_b, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore direct(cluster_a, code);
  store::FileStore piped(cluster_b, code);
  fault::FaultInjector inj_a(4242), inj_b(4242);
  inj_a.set_torn_write_rate(0.2);
  inj_b.set_torn_write_rate(0.2);
  direct.set_fault_injector(&inj_a);
  piped.set_fault_injector(&inj_b);

  const store::FileId id_a = direct.write(file);
  StripedWriter writer(piped);
  const store::FileId id_b = writer.write(file);
  ASSERT_EQ(id_a, id_b);

  for (size_t b = 0; b < code.num_blocks(); ++b) {
    const auto span_a = direct.block(id_a, b);
    const auto span_b = piped.block(id_b, b);
    ASSERT_TRUE(span_a.has_value());
    ASSERT_TRUE(span_b.has_value());
    ASSERT_EQ(span_a->size(), span_b->size());
    EXPECT_TRUE(std::equal(span_a->begin(), span_a->end(), span_b->begin()))
        << "block=" << b;
  }
  const fault::FaultStats sa = inj_a.stats(), sb = inj_b.stats();
  EXPECT_EQ(sa.decisions, sb.decisions);
  EXPECT_EQ(sa.torn_writes, sb.torn_writes);
  EXPECT_GT(sb.torn_writes, 0u) << "the schedule must fault some block";
}

// Concurrent pipelined readers over a faulty store: every delivered byte
// must match the written file even while another thread corrupts blocks
// (stale sessions fall back to direct reads; see striped.h).
TEST(StripedReaderTest, ConcurrentReadersUnderCorruption) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fault::FaultInjector inj(5);
  inj.set_read_latency(0.1, 0.0005);
  fs.set_fault_injector(&inj);
  Rng rng(31);
  const size_t chunk = 256;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);

  // Same discipline as the load generator's chaos thread: in-place
  // corruption is serialized against reads of the same file (readers take
  // the harness lock shared, chaos exclusive) — the store guarantees
  // bit-identity for reads concurrent with OTHER reads and repairs, not
  // with a mutation racing the same file's bytes.
  std::shared_mutex harness;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      StripedReader reader(fs, ReaderOptions{.batch_chunks = 2});
      Rng local(100 + t);
      for (int i = 0; i < 12; ++i) {
        const size_t off = local.next_below(file.size());
        const size_t len = 1 + local.next_below(file.size() - off);
        std::shared_lock<std::shared_mutex> lock(harness);
        const auto got = reader.read_range(id, off, len);
        if (!got.has_value() ||
            !std::equal(got->begin(), got->end(), file.begin() + off))
          mismatches.fetch_add(1);
      }
    });
  }
  std::thread chaos([&] {
    Rng local(77);
    while (!stop.load()) {
      {
        std::unique_lock<std::shared_mutex> lock(harness);
        // Heal first so at most one block is ever bad — always within the
        // code's tolerance.
        fs.scrub_and_repair();
        fs.corrupt_block(id, local.next_below(code.num_blocks()),
                         local.next_below(chunk));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& th : readers) th.join();
  stop.store(true);
  chaos.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(AdmissionControlTest, LimitBoundsConcurrency) {
  AdmissionControl gate(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto ticket = gate.admit();
      const int now = inside.fetch_add(1) + 1;
      int prev = max_inside.load();
      while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inside.fetch_sub(1);
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = gate.stats();
  EXPECT_LE(max_inside.load(), 2);
  EXPECT_LE(stats.peak, 2u);
  EXPECT_EQ(stats.admitted, 8u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GE(stats.waited, 1u);  // 8 streams through 2 slots must queue
}

// End-to-end smoke through the load generator: clean and degraded runs
// must verify bit-identical against the mirror and account every op.
TEST(LoadGenTest, CleanRunVerifies) {
  LoadGenOptions opt;
  opt.seed = 3;
  opt.clients = 2;
  opt.ops_per_client = 6;
  opt.files = 3;
  opt.chunk_bytes = 2048;
  opt.update_fraction = 0.2;
  const LoadGenResult r = run_load(opt);
  EXPECT_TRUE(r.bit_identical);
  EXPECT_EQ(r.ops, opt.clients * opt.ops_per_client);
  EXPECT_EQ(r.ops, r.reads + r.updates);
  EXPECT_GT(r.bytes_read, 0u);
  EXPECT_GT(r.ops_per_s, 0.0);
  EXPECT_GE(r.p99_s, r.p50_s);
  EXPECT_GE(r.p999_s, r.p99_s);
}

TEST(LoadGenTest, DegradedRunVerifies) {
  LoadGenOptions opt;
  opt.seed = 9;
  opt.clients = 2;
  opt.ops_per_client = 6;
  opt.files = 3;
  opt.chunk_bytes = 2048;
  opt.degraded = true;
  opt.stall_s = 0.0005;
  opt.corruptions = 2;
  // Cache OFF: this test asserts the fault machinery actually FIRED, and a
  // warm cache legitimately absorbs reads before they ever probe the
  // corrupted block (cached bytes are the true pre-corruption content).
  opt.cache_mib = 0;
  const LoadGenResult r = run_load(opt);
  EXPECT_TRUE(r.bit_identical);
  EXPECT_EQ(r.ops, opt.clients * opt.ops_per_client);
  EXPECT_GE(r.crc_failures + r.auto_repairs + r.degraded_reads, 1u);
}

// The ISSUE's headline safety claim: degraded load (latency spikes + a
// chaos thread corrupting live blocks mid-run) with the block cache ON
// must still verify every read against the mirror — the cache may absorb
// fault accounting, but it must never serve a wrong or stale byte.
TEST(LoadGenTest, DegradedCacheOnNeverMismatches) {
  LoadGenOptions opt;
  opt.seed = 29;
  opt.clients = 3;
  opt.ops_per_client = 10;
  opt.files = 3;
  opt.chunk_bytes = 2048;
  opt.degraded = true;
  opt.stall_s = 0.0005;
  opt.corruptions = 3;
  opt.update_fraction = 0.2;  // updates bump generations under load
  opt.cache_mib = 8;          // private warm cache
  const LoadGenResult r = run_load(opt);
  EXPECT_EQ(r.mirror_mismatches, 0u);
  EXPECT_TRUE(r.bit_identical);
  EXPECT_EQ(r.ops, opt.clients * opt.ops_per_client);
}

// ---- BlockCache unit tests -------------------------------------------------

namespace {
BlockCache::EntryRef make_entry(size_t size, uint8_t fill) {
  return std::make_shared<const Buffer>(size, fill);
}
}  // namespace

TEST(BlockCacheTest, GenerationMismatchNeverServes) {
  BlockCache cache(1 << 20, /*shards=*/1);
  cache.put(1, 0, 0, 0, /*generation=*/3, make_entry(64, 0xAA));
  // Exact generation serves.
  ASSERT_NE(cache.get(1, 0, 0, 0, 3), nullptr);
  // A STALE entry (caller knows a newer generation) is dropped, not served.
  EXPECT_EQ(cache.get(1, 0, 0, 0, 4), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().resident_entries, 0u);
  // A NEWER entry than the caller's snapshot misses WITHOUT eviction (the
  // entry is the fresher one; the reader's snapshot is behind).
  cache.put(1, 0, 0, 0, /*generation=*/7, make_entry(64, 0xBB));
  EXPECT_EQ(cache.get(1, 0, 0, 0, 5), nullptr);
  EXPECT_EQ(cache.stats().resident_entries, 1u);
  ASSERT_NE(cache.get(1, 0, 0, 0, 7), nullptr);
}

TEST(BlockCacheTest, SegmentedLruSurvivesScan) {
  // Capacity for ~8 entries of 1 KiB in one shard. Hit a hot pair until
  // they're protected, then scan 64 cold one-shot keys through — the scan
  // must churn probation without evicting the protected head.
  BlockCache cache(8 << 10, /*shards=*/1);
  cache.put(1, 0, 0, 0, 0, make_entry(1 << 10, 1));
  cache.put(1, 0, 1, 0, 0, make_entry(1 << 10, 2));
  ASSERT_NE(cache.get(1, 0, 0, 0, 0), nullptr);  // promote to protected
  ASSERT_NE(cache.get(1, 0, 1, 0, 0), nullptr);
  for (uint64_t k = 100; k < 164; ++k)
    cache.put(1, 9, k, 0, 0, make_entry(1 << 10, 3));
  EXPECT_NE(cache.get(1, 0, 0, 0, 0), nullptr) << "scan evicted the hot head";
  EXPECT_NE(cache.get(1, 0, 1, 0, 0), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);  // the scan itself churned
}

TEST(BlockCacheTest, EvictionBoundsResidentBytes) {
  const size_t cap = 16 << 10;
  BlockCache cache(cap, /*shards=*/1);
  for (uint64_t k = 0; k < 200; ++k)
    cache.put(1, 0, k, 0, 0, make_entry(1 << 10, static_cast<uint8_t>(k)));
  const BlockCacheStats s = cache.stats();
  EXPECT_LE(s.resident_bytes, cap);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.resident_entries, 0u);
  // An entry bigger than a shard is uncacheable, never partially inserted.
  cache.put(1, 1, 0, 0, 0, make_entry(cap + 1, 9));
  EXPECT_LE(cache.stats().resident_bytes, cap);
}

TEST(BlockCacheTest, DisabledCacheNoOps) {
  BlockCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.put(1, 0, 0, 0, 0, make_entry(64, 1));
  EXPECT_EQ(cache.get(1, 0, 0, 0, 0), nullptr);
  cache.invalidate(1, 0, 0, 1);
  cache.clear();
  const BlockCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);  // disabled lookups aren't even counted
  EXPECT_EQ(s.resident_entries, 0u);
}

TEST(BlockCacheTest, StoresWithDistinctUidsNeverAlias) {
  BlockCache cache(1 << 20, /*shards=*/1);
  cache.put(1, 0, 0, 0, 0, make_entry(64, 0x11));
  cache.put(2, 0, 0, 0, 0, make_entry(64, 0x22));
  const auto a = cache.get(1, 0, 0, 0, 0);
  const auto b = cache.get(2, 0, 0, 0, 0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ((*a)[0], 0x11);
  EXPECT_EQ((*b)[0], 0x22);
}

TEST(BlockCacheTest, SegmentsAreSeparateEntriesAndInvalidateDropsThemAll) {
  BlockCache cache(1 << 20, /*shards=*/1);
  for (uint8_t seg = 0; seg < 4; ++seg)
    cache.put(1, 0, 0, seg, /*generation=*/5, make_entry(64, seg));
  cache.put(1, 0, 1, 0, /*generation=*/5, make_entry(64, 9));
  EXPECT_EQ(cache.stats().inserted_bytes, 5u * 64);
  for (uint8_t seg = 0; seg < 4; ++seg) {
    const auto e = cache.get(1, 0, 0, seg, 5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ((*e)[0], seg);
  }
  cache.invalidate(1, 0, 0, /*segments=*/4);
  for (uint8_t seg = 0; seg < 4; ++seg)
    EXPECT_EQ(cache.get(1, 0, 0, seg, 5), nullptr);
  EXPECT_NE(cache.get(1, 0, 1, 0, 5), nullptr) << "another block's segment";
}

// ---- Cache ↔ store integration --------------------------------------------

// A cold 4 KiB pipelined read on 4 MiB blocks fills the cache with the
// segments its plan read (at most 2 per source piece), not whole blocks,
// and a repeat of the read is served from those segments with nothing
// re-verified.
TEST(BlockCacheTest, PointReadFillsOnlyItsSegments) {
  core::GalloperCode code(4, 2, 2);
  BlockCache cache(64 << 20);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks(), sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fs.set_block_cache(&cache);
  const size_t chunk = (size_t{4} << 20) / code.engine().stripes_per_block();
  Rng rng(61);
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);
  StripedReader reader(fs);

  const size_t offset = store::kSegmentBytes - 1024, length = 4096;
  const auto got = reader.read_range(id, offset, length);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(std::equal(got->begin(), got->end(), file.begin() + offset));
  const uint64_t filled = cache.stats().inserted_bytes;
  EXPECT_GT(filled, 0u);
  EXPECT_LE(filled, 2 * store::kSegmentBytes);

  const size_t verified = fs.read_stats().verified_bytes;
  const uint64_t hits = cache.stats().hits;
  const auto again = reader.read_range(id, offset, length);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *got);
  EXPECT_EQ(fs.read_stats().verified_bytes, verified);
  EXPECT_GT(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().inserted_bytes, filled);
}

// Cold and warm cached reads must be byte-for-byte the cache-off bytes
// across code shapes and unaligned ranges (tentpole acceptance: bit
// identity cache on vs off).
TEST(BlockCacheTest, CachedReadsBitIdenticalToUncached) {
  const Shape shapes[] = {{2, 1, 1}, {4, 2, 2}, {6, 3, 2}};
  for (const Shape& s : shapes) {
    core::GalloperCode code(s.k, s.l, s.g);
    BlockCache cache(16 << 20, /*shards=*/2);  // outlives both stores
    sim::Simulation sim;
    sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
    store::FileStore cached_fs(cluster, code);
    store::FileStore plain_fs(cluster, code);
    cached_fs.set_block_cache(&cache);
    plain_fs.set_block_cache(nullptr);
    Rng rng(41 + s.k);
    const size_t chunk = 96;
    const Buffer file =
        random_buffer(code.engine().num_chunks() * chunk, rng);
    const store::FileId id = cached_fs.write(file);
    ASSERT_EQ(plain_fs.write(file), id);

    ReaderOptions opt;
    opt.batch_chunks = 2;
    StripedReader reader(cached_fs, opt);
    const size_t ranges[][2] = {
        {0, file.size()},        {1, file.size() - 2},
        {chunk - 1, 2},          {chunk / 2, 3 * chunk},
        {file.size() - 7, 7},
    };
    for (int pass = 0; pass < 2; ++pass) {  // pass 0 fills, pass 1 hits
      for (const auto& r : ranges) {
        const auto got = reader.read_range(id, r[0], r[1]);
        const auto want = plain_fs.read_range(id, r[0], r[1]);
        ASSERT_TRUE(got.has_value());
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(*got, *want)
            << "shape (" << s.k << "," << s.l << "," << s.g << ") pass="
            << pass << " off=" << r[0] << " len=" << r[1];
      }
    }
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

// After update_range, repair, and corruption + auto-repair, cached reads
// must serve the CURRENT bytes — generation bumps make stale entries
// unreachable.
TEST(BlockCacheTest, NoStaleBytesAfterMutations) {
  core::GalloperCode code(4, 2, 2);
  BlockCache cache(16 << 20, /*shards=*/2);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fs.set_block_cache(&cache);
  Rng rng(53);
  const size_t chunk = 128;
  Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);
  StripedReader reader(fs);

  const auto expect_current = [&](const char* when) {
    const auto direct = fs.read_range(id, 0, file.size());
    const auto piped = reader.read_range(id, 0, file.size());
    ASSERT_TRUE(direct.has_value()) << when;
    ASSERT_TRUE(piped.has_value()) << when;
    EXPECT_EQ(*direct, file) << when;
    EXPECT_EQ(*piped, file) << when;
  };

  expect_current("initial read (fills cache)");

  // In-place update: both the mirror and the store change; a stale cache
  // would keep returning the old chunk.
  Buffer patch = random_buffer(chunk, rng);
  fs.update_range(id, 2 * chunk, ConstByteSpan(patch));
  std::copy(patch.begin(), patch.end(), file.begin() + 2 * chunk);
  expect_current("after update_range");

  // Corruption + read-triggered auto-repair: the repair INSTALL bumps the
  // generation, so the pre-repair entry (same logical bytes) can't mask a
  // bad install.
  fs.corrupt_block(id, 1, 7);
  expect_current("after corruption (auto-repair in flight)");
  expect_current("after auto-repair");

  // Lost block + explicit repair. Repairing block 0 reads helpers, which
  // CRC-quarantines the still-corrupt block 1 (cached reads above never
  // probed it — the cache holds its true logical bytes); heal that too so
  // the stripe is fully clean again.
  fs.fail_server(0);
  fs.revive_server(0);
  ASSERT_TRUE(fs.repair(id, 0).has_value());
  expect_current("after fail + repair");
  for (size_t b : fs.lost_blocks(id))
    ASSERT_TRUE(fs.repair(id, b).has_value());
  expect_current("after healing quarantined helpers");

  // Another update AFTER repair (fresh generations all around).
  Buffer patch2 = random_buffer(chunk, rng);
  fs.update_range(id, 0, ConstByteSpan(patch2));
  std::copy(patch2.begin(), patch2.end(), file.begin());
  expect_current("after post-repair update");
}

// A fully-hot read touches neither the I/O pool nor the fetch machinery:
// fetch count and verified-read sessions stay flat.
TEST(BlockCacheTest, FullyHotReadSkipsIoPool) {
  core::GalloperCode code(4, 2, 2);
  BlockCache cache(16 << 20, /*shards=*/2);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  fs.set_block_cache(&cache);
  Rng rng(67);
  const size_t chunk = 256;
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const store::FileId id = fs.write(file);

  StripedReader reader(fs);
  const auto cold = reader.read_range(id, 0, file.size());  // fills cache
  ASSERT_TRUE(cold.has_value());
  ASSERT_EQ(*cold, file);

  const uint64_t fetches0 = io::AsyncIo::global().stats().fetches;
  const size_t sessions0 = fs.read_stats().verified_reads;
  const ClientStats c0 = client_stats();
  for (size_t off : {size_t{0}, chunk / 2, 3 * chunk}) {
    const auto warm = reader.read_range(id, off, chunk);
    ASSERT_TRUE(warm.has_value());
    EXPECT_TRUE(std::equal(warm->begin(), warm->end(), file.begin() + off));
  }
  EXPECT_EQ(io::AsyncIo::global().stats().fetches, fetches0)
      << "warm reads must not touch the I/O pool";
  EXPECT_EQ(fs.read_stats().verified_reads, sessions0)
      << "warm reads must not open read sessions";
  EXPECT_EQ(client_stats().cache_reads - c0.cache_reads, 3u);
}

// Same seed, same options → same offered traffic (the Zipf picker and
// per-client RNG forks are deterministic; wall-clock numbers may differ).
TEST(LoadGenTest, SameSeedSameTraffic) {
  LoadGenOptions opt;
  opt.seed = 17;
  opt.clients = 2;
  opt.ops_per_client = 8;
  opt.files = 4;
  opt.chunk_bytes = 1024;
  opt.zipf_theta = 0.9;
  opt.update_fraction = 0.25;
  const LoadGenResult a = run_load(opt);
  const LoadGenResult b = run_load(opt);
  EXPECT_TRUE(a.bit_identical);
  EXPECT_TRUE(b.bit_identical);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
}

}  // namespace
}  // namespace galloper::client
