// micro_cache: verified client-side block cache — warm Zipf-head reads vs
// the uncached serial path, plus a degraded-chaos safety cell.
//
// Per Zipf theta cell, the SAME deterministic read schedule runs twice
// against one FileStore:
//   uncached  cache detached (set_block_cache(nullptr)): every read_range
//             fetches and CRCs the segments its plan reads + decodes.
//   warm      a private cache attached, one unmeasured priming pass, then
//             the timed pass through the pipelined StripedReader — hot
//             segments are served from verified cached bytes (no fetches,
//             no I/O pool).
// Every read in BOTH phases is byte-compared against an in-memory mirror,
// so the speedup column only exists for bit-identical runs. The chaos cell
// reruns the load generator degraded + concurrent corruptions with the
// cache ON and reports mirror mismatches (the safety claim: a cache hit is
// never allowed to return stale or wrong bytes).
//
// Speedup is a same-machine ratio (identical schedule, identical store),
// so the ≥ 3× CI floor is machine-independent.
//
//   GALLOPER_BENCH_REPS  schedule length scale (default 3 → 96 reads/cell)
//   GALLOPER_BENCH_JSON  write machine-readable results there
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "client/cache.h"
#include "client/load_gen.h"
#include "client/striped.h"
#include "core/galloper.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/rng.h"
#include "util/table.h"

using namespace galloper;

namespace {

struct Read {
  store::FileId file;
  size_t offset;
  size_t length;
};

struct CacheCell {
  double theta = 0;
  double uncached_mib_per_s = 0;
  double warm_mib_per_s = 0;
  double hit_rate = 0;
  bool bit_identical = true;

  double speedup() const {
    return uncached_mib_per_s > 0 ? warm_mib_per_s / uncached_mib_per_s : 0;
  }
};

// Zipf(theta) file weights by inverse-CDF, matching the load generator.
size_t zipf_pick(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf.begin()),
                          cdf.size() - 1);
}

CacheCell run_cell(double theta) {
  const size_t files = 6;
  const size_t chunk_bytes = size_t{8} << 10;
  const size_t schedule_len = 32 * std::max<size_t>(1, bench::reps());

  CacheCell cell;
  cell.theta = theta;

  core::GalloperCode code(4, 2, 2);
  const size_t file_bytes = code.engine().num_chunks() * chunk_bytes;

  // The cache must outlive the store (~FileStore drops its entries).
  auto cache = std::make_unique<client::BlockCache>(size_t{16} << 20);
  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore store(cluster, code);
  store.set_block_cache(nullptr);  // uncached phase first

  Rng setup_rng(0xcac4e);
  std::vector<Buffer> mirror;
  for (size_t f = 0; f < files; ++f) {
    Buffer file(file_bytes, 0);
    for (auto& b : file) b = static_cast<uint8_t>(setup_rng.next_u64());
    store.write(ConstByteSpan(file));
    mirror.push_back(std::move(file));
  }

  std::vector<double> cdf;
  double total = 0;
  for (size_t i = 0; i < files; ++i) {
    total += std::pow(1.0 / static_cast<double>(i + 1), theta);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;

  Rng sched_rng(0x5eed ^ static_cast<uint64_t>(theta * 1000));
  std::vector<Read> schedule;
  for (size_t i = 0; i < schedule_len; ++i) {
    const store::FileId f = zipf_pick(cdf, sched_rng);
    const size_t off = sched_rng.next_below(file_bytes);
    const size_t len = 1 + sched_rng.next_below(file_bytes - off);
    schedule.push_back({f, off, len});
  }

  size_t bytes = 0;
  for (const Read& r : schedule) bytes += r.length;
  const double mib = static_cast<double>(bytes) / (1 << 20);

  const auto verify = [&](const Read& r, const std::optional<Buffer>& got) {
    if (!got || got->size() != r.length ||
        !std::equal(got->begin(), got->end(), mirror[r.file].begin() + r.offset))
      cell.bit_identical = false;
  };

  // Uncached: serial verified read_range per schedule entry.
  const double uncached_s = bench::timed([&] {
    for (const Read& r : schedule)
      verify(r, store.read_range(r.file, r.offset, r.length));
  });
  cell.uncached_mib_per_s = uncached_s > 0 ? mib / uncached_s : 0;

  // Warm: attach the cache, prime it with one unmeasured pass, then time
  // the identical schedule through the pipelined client.
  store.set_block_cache(cache.get());
  client::StripedReader reader(store);
  for (const Read& r : schedule)
    verify(r, reader.read_range(r.file, r.offset, r.length));

  const client::BlockCacheStats warm0 = cache->stats();
  const double warm_s = bench::timed([&] {
    for (const Read& r : schedule)
      verify(r, reader.read_range(r.file, r.offset, r.length));
  });
  cell.warm_mib_per_s = warm_s > 0 ? mib / warm_s : 0;

  const client::BlockCacheStats warm1 = cache->stats();
  const uint64_t hits = warm1.hits - warm0.hits;
  const uint64_t lookups = hits + (warm1.misses - warm0.misses);
  cell.hit_rate = lookups > 0 ? static_cast<double>(hits) / lookups : 0;
  return cell;
}

}  // namespace

int main() {
  const std::vector<double> thetas = {0.9, 1.2};
  std::vector<CacheCell> cells;
  for (double theta : thetas) cells.push_back(run_cell(theta));

  // Safety cell: degraded stripes + concurrent corruption flips + in-place
  // updates with the cache ON — a cache hit must never surface stale or
  // wrong bytes (mirror mismatches stay zero).
  client::LoadGenOptions chaos;
  chaos.seed = 0xca05;
  chaos.clients = 3;
  chaos.ops_per_client = 8 * std::max<size_t>(1, bench::reps());
  chaos.files = 6;
  chaos.chunk_bytes = size_t{8} << 10;
  chaos.zipf_theta = 0.9;
  chaos.degraded = true;
  chaos.corruptions = 4;
  chaos.update_fraction = 0.2;
  chaos.cache_mib = 8;  // private cache, definitely ON
  const client::LoadGenResult chaos_r = client::run_load(chaos);

  Table table({"zipf theta", "uncached MiB/s", "warm MiB/s", "speedup",
               "hit %", "bit-exact"});
  for (const CacheCell& c : cells)
    table.add_row({Table::num(c.theta), Table::num(c.uncached_mib_per_s),
                   Table::num(c.warm_mib_per_s), Table::num(c.speedup()),
                   Table::num(c.hit_rate * 100),
                   c.bit_identical ? "yes" : "NO"});
  table.print();
  std::printf(
      "\nchaos (degraded + corruptions, cache on): %llu mirror mismatches, "
      "hit rate %.0f%%\n",
      static_cast<unsigned long long>(chaos_r.mirror_mismatches),
      chaos_r.cache_hit_rate * 100);

  if (const char* path = bench::bench_json_path()) {
    bench::JsonWriter json;
    json.begin_object();
    json.key("bench").value("micro_cache");
    bench::write_context(json);
    json.key("cells").begin_array();
    for (const CacheCell& c : cells) {
      json.begin_object();
      json.key("zipf_theta").value(c.theta);
      json.key("uncached_mib_per_s").value(c.uncached_mib_per_s);
      json.key("warm_mib_per_s").value(c.warm_mib_per_s);
      json.key("speedup").value(c.speedup());
      json.key("hit_rate").value(c.hit_rate);
      json.key("bit_identical").value(c.bit_identical ? 1 : 0);
      json.end_object();
    }
    json.end_array();
    json.key("chaos").begin_object();
    json.key("mirror_mismatches").value(chaos_r.mirror_mismatches);
    json.key("cache_hit_rate").value(chaos_r.cache_hit_rate);
    json.key("bit_identical").value(chaos_r.bit_identical ? 1 : 0);
    json.end_object();
    json.end_object();
    bench::write_json_file(path, json);
  }

  bool ok = chaos_r.mirror_mismatches == 0;
  for (const CacheCell& c : cells) ok = ok && c.bit_identical;
  if (!ok) std::printf("FAIL: cached reads were not bit-identical\n");
  return ok ? 0 : 1;
}
