#include "client/load_gen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "client/cache.h"
#include "client/striped.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace galloper::client {

namespace {

// Zipf(theta) file popularity: weight (1/(i+1))^theta, drawn by inverting a
// precomputed CDF. theta = 0 degenerates to uniform.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double theta) {
    cdf_.reserve(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += std::pow(1.0 / static_cast<double>(i + 1), theta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t pick(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// The serial baseline the pipelined client is measured against: the same
// per-batch granularity, but each batch is a full FileStore::read_range
// call (probe + decode), strictly one at a time.
std::optional<Buffer> serial_read(store::FileStore& store, store::FileId id,
                                  size_t offset, size_t length,
                                  size_t batch_bytes) {
  Buffer out(length, 0);
  for (size_t lo = offset; lo < offset + length;) {
    // Batch boundaries at batch_bytes granularity in FILE coordinates, so
    // the batches line up with the pipelined client's.
    const size_t hi =
        std::min(offset + length, (lo / batch_bytes + 1) * batch_bytes);
    const auto part = store.read_range(id, lo, hi - lo);
    if (!part) return std::nullopt;
    std::copy(part->begin(), part->end(), out.begin() + (lo - offset));
    lo = hi;
  }
  return out;
}

}  // namespace

LoadGenResult run_load(const LoadGenOptions& opt) {
  GALLOPER_CHECK(opt.files > 0 && opt.clients > 0 && opt.chunk_bytes > 0);
  core::GalloperCode code(opt.k, opt.l, opt.g);
  const size_t num_chunks = code.engine().num_chunks();
  const size_t file_bytes = num_chunks * opt.chunk_bytes;
  const size_t batch_bytes = opt.batch_chunks * opt.chunk_bytes;

  // Cache and admission plumbing: by default the run shares the process
  // globals (so the bench measures the shipped configuration); tests and
  // sweeps pin private instances for isolation. Declared BEFORE the store —
  // an attached cache must outlive it (~FileStore drops its entries).
  std::unique_ptr<BlockCache> private_cache;
  if (opt.cache_mib >= 0)
    private_cache = std::make_unique<BlockCache>(
        static_cast<size_t>(opt.cache_mib) << 20);
  std::unique_ptr<AdmissionControl> private_gate;
  if (opt.admit_limit > 0)
    private_gate = std::make_unique<AdmissionControl>(opt.admit_limit);

  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore store(cluster, code);
  if (private_cache) store.set_block_cache(private_cache.get());
  BlockCache* cache = store.block_cache();

  fault::FaultInjector injector(opt.seed ^ 0x10adul);
  if (opt.degraded) {
    injector.set_read_latency(opt.stall_p, opt.stall_s);
    store.set_fault_injector(&injector);
  }

  // Data set + in-memory mirror (ground truth for bit-identity checks).
  Rng setup_rng(opt.seed);
  std::vector<Buffer> mirror;
  WriterOptions wopt;
  wopt.admission = private_gate.get();
  StripedWriter writer(store, wopt);
  LoadGenResult result;
  for (size_t f = 0; f < opt.files; ++f) {
    Buffer file(file_bytes, 0);
    for (auto& b : file) b = static_cast<uint8_t>(setup_rng.next_u64());
    if (opt.pipelined) {
      writer.write(ConstByteSpan(file));
    } else {
      store.write(ConstByteSpan(file));
    }
    result.bytes_written += file_bytes;
    mirror.push_back(std::move(file));
  }

  // Per-file harness locks: readers shared (mirror must not change under a
  // verify), updates and chaos exclusive. The STORE is already
  // thread-safe; these only keep the mirror comparison atomic.
  std::vector<std::unique_ptr<std::shared_mutex>> file_mu;
  for (size_t f = 0; f < opt.files; ++f)
    file_mu.push_back(std::make_unique<std::shared_mutex>());

  const ZipfPicker picker(opt.files, opt.zipf_theta);
  const store::FileStore::ReadStats stats0 = store.read_stats();
  const ClientStats client0 = client_stats();
  const BlockCacheStats cache0 = cache->stats();

  util::LatencyHistogram latency;
  std::atomic<uint64_t> reads{0}, updates{0}, errors{0}, bytes_read{0},
      bytes_updated{0};
  std::atomic<uint64_t> mirror_mismatches{0};
  std::atomic<bool> done{false};

  const auto client_loop = [&](Rng rng) {
    ReaderOptions ropt;
    ropt.batch_chunks = opt.batch_chunks;
    ropt.admission = private_gate.get();
    StripedReader reader(store, ropt);
    for (size_t op = 0; op < opt.ops_per_client; ++op) {
      const size_t f = picker.pick(rng);
      const bool do_update =
          opt.update_fraction > 0 && rng.next_double() < opt.update_fraction;
      const auto t0 = std::chrono::steady_clock::now();
      if (do_update) {
        // Chunk-aligned in-place update of one random chunk.
        const size_t c = rng.next_below(num_chunks);
        Buffer data(opt.chunk_bytes, 0);
        for (auto& b : data) b = static_cast<uint8_t>(rng.next_u64());
        std::unique_lock<std::shared_mutex> lock(*file_mu[f]);
        try {
          store.update_range(f, c * opt.chunk_bytes, ConstByteSpan(data));
          std::copy(data.begin(), data.end(),
                    mirror[f].begin() + c * opt.chunk_bytes);
          updates.fetch_add(1, std::memory_order_relaxed);
          bytes_updated.fetch_add(data.size(), std::memory_order_relaxed);
        } catch (const CheckError&) {
          // Degraded stripe: updates are refused by design — repair first.
          errors.fetch_add(1, std::memory_order_relaxed);
        } catch (const fault::TransientError&) {
          // The stripe kept changing under the update; the store kept the
          // old bytes, so the mirror does too.
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        const size_t off = rng.next_below(file_bytes);
        const size_t len = 1 + rng.next_below(file_bytes - off);
        std::shared_lock<std::shared_mutex> lock(*file_mu[f]);
        const auto got =
            opt.pipelined
                ? reader.read_range(f, off, len)
                : serial_read(store, f, off, len, batch_bytes);
        GALLOPER_CHECK_MSG(got.has_value(),
                           "load-gen read lost data: file " << f);
        if (opt.verify &&
            !std::equal(got->begin(), got->end(), mirror[f].begin() + off))
          mirror_mismatches.fetch_add(1, std::memory_order_relaxed);
        reads.fetch_add(1, std::memory_order_relaxed);
        bytes_read.fetch_add(len, std::memory_order_relaxed);
      }
      latency.record_ns(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  };

  // Chaos: flip a byte in a live block of a random healthy file every few
  // milliseconds — concurrent readers must detect (CRC), decode around,
  // and auto-repair it. Each flip lands in the stored stripe of a random
  // data chunk, and the untimed read-back below reads every data chunk, so
  // every flip meets a read even though reads verify only the segments
  // they decode from. Only files with no lost blocks are touched, so the
  // stripe never exceeds the code's correction budget. Flips still due when
  // the clients finish land at once, before the read-back: a run that
  // outpaces the timer still meets every flip it asked for.
  std::thread chaos;
  Rng chaos_rng = setup_rng.fork();
  if (opt.corruptions > 0) {
    chaos = std::thread([&]() mutable {
      for (size_t i = 0; i < opt.corruptions; ++i) {
        if (!done.load())
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const size_t f = chaos_rng.next_below(opt.files);
        std::unique_lock<std::shared_mutex> lock(*file_mu[f]);
        if (!store.lost_blocks(f).empty()) continue;
        const codes::StripeRef at =
            code.engine().chunk_positions()[chaos_rng.next_below(num_chunks)];
        store.corrupt_block(f, at.block,
                            at.pos * opt.chunk_bytes +
                                chaos_rng.next_below(opt.chunk_bytes));
      }
    });
  }

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> thread_errors(opt.clients);
  Rng fork_rng(opt.seed * 7919 + 17);
  for (size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c, rng = fork_rng.fork()]() mutable {
      try {
        client_loop(std::move(rng));
      } catch (...) {
        thread_errors[c] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall0)
                      .count();
  done.store(true);
  if (chaos.joinable()) chaos.join();
  for (const std::exception_ptr& e : thread_errors)
    if (e) std::rethrow_exception(e);
  // Untimed read-back of every file after a chaos run: reads verify only
  // the segments they decode from, so this is what guarantees each flip
  // that landed meets a read.
  if (opt.corruptions > 0) {
    ReaderOptions ropt;
    ropt.batch_chunks = opt.batch_chunks;
    ropt.admission = private_gate.get();
    StripedReader reader(store, ropt);
    for (size_t f = 0; f < opt.files; ++f) {
      const auto got =
          opt.pipelined ? reader.read_range(f, 0, file_bytes)
                        : serial_read(store, f, 0, file_bytes, batch_bytes);
      GALLOPER_CHECK_MSG(got.has_value(),
                         "load-gen read lost data: file " << f);
      if (opt.verify && *got != mirror[f])
        mirror_mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const store::FileStore::ReadStats stats1 = store.read_stats();
  const ClientStats client1 = client_stats();
  result.reads = reads.load();
  result.updates = updates.load();
  result.errors = errors.load();
  result.ops = result.reads + result.updates + result.errors;
  result.bytes_read = bytes_read.load();
  result.bytes_written += bytes_updated.load();
  result.ops_per_s = result.wall_s > 0 ? result.ops / result.wall_s : 0;
  result.mib_per_s =
      result.wall_s > 0
          ? static_cast<double>(result.bytes_read) / (1 << 20) / result.wall_s
          : 0;
  result.p50_s = latency.quantile_s(0.50);
  result.p99_s = latency.quantile_s(0.99);
  result.p999_s = latency.quantile_s(0.999);
  result.degraded_reads = stats1.degraded_reads - stats0.degraded_reads;
  result.crc_failures = stats1.crc_failures - stats0.crc_failures;
  result.auto_repairs = stats1.auto_repairs - stats0.auto_repairs;
  result.client_fallbacks = client1.fallbacks - client0.fallbacks;
  const BlockCacheStats cache1 = cache->stats();
  result.cache_hits = cache1.hits - cache0.hits;
  result.cache_misses = cache1.misses - cache0.misses;
  result.cache_hit_bytes = cache1.hit_bytes - cache0.hit_bytes;
  const uint64_t lookups = result.cache_hits + result.cache_misses;
  result.cache_hit_rate =
      lookups > 0 ? static_cast<double>(result.cache_hits) /
                        static_cast<double>(lookups)
                  : 0;
  result.mirror_mismatches = mirror_mismatches.load();
  result.bit_identical = result.mirror_mismatches == 0;
  return result;
}

std::string format_result(const LoadGenResult& r) {
  std::ostringstream os;
  os << "ops " << r.ops << " (reads " << r.reads << ", updates " << r.updates
     << ", refused " << r.errors << ") in " << r.wall_s << " s\n"
     << "throughput " << r.ops_per_s << " ops/s, " << r.mib_per_s
     << " MiB/s read\n"
     << "latency p50 " << r.p50_s * 1e3 << " ms, p99 " << r.p99_s * 1e3
     << " ms, p99.9 " << r.p999_s * 1e3 << " ms\n"
     << "faults: degraded reads " << r.degraded_reads << ", crc failures "
     << r.crc_failures << ", auto repairs " << r.auto_repairs
     << ", client fallbacks " << r.client_fallbacks << "\n"
     << "cache: hits " << r.cache_hits << ", misses " << r.cache_misses
     << " (" << r.cache_hit_rate * 100 << "% hit rate, "
     << static_cast<double>(r.cache_hit_bytes) / (1 << 20) << " MiB served)\n"
     << "bit identical: " << (r.bit_identical ? "yes" : "NO")
     << " (mismatches " << r.mirror_mismatches << ")";
  return os.str();
}

}  // namespace galloper::client
