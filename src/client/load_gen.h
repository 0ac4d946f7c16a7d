// Closed-loop multi-client load generator over the striped client.
//
// N client threads issue reads (and optionally chunk-aligned updates)
// against one shared FileStore, each waiting for its own op to complete
// before issuing the next (closed loop — offered load tracks service rate,
// so latency quantiles measure the SYSTEM, not a queue of our own making).
// File popularity is uniform or Zipf(theta); a degraded mode attaches a
// FaultInjector with latency spikes and a chaos thread that corrupts live
// blocks mid-run, exercising hedged fetches, session fallbacks, and
// read-triggered auto-repair under concurrency.
//
// Every read is verified against an in-memory mirror of the written files
// (bit_identical in the result), so the throughput/latency numbers are only
// reported for runs whose bytes were right.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace galloper::client {

struct LoadGenOptions {
  // Code shape and data set.
  size_t k = 4, l = 2, g = 2;
  uint64_t seed = 1;
  size_t files = 6;
  size_t chunk_bytes = size_t{8} << 10;

  // Traffic.
  size_t clients = 4;
  size_t ops_per_client = 40;
  double zipf_theta = 0;       // 0 = uniform popularity
  double update_fraction = 0;  // fraction of ops that are in-place updates

  // Fault regime (degraded mode).
  bool degraded = false;
  double stall_p = 0.25;    // per-fetch injected latency probability
  double stall_s = 0.002;   // injected stall length (wall seconds)
  size_t corruptions = 0;   // blocks the chaos thread flips (mid-run, or
                            // at its end if the clients finish first)

  // Client plumbing.
  bool pipelined = true;    // false = direct FileStore::read_range per batch
  size_t batch_chunks = 4;
  bool verify = true;       // check every read against the mirror
  // Client block cache for the run's store: -1 = the process-wide cache
  // (GALLOPER_CLIENT_CACHE), 0 = off (a private disabled cache — fault
  // accounting tests use this so corruptions are actually probed), > 0 = a
  // private cache of that many MiB.
  int cache_mib = -1;
  // Admission gate: 0 = the process-wide gate (GALLOPER_CLIENT_ADMIT),
  // > 0 = a private gate with this limit (the --sweep-admit bench).
  size_t admit_limit = 0;
};

struct LoadGenResult {
  // Offered work.
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t updates = 0;
  uint64_t errors = 0;  // update attempts refused on a degraded stripe

  // Throughput.
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  double wall_s = 0;
  double ops_per_s = 0;
  double mib_per_s = 0;  // read payload

  // Latency quantiles over per-op wall time (log2-ns histogram upper
  // bounds, same math as io::AsyncIo's ledger).
  double p50_s = 0;
  double p99_s = 0;
  double p999_s = 0;

  // Fault accounting (store counters observed over the run).
  uint64_t degraded_reads = 0;
  uint64_t crc_failures = 0;
  uint64_t auto_repairs = 0;
  uint64_t client_fallbacks = 0;

  // Block-cache accounting (deltas of the cache in effect over the run).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_hit_bytes = 0;
  double cache_hit_rate = 0;

  uint64_t mirror_mismatches = 0;     // verified reads that differed
  bool bit_identical = true;          // mirror_mismatches == 0
};

LoadGenResult run_load(const LoadGenOptions& opt);

std::string format_result(const LoadGenResult& r);

}  // namespace galloper::client
