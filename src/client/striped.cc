#include "client/striped.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <utility>

#include "client/cache.h"
#include "codes/engine.h"
#include "codes/plan.h"
#include "io/fetch.h"
#include "rt/queue.h"
#include "util/check.h"

namespace galloper::client {

namespace {

// Thrown when a batch fetch finds a block the session planned with gone (a
// concurrent quarantine or kill) or a segment corrupt. The caller falls
// back to direct FileStore::read_range_nofault, which quarantines,
// replans and heals from scratch.
struct SessionInvalid : std::runtime_error {
  SessionInvalid() : std::runtime_error("client read session went stale") {}
};

struct ClientCounters {
  std::atomic<uint64_t> reads{0}, writes{0};
  std::atomic<uint64_t> bytes_read{0}, bytes_written{0};
  std::atomic<uint64_t> batches{0}, fallbacks{0};
  std::atomic<uint64_t> cache_reads{0};
};

ClientCounters& counters() {
  static ClientCounters c;
  return c;
}

}  // namespace

// ---- AdmissionControl ----------------------------------------------------

AdmissionControl::AdmissionControl(size_t limit) : limit_(limit) {
  GALLOPER_CHECK(limit_ > 0);
}

AdmissionControl& AdmissionControl::global() {
  static AdmissionControl* gate = [] {
    size_t limit = 8;
    if (const char* env = std::getenv("GALLOPER_CLIENT_ADMIT")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) limit = std::min<size_t>(static_cast<size_t>(n), 1024);
    }
    return new AdmissionControl(limit);  // leaked: outlives static dtors
  }();
  return *gate;
}

AdmissionControl::Ticket::~Ticket() {
  if (ac_) ac_->release();
}

AdmissionControl::Ticket AdmissionControl::admit() {
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight_ >= limit_) {
    ++waited_;
    cv_.wait(lock, [&] { return in_flight_ < limit_; });
  }
  ++in_flight_;
  ++admitted_;
  peak_ = std::max(peak_, in_flight_);
  return Ticket(this);
}

void AdmissionControl::release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
  }
  cv_.notify_one();
}

AdmissionControl::Stats AdmissionControl::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.admitted = admitted_;
  s.waited = waited_;
  s.in_flight = in_flight_;
  s.peak = peak_;
  s.limit = limit_;
  return s;
}

// ---- process-wide client stats -------------------------------------------

ClientStats client_stats() {
  ClientStats s;
  const ClientCounters& c = counters();
  s.reads = c.reads.load(std::memory_order_relaxed);
  s.writes = c.writes.load(std::memory_order_relaxed);
  s.bytes_read = c.bytes_read.load(std::memory_order_relaxed);
  s.bytes_written = c.bytes_written.load(std::memory_order_relaxed);
  s.batches = c.batches.load(std::memory_order_relaxed);
  s.fallbacks = c.fallbacks.load(std::memory_order_relaxed);
  s.cache_reads = c.cache_reads.load(std::memory_order_relaxed);
  return s;
}

util::LatencyHistogram& client_latency_histogram() {
  static util::LatencyHistogram* hist = new util::LatencyHistogram();
  return *hist;
}

// ---- StripedReader -------------------------------------------------------

StripedReader::StripedReader(store::FileStore& store, ReaderOptions opt)
    : store_(store), opt_(opt) {
  GALLOPER_CHECK(opt_.batch_chunks > 0);
}

std::optional<Buffer> StripedReader::read_range(store::FileId id,
                                                size_t offset, size_t length) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto record = [&] {
    client_latency_histogram().record_ns(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  };
  // Cache-first: a range fully covered by current-generation verified
  // entries skips the admission gate too — a hot-head hit does no I/O, so
  // making it queue for a pool ticket would throttle exactly the traffic
  // the cache exists to absorb.
  if (auto cached = store_.read_range_cached(id, offset, length)) {
    counters().reads.fetch_add(1, std::memory_order_relaxed);
    counters().cache_reads.fetch_add(1, std::memory_order_relaxed);
    counters().bytes_read.fetch_add(length, std::memory_order_relaxed);
    record();
    return cached;
  }
  AdmissionControl& gate =
      opt_.admission ? *opt_.admission : AdmissionControl::global();
  const AdmissionControl::Ticket ticket = gate.admit();
  counters().reads.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_read.fetch_add(length, std::memory_order_relaxed);
  try {
    auto out = read_pipelined(id, offset, length);
    record();
    return out;
  } catch (const SessionInvalid&) {
    // The session went stale (a concurrent quarantine or kill, an
    // unreadable block) or a batch met a corrupt segment. The nofault
    // direct read replans, re-verifies and heals from scratch with the
    // fetch schedule PINNED: this call already drew (and served) its
    // schedule through the batch fetches above, and re-drawing for the
    // retry would make the process-wide seeded fault sequence depend on
    // whether the race hit, so degraded chaos runs would stop replaying
    // deterministically.
    counters().fallbacks.fetch_add(1, std::memory_order_relaxed);
    auto out = store_.read_range_nofault(id, offset, length);
    record();
    return out;
  }
}

namespace {

// One pipeline batch: delivers file bytes [lo, hi).
struct BatchDesc {
  size_t lo = 0, hi = 0;
};

// First-wins landing slot for one plan slot's fetch: the primary fetch and
// its hedged re-fetch run the same body, the first to finish publishes
// `got`, and the loser's copies die with the loser.
struct Landing {
  std::mutex mu;
  bool filled = false;
  store::FileStore::SegmentFetch got;
};

// A batch's fetch in flight: one FetchSet keyed by plan slot. Per slot,
// missing[s] lists the segments it fetches for this batch (empty: nothing
// to fetch — an earlier batch or the block cache staged them already) and
// landing[s] receives them.
struct InFlightBatch {
  BatchDesc desc;
  std::vector<std::vector<size_t>> missing;
  std::vector<std::unique_ptr<Landing>> landing;
  std::unique_ptr<io::FetchSet> fetches;
};

}  // namespace

std::optional<Buffer> StripedReader::read_pipelined(store::FileId id,
                                                    size_t offset,
                                                    size_t length) {
  const codes::CodecEngine& eng = store_.code().engine();
  const store::FileStore::ReadSession session = store_.begin_verified_read(id);
  const size_t chunk = session.block_bytes / eng.stripes_per_block();
  const size_t file_bytes = eng.num_chunks() * chunk;
  GALLOPER_CHECK_MSG(offset + length <= file_bytes,
                     "range [" << offset << ", " << offset + length
                               << ") beyond file size " << file_bytes);
  if (length == 0) return Buffer();

  // The SESSION plan: plan_decode_fast keyed by the session's available
  // set — the same plan (cache hit, or a deterministic recompile)
  // FileStore::read_range would execute for this pattern, which is what
  // makes the pipelined bytes bit-identical to the direct ones.
  const auto plan = eng.plan_decode_fast(session.available);
  const size_t first_chunk = offset / chunk;
  const size_t last_chunk = (offset + length - 1) / chunk;
  for (size_t c = first_chunk; c <= last_chunk; ++c)
    if (!plan->row(c).solvable) return std::nullopt;  // matches direct

  BlockCache* cache = store_.block_cache();
  const bool use_cache = cache != nullptr && cache->enabled();
  const uint64_t cache_uid = store_.cache_uid();
  // Generation snapshot, taken once per stream: entries are served only at
  // the generation this stream saw, so a concurrent update/repair can never
  // slip refreshed bytes into a range the session planned differently.
  const std::vector<uint64_t> gens =
      use_cache ? store_.block_generations(id) : std::vector<uint64_t>{};

  // Batch descriptors: batch_chunks covered chunks each.
  std::vector<BatchDesc> batches;
  for (size_t c = first_chunk; c <= last_chunk; c += opt_.batch_chunks)
    batches.push_back(
        {std::max(offset, c * chunk),
         std::min(offset + length, (c + opt_.batch_chunks) * chunk)});

  const size_t depth = opt_.queue_depth ? opt_.queue_depth : rt::queue_depth();
  const size_t num_slots = plan->source_blocks().size();
  Buffer out(length);  // each batch decodes into its own [lo, hi) region

  // The body shared by a slot's primary fetch and its hedged re-fetch:
  // FileStore's verified fetch of exactly the missing segments, published
  // first-wins. True when the fetch was kOk.
  const auto make_fetch = [&](InFlightBatch& f, size_t s) {
    return [&store = store_, id, b = plan->source_blocks()[s],
            segs = &f.missing[s], landing = f.landing[s].get()] {
      if (fault::FaultInjector* inj = store.fault_injector())
        inj->crash_point("store.fetch");
      store::FileStore::SegmentFetch got = store.fetch_segments(id, b, *segs);
      const bool ok = got.status == store::FileStore::FetchStatus::kOk;
      std::lock_guard<std::mutex> lock(landing->mu);
      if (!landing->filled) {
        landing->got = std::move(got);
        landing->filled = true;
      }
      return ok;
    };
  };
  const auto segment_bytes = [&](const std::vector<size_t>& segs) {
    size_t total = 0;
    for (size_t g : segs)
      total += store::segment_size(session.block_bytes, g);
    return total;
  };

  // The stream's verified segments, shared by every batch: a segment is
  // fetched and verified at most once per stream, by the first batch that
  // reads it (`claimed`), and later batches decode from the same copy.
  store::StagedSegments staged(eng.num_blocks(), session.block_bytes);
  std::vector<std::vector<bool>> claimed(
      eng.num_blocks(),
      std::vector<bool>(store::segment_count(session.block_bytes), false));

  // Starting a batch: per plan slot, the unclaimed segments are first
  // looked up in the cache at the stream's generation snapshot — hits are
  // staged with NO fetch (a fully-hot batch never touches the I/O pool) —
  // and ONE fetch per slot verifies the rest. Hedged re-fetches run the
  // same body stall-free with first-wins publication (Landing). The
  // fault schedule is drawn on the calling thread in slot order — one
  // draw_fetch per fetch actually issued (cache hits and already-staged
  // segments draw nothing, like any elided I/O).
  const auto start_batch = [&](const BatchDesc& d) {
    InFlightBatch f;
    f.desc = d;
    f.missing = store::plan_source_segments(*plan, chunk, d.lo, d.hi);
    f.landing.resize(num_slots);
    f.fetches = std::make_unique<io::FetchSet>();
    for (size_t s = 0; s < num_slots; ++s) {
      const size_t block_id = plan->source_blocks()[s];
      std::vector<size_t>& segs = f.missing[s];
      std::erase_if(segs, [&](size_t g) {
        if (claimed[block_id][g]) return true;
        claimed[block_id][g] = true;
        if (!use_cache) return false;
        auto hit = cache->get(cache_uid, id, block_id, g, gens[block_id]);
        if (hit == nullptr) return false;
        staged.put(block_id, g, std::move(hit));
        return true;
      });
      if (segs.empty()) continue;
      // A block whose reads keep failing (injected) makes the session
      // stale: the fallback read replans without drawing again.
      const std::optional<double> stall_s = store_.draw_fetch();
      if (!stall_s) throw SessionInvalid();
      f.landing[s] = std::make_unique<Landing>();
      f.fetches->fetch(s, *stall_s, make_fetch(f, s), /*hedge=*/false,
                       segment_bytes(segs));
    }
    return f;
  };

  const auto finish_batch = [&](InFlightBatch f) {
    // Exhaustive await (every slot op resolves); a slot still parked in
    // its injected stall past the hedge deadline is re-fetched stall-free,
    // so the batch's tail is the deadline, not the stall. A budget-denied
    // hedge leaves hedged[s] unset, exactly as if it never fired.
    std::vector<bool> hedged(num_slots, false);
    f.fetches->await(
        [](const std::vector<size_t>&) { return false; },
        [&](const std::vector<size_t>& pending) {
          for (size_t s : pending) {
            if (hedged[s]) continue;
            hedged[s] = f.fetches->fetch(s, 0.0, make_fetch(f, s),
                                         /*hedge=*/true,
                                         segment_bytes(f.missing[s]));
          }
        });
    f.fetches->join();
    f.fetches->rethrow_any_failure();
    // A block gone since the session (a concurrent quarantine or kill) or a
    // corrupt segment ends the stream: the direct fallback read
    // quarantines, replans and heals. Nothing unverified is ever staged or
    // cached.
    for (size_t s = 0; s < num_slots; ++s) {
      if (!f.landing[s]) continue;
      const store::FileStore::SegmentFetch& got = f.landing[s]->got;
      const size_t block_id = plan->source_blocks()[s];
      if (got.status != store::FileStore::FetchStatus::kOk)
        throw SessionInvalid();
      for (size_t j = 0; j < f.missing[s].size(); ++j) {
        if (use_cache)
          cache->put(cache_uid, id, block_id, f.missing[s][j], got.generation,
                     got.segments[j]);
        staged.put(block_id, f.missing[s][j], got.segments[j]);
      }
    }
    counters().batches.fetch_add(1, std::memory_order_relaxed);
    return f.desc;
  };

  // Decode one fetched batch: the session plan's rows over the staged
  // verified segments — the same decode FileStore::read_range runs —
  // straight into the batch's region of `out`.
  const auto decode_batch = [&](const BatchDesc& d) {
    store::decode_staged(*plan, chunk, d.lo, d.hi, staged,
                         out.data() + (d.lo - offset));
  };

  // The window: up to `depth` batches' fetches in flight on the I/O pool
  // while the caller decodes the oldest landed batch, in order, straight
  // into `out`. The stalls of in-flight batches overlap each other and the
  // decode; no stage threads are needed for that — the fetches already run
  // on the pool. On a throw, ~InFlightBatch cancel-and-joins every fetch
  // still in the window, so none outlives this call.
  std::deque<InFlightBatch> window;
  size_t next = 0;
  while (next < batches.size() || !window.empty()) {
    if (next < batches.size() && window.size() < depth) {
      window.push_back(start_batch(batches[next++]));
      continue;
    }
    InFlightBatch oldest = std::move(window.front());
    window.pop_front();
    decode_batch(finish_batch(std::move(oldest)));
  }
  return out;
}

// ---- StripedWriter -------------------------------------------------------

StripedWriter::StripedWriter(store::FileStore& store, WriterOptions opt)
    : store_(store), opt_(opt) {
  GALLOPER_CHECK(opt_.slice_bytes > 0);
}

namespace {

// One writer slice: the intra-chunk byte range [lo, lo + len) of every
// chunk, gathered into a contiguous (num_chunks × len) sub-file.
struct SliceJob {
  size_t lo = 0, len = 0;
  Buffer sub;  // gathered sub-file (slice stage) — num_chunks · len bytes
};

struct EncodedSlice {
  size_t lo = 0, len = 0;
  std::vector<Buffer> blocks;  // stripes_per_block · len bytes each
};

}  // namespace

store::FileId StripedWriter::write(ConstByteSpan file) {
  const codes::CodecEngine& eng = store_.code().engine();
  const size_t n = eng.num_chunks();
  GALLOPER_CHECK_MSG(!file.empty() && file.size() % n == 0,
                     "file size must be a positive multiple of the "
                         << n << "-chunk stripe");
  AdmissionControl& gate =
      opt_.admission ? *opt_.admission : AdmissionControl::global();
  const AdmissionControl::Ticket ticket = gate.admit();
  counters().writes.fetch_add(1, std::memory_order_relaxed);
  counters().bytes_written.fetch_add(file.size(), std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();

  const size_t chunk = file.size() / n;
  const size_t spb = eng.stripes_per_block();
  const size_t depth = opt_.queue_depth ? opt_.queue_depth : rt::queue_depth();

  // Full blocks assembled slice by slice. Buffer(n) bytes are
  // indeterminate until every slice lands — each byte is written exactly
  // once below.
  std::vector<Buffer> full;
  full.reserve(eng.num_blocks());
  for (size_t b = 0; b < eng.num_blocks(); ++b)
    full.emplace_back(spb * chunk);

  rt::BoundedQueue<SliceJob> slice_q(depth);
  rt::BoundedQueue<EncodedSlice> enc_q(depth);
  const auto abort = [&](std::exception_ptr e) {
    slice_q.poison(e);
    enc_q.poison(e);
  };

  // Slice stage: gather the intra-chunk columns. Encode stage: encode each
  // sub-file — because the GF kernels are bytewise, block byte j of the
  // sub-file encode equals block bytes [p·chunk + lo, p·chunk + lo + len)
  // of the full encode, so assembling slices reproduces the direct write's
  // blocks exactly.
  rt::StageThread slice_stage(
      [&] {
        for (size_t lo = 0; lo < chunk; lo += opt_.slice_bytes) {
          SliceJob job;
          job.lo = lo;
          job.len = std::min(opt_.slice_bytes, chunk - lo);
          job.sub = Buffer(n * job.len);
          for (size_t i = 0; i < n; ++i)
            std::memcpy(job.sub.data() + i * job.len,
                        file.data() + i * chunk + lo, job.len);
          if (!slice_q.push(std::move(job))) return;
        }
        slice_q.close();
      },
      abort);
  rt::StageThread encode_stage(
      [&] {
        while (auto job = slice_q.pop()) {
          EncodedSlice enc;
          enc.lo = job->lo;
          enc.len = job->len;
          enc.blocks = eng.encode(ConstByteSpan(job->sub));
          if (!enc_q.push(std::move(enc))) return;
        }
        enc_q.close();
      },
      abort);

  // Assemble on the caller thread, overlapping the next slice's encode.
  try {
    while (auto enc = enc_q.pop()) {
      for (size_t b = 0; b < full.size(); ++b)
        for (size_t p = 0; p < spb; ++p)
          std::memcpy(full[b].data() + p * chunk + enc->lo,
                      enc->blocks[b].data() + p * enc->len, enc->len);
    }
  } catch (...) {
    abort(nullptr);
    throw;
  }
  slice_stage.join();
  encode_stage.join();
  slice_q.rethrow_if_poisoned();
  enc_q.rethrow_if_poisoned();
  slice_stage.rethrow();
  encode_stage.rethrow();

  const store::FileId fid = store_.write_encoded(std::move(full));
  client_latency_histogram().record_ns(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
  return fid;
}

}  // namespace galloper::client
