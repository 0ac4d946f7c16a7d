#include "codes/plan.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>

#include "gf/region.h"
#include "rt/pool.h"
#include "rt/slicer.h"
#include "util/check.h"

namespace galloper::codes {

const char* plan_op_name(PlanOp op) {
  switch (op) {
    case PlanOp::kEncode:
      return "encode";
    case PlanOp::kDecode:
      return "decode";
    case PlanOp::kDecodeFast:
      return "decode_fast";
    case PlanOp::kRepair:
      return "repair";
    case PlanOp::kUpdate:
      return "update";
  }
  return "?";
}

size_t PlanKeyHash::operator()(const PlanKey& k) const {
  // FNV-1a over the key fields; the bitset words carry most of the entropy.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(k.engine_id);
  mix(static_cast<uint64_t>(k.op));
  mix(k.failed);
  for (uint64_t w : k.available) mix(w);
  return static_cast<size_t>(h);
}

void CodecPlan::run_row(const Row& row, uint8_t* dst,
                        const uint8_t* const* bases, size_t chunk,
                        size_t src_off, size_t len) const {
  run_row_at(row, dst, len, [=](const Source& s) {
    return bases[s.slot] + size_t{s.pos} * chunk + src_off;
  });
}

void CodecPlan::mul_row(const Row& row, uint8_t* dst, size_t len,
                        const ConstByteSpan* srcs) const {
  GALLOPER_DCHECK(row.solvable);
  const size_t nterms = row.end - row.begin;
  gf::mul_region_multi(
      ByteSpan(dst, len),
      std::span<const gf::Elem>(coeffs_.data() + row.begin, nterms), srcs,
      nterms);
}

namespace {

struct BatchCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> rows{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> ns{0};
};

BatchCounters& batch_counters() {
  static BatchCounters counters;
  return counters;
}

}  // namespace

void CodecPlan::execute_batch(
    const uint8_t* const* bases, size_t cell, size_t threads,
    const std::function<uint8_t*(const Row&)>& dst_of) const {
  if (rows_.empty() || cell == 0) return;
  const auto t0 = std::chrono::steady_clock::now();

  const size_t nrows = rows_.size();
  // Tiles per row: enough to keep every runner busy when there are fewer
  // rows than runners, never a kernel call wider than kExecTile, and —
  // the locality bound — small enough that one tile's worth of EVERY
  // source fits in L2 together. Units run slice-major (all rows of tile 0,
  // then all rows of tile 1, …): rows of a combo-heavy plan largely read
  // the same source cells, so each tile's sources are pulled from memory
  // once and served from cache for the remaining rows, instead of every
  // row re-streaming the whole cell. A whole-cell tile stays one fused
  // kernel call — the common case for per-stripe chunks.
  size_t max_srcs = 1;
  for (const Row& r : rows_)
    if (r.copy_slot < 0)
      max_srcs = std::max(max_srcs, static_cast<size_t>(r.end - r.begin));
  const size_t tile =
      std::min(kExecTile, std::max(kExecSourceBudget / (max_srcs + 1),
                                   size_t{4} << 10));
  size_t per_row = (cell + tile - 1) / tile;
  if (threads > nrows)
    per_row = std::max(per_row, (threads + nrows - 1) / nrows);
  const std::vector<rt::SliceRange> slices =
      rt::slice_ranges(cell, per_row, rt::kCacheLine);
  const size_t nslices = slices.size();

  const auto run_unit = [&](size_t u) {
    const Row& row = rows_[u % nrows];
    const rt::SliceRange s = slices[u / nrows];
    run_row(row, dst_of(row) + s.lo, bases, cell, s.lo, s.hi - s.lo);
  };
  const size_t units = nrows * nslices;
  if (threads <= 1 || units <= 1) {
    for (size_t u = 0; u < units; ++u) run_unit(u);
  } else {
    rt::parallel_for(rt::ThreadPool::global(), units, threads, run_unit);
  }

  BatchCounters& c = batch_counters();
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.rows.fetch_add(nrows, std::memory_order_relaxed);
  c.bytes.fetch_add(static_cast<uint64_t>(nrows) * cell,
                    std::memory_order_relaxed);
  c.ns.fetch_add(static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count()),
                 std::memory_order_relaxed);
}

// ---- PlanCache ------------------------------------------------------------

struct PlanCache::Shard {
  std::mutex mu;
  // Front = most recently used. The map holds iterators into the list.
  std::list<std::pair<PlanKey, std::shared_ptr<const CodecPlan>>> lru;
  std::unordered_map<PlanKey, decltype(lru)::iterator, PlanKeyHash> index;
};

PlanCache::PlanCache(size_t capacity, size_t shards) : capacity_(capacity) {
  GALLOPER_CHECK(shards >= 1);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
  per_shard_ = (capacity_ + shards - 1) / shards;
}

PlanCache::~PlanCache() = default;

PlanCache::Shard& PlanCache::shard_of(const PlanKey& key) {
  return *shards_[PlanKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const CodecPlan> PlanCache::get(const PlanKey& key) {
  if (!enabled()) return nullptr;
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // promote to MRU
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void PlanCache::put(const PlanKey& key, std::shared_ptr<const CodecPlan> plan) {
  if (!enabled()) return;
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    // A racing builder got here first; keep its entry (the plans are
    // identical — same key, immutable generator) and just refresh recency.
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.emplace_front(key, std::move(plan));
  s.index.emplace(key, s.lru.begin());
  while (s.lru.size() > per_shard_) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.capacity = capacity_;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    st.entries += s->lru.size();
  }
  return st;
}

void PlanCache::reset(size_t capacity) {
  // Lock every shard so a concurrent get/put sees either the old or the
  // new configuration, never a partial one.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& s : shards_) locks.emplace_back(s->mu);
  for (auto& s : shards_) {
    s->lru.clear();
    s->index.clear();
  }
  capacity_ = capacity;
  per_shard_ = (capacity_ + shards_.size() - 1) / shards_.size();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

PlanCache& PlanCache::global() {
  static PlanCache* cache = [] {
    size_t capacity = 1024;
    if (const char* env = std::getenv("GALLOPER_PLAN_CACHE")) {
      const std::string v(env);
      if (v == "off" || v == "OFF" || v == "0") {
        capacity = 0;
      } else {
        char* end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        GALLOPER_CHECK_MSG(end && *end == '\0' && parsed >= 0,
                           "GALLOPER_PLAN_CACHE must be 'off' or a "
                           "non-negative entry count, got: "
                               << v);
        capacity = static_cast<size_t>(parsed);
      }
    }
    return new PlanCache(capacity);  // leaked: lives for the process
  }();
  return *cache;
}

// ---- Per-op timing counters ----------------------------------------------

namespace {

struct OpCounters {
  std::atomic<uint64_t> plan_ns{0};
  std::atomic<uint64_t> plans{0};
  std::atomic<uint64_t> exec_ns{0};
  std::atomic<uint64_t> execs{0};
};

std::array<OpCounters, kNumPlanOps>& op_counters() {
  static std::array<OpCounters, kNumPlanOps> counters;
  return counters;
}

}  // namespace

PlanOpStats plan_op_stats(PlanOp op) {
  const OpCounters& c = op_counters()[static_cast<size_t>(op)];
  PlanOpStats st;
  st.plan_ns = c.plan_ns.load(std::memory_order_relaxed);
  st.plans = c.plans.load(std::memory_order_relaxed);
  st.exec_ns = c.exec_ns.load(std::memory_order_relaxed);
  st.execs = c.execs.load(std::memory_order_relaxed);
  return st;
}

void record_plan_time(PlanOp op, uint64_t ns) {
  OpCounters& c = op_counters()[static_cast<size_t>(op)];
  c.plan_ns.fetch_add(ns, std::memory_order_relaxed);
  c.plans.fetch_add(1, std::memory_order_relaxed);
}

void record_exec_time(PlanOp op, uint64_t ns) {
  OpCounters& c = op_counters()[static_cast<size_t>(op)];
  c.exec_ns.fetch_add(ns, std::memory_order_relaxed);
  c.execs.fetch_add(1, std::memory_order_relaxed);
}

void reset_plan_op_stats() {
  for (auto& c : op_counters()) {
    c.plan_ns.store(0, std::memory_order_relaxed);
    c.plans.store(0, std::memory_order_relaxed);
    c.exec_ns.store(0, std::memory_order_relaxed);
    c.execs.store(0, std::memory_order_relaxed);
  }
}

BatchExecStats batch_exec_stats() {
  const BatchCounters& c = batch_counters();
  BatchExecStats st;
  st.calls = c.calls.load(std::memory_order_relaxed);
  st.rows = c.rows.load(std::memory_order_relaxed);
  st.bytes = c.bytes.load(std::memory_order_relaxed);
  st.ns = c.ns.load(std::memory_order_relaxed);
  return st;
}

void reset_batch_exec_stats() {
  BatchCounters& c = batch_counters();
  c.calls.store(0, std::memory_order_relaxed);
  c.rows.store(0, std::memory_order_relaxed);
  c.bytes.store(0, std::memory_order_relaxed);
  c.ns.store(0, std::memory_order_relaxed);
}

}  // namespace galloper::codes
