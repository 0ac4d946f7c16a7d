// Compiled codec plans and the process-wide plan cache.
//
// A CodecPlan is everything byte-INDEPENDENT about one engine data path for
// one erasure pattern, computed once: the Gaussian-elimination solve of the
// combination matrix, the per-output-row source lists pre-filtered down to
// nonzero terms (ready for the fused mul_region_multi kernel), and the
// verbatim copy map. Executing a plan is pure kernel dispatch — no linear
// algebra, no submatrix materialization, no per-row coefficient scans.
//
// Why it matters: a degraded read or a recovery storm hits the SAME erasure
// pattern thousands of times (every stripe of every file lost with a
// server), and at small chunk sizes the ~O((kN)³) elimination dominates the
// O(kN·chunk) byte work. Plans live in a sharded, thread-safe LRU keyed by
// engine × op × available-block set × failed block; generator matrices are
// immutable after engine construction, so cached plans never need
// invalidation.
//
// GALLOPER_PLAN_CACHE sizes the cache: unset → 1024 entries, an integer →
// that many entries, "off"/"0" → caching disabled (every call plans
// fresh — the pre-PR-3 behavior, kept reachable for benchmarking).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gf/gf256.h"
#include "util/bytes.h"

namespace galloper::codes {

// The data paths a plan can compile. kDecodeFast doubles as the read_range
// plan (same per-chunk copy-or-solve schedule; read_range just executes the
// rows overlapping the request). kUpdate never hits the pattern cache (its
// schedule — the per-chunk parity consumer list — is built at engine
// construction); it exists so the per-op timing counters cover all paths.
enum class PlanOp : uint8_t {
  kEncode = 0,
  kDecode = 1,
  kDecodeFast = 2,
  kRepair = 3,
  kUpdate = 4,
};
inline constexpr size_t kNumPlanOps = 5;

const char* plan_op_name(PlanOp op);

// Cache key: which engine (identity, not parameters — generators are
// immutable, so identity implies content), which path, which blocks were
// available, and — for repair — which block is being rebuilt.
struct PlanKey {
  uint64_t engine_id = 0;
  PlanOp op = PlanOp::kDecode;
  uint64_t failed = UINT64_MAX;     // repair target; UINT64_MAX when n/a
  std::vector<uint64_t> available;  // block-id bitset, 64 ids per word

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const;
};

// One compiled schedule. Rows are outputs (chunks for decode paths, stripe
// positions for repair, n·N stripes for encode); each is either a verbatim
// copy or a run of (coefficient, source) terms into the fused kernel.
// Sources address as bases[slot] + pos·chunk + offset, where `bases` is the
// per-call table of block base pointers (for encode: one slot, the file,
// with pos = chunk index). Plans are immutable once built — execution is
// lock-free and allocation-free (a thread-local span scratch aside).
class CodecPlan {
 public:
  struct Source {
    uint32_t slot;  // index into source_blocks() / the bases table
    uint32_t pos;   // stripe position within the block (chunk id for encode)
  };
  struct Row {
    uint32_t out = 0;          // output row index (chunk id or stripe pos)
    int32_t copy_slot = -1;    // ≥ 0: verbatim copy from (copy_slot, copy_pos)
    uint32_t copy_pos = 0;
    uint32_t begin = 0;        // combo terms [begin, end) when copy_slot < 0
    uint32_t end = 0;
    bool solvable = true;      // false: this output is outside the row space
  };

  CodecPlan() = default;

  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t r) const { return rows_[r]; }
  // True when every output row is solvable; decode/repair require this,
  // read_range only needs the rows overlapping the request.
  bool fully_solvable() const { return unsolvable_ == 0; }
  // Block ids whose bytes execution reads, in bases-table order. For the
  // engine-owned encode plan this is empty (the single source is the file).
  const std::vector<size_t>& source_blocks() const { return src_blocks_; }
  // The combo terms one row reads (empty for verbatim-copy rows, whose only
  // source is (copy_slot, copy_pos)). Lets a caller that stages blocks
  // itself — the striped client — fetch exactly the (slot, pos) ranges a
  // row will touch before handing run_row a bases table.
  std::span<const Source> row_sources(const Row& row) const {
    if (row.copy_slot >= 0) return {};
    return std::span<const Source>(srcs_.data() + row.begin,
                                   row.end - row.begin);
  }
  // Wall-clock seconds spent compiling (solve + layout), for the counters.
  double plan_seconds() const { return plan_seconds_; }

  // Executes one row over `len` bytes: reads sources at chunk offset
  // `src_off`, writes dst[0, len). The copy/combo branch and the zero-term
  // zeroing case match the uncached path byte-for-byte.
  void run_row(const Row& row, uint8_t* dst, const uint8_t* const* bases,
               size_t chunk, size_t src_off, size_t len) const;
  // run_row with every source resolved by the caller: src(source) is where
  // that source's `len` bytes start (a verbatim-copy row asks once, for
  // {copy_slot, copy_pos}). For sources that are not one contiguous block
  // per slot — the store's verified segment copies. A template, so the
  // resolver inlines: run_row is the executor's inner loop.
  template <typename Resolve>
  void run_row_at(const Row& row, uint8_t* dst, size_t len,
                  Resolve&& src) const {
    if (len == 0) return;
    if (row.copy_slot >= 0) {
      std::copy_n(
          src(Source{static_cast<uint32_t>(row.copy_slot), row.copy_pos}),
          len, dst);
      return;
    }
    // Materialize the row's source spans for the fused kernel. The terms
    // were filtered to nonzero coefficients at plan time, so there is no
    // per-call scan of a dense combination row; the scratch is thread-local
    // and grows to the widest row once, then never allocates again.
    thread_local std::vector<ConstByteSpan> srcs;
    srcs.clear();
    for (const Source& s : row_sources(row)) srcs.emplace_back(src(s), len);
    mul_row(row, dst, len, srcs.data());
  }

  // Work-unit byte cap for execute_batch: rows split into tiles of at most
  // this many bytes, so a huge cell still load-balances across pool
  // runners.
  static constexpr size_t kExecTile = 256 * 1024;
  // Cache budget for one tile's source working set: the tile shrinks below
  // kExecTile until (max sources per row + 1) · tile fits this budget, and
  // units run slice-major, so a tile's sources are fetched once and reused
  // by every row instead of each row streaming the whole cell from memory.
  static constexpr size_t kExecSourceBudget = size_t{512} << 10;

  // Executes EVERY row of the plan over cells of `cell` bytes, fanning
  // rows × cache-line-aligned tiles (≤ kExecTile bytes each) over the
  // rt:: work-stealing pool. dst_of(row) returns the base pointer of that
  // row's output cell; sources address as bases[slot] + pos·cell + offset.
  //
  // This is THE batched execution layer: a batch of B stripes of chunk c
  // is one execute_batch call with cell = B·c over position-major buffers
  // (util/bytes.h interleave_stripes) — each fused mul_region_multi call
  // then covers up to kExecTile contiguous bytes of B stripes instead of
  // B per-stripe calls of c bytes, which is where the SIMD kernels' 64 KiB
  // sweet spot lives. Because the GF kernels are bytewise, the result is
  // bit-identical to executing each stripe alone, for any cell/batch/
  // thread count. All engine data paths (batch of 1 included) route
  // through here; threads == 1 degrades to a plain serial loop over the
  // same tiles. Rows must all be solvable (checked by callers).
  void execute_batch(const uint8_t* const* bases, size_t cell, size_t threads,
                     const std::function<uint8_t*(const Row&)>& dst_of) const;

 private:
  friend class CodecEngine;  // sole builder

  // dst[0, len) = the combination of a combo row's terms over srcs (one
  // span per term, in row order).
  void mul_row(const Row& row, uint8_t* dst, size_t len,
               const ConstByteSpan* srcs) const;

  std::vector<Row> rows_;
  std::vector<gf::Elem> coeffs_;  // flattened terms, parallel to srcs_
  std::vector<Source> srcs_;
  std::vector<size_t> src_blocks_;
  size_t unsolvable_ = 0;
  double plan_seconds_ = 0;
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;       // lookups that had to compile (cache enabled)
  uint64_t evictions = 0;
  uint64_t entries = 0;      // currently resident plans
  uint64_t capacity = 0;     // 0 = caching disabled
};

// Sharded, thread-safe LRU over shared_ptr<const CodecPlan>. Shards cut
// lock contention when many threads decode concurrently (a recovery storm
// on the pool); within a shard, a plain mutex + intrusive list LRU.
// Entries pin nothing: callers hold shared_ptrs, so an evicted plan stays
// valid for in-flight executions and is freed when the last user drops it.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity, size_t shards = 8);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  bool enabled() const { return capacity_ > 0; }
  size_t capacity() const { return capacity_; }

  // The cached plan, or nullptr (also when disabled). Promotes to MRU.
  std::shared_ptr<const CodecPlan> get(const PlanKey& key);

  // Inserts (or replaces) a plan, evicting LRU entries past capacity.
  // No-op when disabled.
  void put(const PlanKey& key, std::shared_ptr<const CodecPlan> plan);

  PlanCacheStats stats() const;

  // Drops every entry and zeroes the counters; with `capacity` ≥ 0 also
  // resizes (0 disables). Tests and benchmarks use this to compare cached
  // vs uncached planning within one process; not safe against concurrent
  // get/put on the same instance mid-resize… it locks all shards, so it is
  // safe, just not meaningful while a storm is running.
  void reset(size_t capacity);
  void clear() { reset(capacity_); }

  // Process-wide cache shared by every engine. First use reads
  // GALLOPER_PLAN_CACHE ("off"/"0" disables, integer sets the entry
  // capacity, default 1024).
  static PlanCache& global();

 private:
  struct Shard;
  Shard& shard_of(const PlanKey& key);

  size_t capacity_;            // total entries across shards
  size_t per_shard_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

// Per-op plan-vs-execute accounting (process-wide, monotone): how long was
// spent compiling plans vs moving bytes on each path. The CLI --stats flag
// and the benches read these; engines record into them unconditionally —
// two steady_clock reads per call, noise next to the byte work.
struct PlanOpStats {
  uint64_t plan_ns = 0;
  uint64_t plans = 0;   // plans compiled (cache misses + uncached builds)
  uint64_t exec_ns = 0;
  uint64_t execs = 0;   // data-path executions
};

PlanOpStats plan_op_stats(PlanOp op);
void record_plan_time(PlanOp op, uint64_t ns);
void record_exec_time(PlanOp op, uint64_t ns);
void reset_plan_op_stats();

// Batched-execution accounting (process-wide, monotone): every
// execute_batch call records how many plan rows it dispatched and how many
// output bytes it wrote. calls vs rows shows the fan-in (rows per kernel
// dispatch round); bytes/ns is the executor's aggregate throughput. The
// CLI prints these under --stats.
struct BatchExecStats {
  uint64_t calls = 0;  // execute_batch invocations
  uint64_t rows = 0;   // plan rows executed
  uint64_t bytes = 0;  // output bytes written
  uint64_t ns = 0;     // wall time inside execute_batch
};

BatchExecStats batch_exec_stats();
void reset_batch_exec_stats();

}  // namespace galloper::codes
