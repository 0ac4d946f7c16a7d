// CodecEngine: the generic linear-code execution engine.
//
// Every code in this library (Reed-Solomon, Pyramid, Carousel, Galloper) is
// fully described by
//   * a stripe-granularity generator matrix  E : (n·N) × (k·N)  over
//     GF(2^8), whose row (b·N + p) gives the coefficients of physical
//     stripe p of block b over the k·N original data chunks, and
//   * the systematic positions: for each data chunk, the stripe that stores
//     it verbatim (E has a unit row there).
//
// Given that description the engine implements encoding, whole-file
// decoding from any sufficient subset of blocks, single-block repair from
// an arbitrary helper set, and the decodability/repairability oracles the
// tests use to verify the paper's failure-tolerance claims. Code classes
// only *construct* matrices; they never reimplement data paths.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codes/layout.h"
#include "codes/plan.h"
#include "la/matrix.h"
#include "util/bytes.h"

namespace galloper::codes {

class CodecEngine {
 public:
  // `chunk_pos[c]` is the stripe holding data chunk c; the corresponding row
  // of `stripe_generator` must be the unit vector e_c (checked).
  CodecEngine(la::Matrix stripe_generator, size_t num_blocks,
              size_t stripes_per_block, std::vector<StripeRef> chunk_pos);

  size_t num_blocks() const { return num_blocks_; }
  size_t stripes_per_block() const { return stripes_per_block_; }
  size_t num_chunks() const { return chunk_pos_.size(); }
  const la::Matrix& generator() const { return generator_; }
  const std::vector<StripeRef>& chunk_positions() const { return chunk_pos_; }

  // Number of data (original) stripes in a block.
  size_t data_stripes_in_block(size_t block) const;

  // For each physical position in `block`: the chunk index stored there, or
  // SIZE_MAX for a parity stripe.
  const std::vector<size_t>& chunks_of_block(size_t block) const;

  // ---- Data paths -------------------------------------------------------

  // One method per operation. `threads` (≥ 1, CheckError otherwise) is the
  // runner count on the process-wide persistent work-stealing pool
  // (rt::ThreadPool::global()): work splits across output rows and
  // cache-line-aligned byte slices (every output byte at chunk offset i
  // depends only on input bytes at offset i), so runners own disjoint
  // 64-byte-granular regions — no locks, no false sharing. threads == 1 runs
  // the same units in a plain loop on the caller; results are bit-identical
  // for any thread count.
  //
  // Batches: because the GF kernels are bytewise, B logically independent
  // stripes in the position-major layout of util/bytes.h interleave_stripes
  // (per chunk index: the chunk of stripe 0, then stripe 1 … then stripe
  // B-1) ARE one codeword with chunk B·c. Passing that interleaved buffer to
  // any method below runs ONE compiled plan over the whole batch, and the
  // result is bit-identical to B per-stripe calls interleaved the same way
  // (read_range offsets and update_chunk cells then address the interleaved
  // layout). Every fused kernel call covers B·c contiguous bytes, so at
  // small chunk sizes the per-call fixed costs (validation, plan lookup,
  // dispatch) amortize over the batch.

  // Encodes a file of size num_chunks·c (any c ≥ 1) into num_blocks blocks
  // of stripes_per_block·c bytes each. Output buffers are never zero-filled:
  // data stripes are copied and parity stripes written by the
  // overwrite-mode fused kernel, so output memory is touched exactly once.
  std::vector<Buffer> encode(ConstByteSpan file, size_t threads = 1) const;

  // Recovers the original file from the given blocks (block id → contents).
  // nullopt if the available set is insufficient. Every chunk — even one
  // sitting verbatim in an available block — is computed as a linear
  // combination, mirroring the decode the paper measures in Fig. 7b.
  std::optional<Buffer> decode(const std::map<size_t, ConstByteSpan>& blocks,
                               size_t threads = 1) const;

  // Bit-identical to decode(), but copies verbatim every chunk whose
  // systematic stripe is available and solves only for the missing ones —
  // the optimization the paper hints at in Sec. VII-A ("we can expect a
  // lower completion time…"). With striped codes most chunks are direct
  // copies, so this touches far fewer bytes.
  std::optional<Buffer> decode_fast(
      const std::map<size_t, ConstByteSpan>& blocks, size_t threads = 1) const;

  // Rebuilds the contents of `failed` from helper blocks.
  // nullopt if the helper set cannot determine the block.
  std::optional<Buffer> repair_block(
      size_t failed, const std::map<size_t, ConstByteSpan>& helpers,
      size_t threads = 1) const;

  // Reads bytes [offset, offset+length) of the original file from the
  // given blocks without a full decode: available chunks are copied,
  // missing ones reconstructed individually (only the overlapping bytes —
  // never a full scratch chunk). nullopt if some needed chunk is not
  // recoverable from the provided blocks.
  std::optional<Buffer> read_range(
      const std::map<size_t, ConstByteSpan>& blocks, size_t offset,
      size_t length, size_t threads = 1) const;

  // In-place update of one data chunk, in two forms over ONE kernel. The
  // stripes a chunk update writes are update_stripes(chunk): the chunk's
  // home (systematic) stripe first, then every parity stripe whose
  // generator row reads the chunk — for an LRC its local parity and the g
  // global parities, a few stripes rather than every block.
  const std::vector<StripeRef>& update_stripes(size_t chunk) const;

  // The stripe form: `stripes[i]` holds the current bytes of
  // update_stripes(chunk)[i] — one chunk's worth each, modified in place,
  // so a caller can pass views into any buffers (FileStore passes verified
  // segment windows). Writes `new_data` into the home stripe and patches
  // every parity stripe via the delta: parity' = parity ⊕ coeff·(old ⊕
  // new). Returns false, touching nothing, when new_data equals the stored
  // chunk.
  bool update_chunk(size_t chunk, std::span<const ByteSpan> stripes,
                    ConstByteSpan new_data, size_t threads = 1) const;

  // The whole-block form: `blocks` must hold ALL current blocks (modified
  // in place); slices them into the stripe form. Returns the sorted ids of
  // the blocks touched — the write I/O set of a systematic in-place update
  // (empty when nothing changed).
  std::vector<size_t> update_chunk(std::vector<Buffer>& blocks, size_t chunk,
                                   ConstByteSpan new_data,
                                   size_t threads = 1) const;

  // ---- Plans (pattern-compiled schedules) -------------------------------

  // Every data path above runs in two phases: PLAN (Gaussian elimination +
  // kernel-batch layout, byte-independent) and EXECUTE (pure kernel
  // dispatch). Plans are memoized in the process-wide PlanCache keyed by
  // (engine, op, available set, failed block) — a recovery storm or a
  // degraded-read workload that hits one erasure pattern thousands of times
  // pays the elimination once. The methods below expose the plan objects so
  // callers with a long-lived pattern (FileStore repairs, storm waves) can
  // pin one shared_ptr and stay immune to cache eviction or
  // GALLOPER_PLAN_CACHE=off.
  //
  // A returned plan is immutable and valid as long as the shared_ptr lives,
  // even after eviction. Plans encode solvability: decode/repair plans with
  // !fully_solvable() make the corresponding call return nullopt.

  // Plan for decode() from exactly the blocks `available`.
  std::shared_ptr<const CodecPlan> plan_decode(
      const std::vector<size_t>& available) const;
  // Plan for decode_fast() AND read_range() (they share one schedule: per
  // chunk, copy-from-systematic-stripe or solved combination).
  std::shared_ptr<const CodecPlan> plan_decode_fast(
      const std::vector<size_t>& available) const;
  // Plan for repair_block() of `failed` from exactly `helpers`.
  std::shared_ptr<const CodecPlan> plan_repair(
      size_t failed, const std::vector<size_t>& helpers) const;
  // The encode schedule, compiled once at engine construction.
  const CodecPlan& encode_plan() const { return *encode_plan_; }

  // Executes a pinned repair plan. `helpers` must cover the plan's
  // source_blocks() with equal-sized blocks; the plan must come from
  // plan_repair(failed, ...) on this engine (same pattern — checked via the
  // source set and the row count). Bit-identical to
  // repair_block(failed, helpers, threads).
  std::optional<Buffer> repair_block_with_plan(
      const CodecPlan& plan, const std::map<size_t, ConstByteSpan>& helpers,
      size_t threads = 1) const;

  // ---- Oracles (structure only, no data) --------------------------------

  // Whether the blocks determine the whole file. O(1) after the first query
  // of each availability set when num_blocks() <= kDecodableMemoMaxBlocks:
  // answers are memoized per engine in a lazily filled table of 2 bits per
  // availability mask (unknown / no / yes — never built eagerly: for
  // (12,4,2) that would be 2^18 ranks). Larger codes run the Gaussian rank
  // every call. Thread-safe; concurrent first queries of one mask race
  // benignly to store the same answer.
  bool decodable(const std::vector<size_t>& available_blocks) const;
  static constexpr size_t kDecodableMemoMaxBlocks = 20;
  bool can_repair(size_t failed, const std::vector<size_t>& helpers) const;

  // Per-stripe nonzero coefficient count (sparsity diagnostic; parity
  // stripes of an LRC touch few chunks).
  size_t row_support(size_t block, size_t pos) const;

 private:
  la::Matrix rows_of_blocks(const std::vector<size_t>& blocks) const;

  // Cache key for a pattern plan on this engine.
  PlanKey make_key(PlanOp op, const std::vector<size_t>& ids,
                   size_t failed) const;
  // Compiles a pattern plan (no cache involvement). ids must be sorted.
  std::shared_ptr<const CodecPlan> compile_plan(PlanOp op,
                                                const std::vector<size_t>& ids,
                                                size_t failed) const;
  // Cache-through plan lookup: global PlanCache hit, else compile + insert.
  std::shared_ptr<const CodecPlan> pattern_plan(PlanOp op,
                                                const std::vector<size_t>& ids,
                                                size_t failed) const;
  // Validates a block map (equal sizes, multiple of N) and returns the
  // sorted ids + chunk size.
  std::vector<size_t> validate_blocks(
      const std::map<size_t, ConstByteSpan>& blocks, size_t* chunk) const;
  // The one executor behind decode, decode_fast, repair_block and
  // repair_block_with_plan: validate, plan (unless `pinned`), check the
  // plan's row count and solvability, then execute every row into a fresh
  // rows·chunk buffer at row.out·chunk. `failed` is the repair target
  // (SIZE_MAX for the decode ops).
  std::optional<Buffer> run_pattern(
      PlanOp op, size_t failed, const std::map<size_t, ConstByteSpan>& blocks,
      size_t threads, const CodecPlan* pinned = nullptr) const;

  la::Matrix generator_;
  size_t num_blocks_;
  size_t stripes_per_block_;
  // Process-unique id for plan-cache keying. Copies share the id — they
  // carry the same (immutable) generator, so their plans are interchangeable.
  uint64_t engine_id_;
  std::vector<StripeRef> chunk_pos_;
  // block → physical pos → chunk id (SIZE_MAX if parity).
  std::vector<std::vector<size_t>> block_chunks_;
  // Sparse form of generator rows (col, coeff), for the encoder.
  struct Term {
    uint32_t col;
    gf::Elem coeff;
  };
  std::vector<std::vector<Term>> sparse_rows_;
  // Transposed sparsity: for each chunk, the parity stripes touching it
  // (row index + coefficient) — drives update_chunk().
  std::vector<std::vector<Term>> chunk_consumers_;
  // update_stripes(): per chunk, its home stripe, then chunk_consumers_'s
  // stripes in the same order.
  std::vector<std::vector<StripeRef>> update_stripes_;
  // decodable()'s memo: word m / 32 holds mask m's 2-bit state at bit
  // 2·(m % 32) (0 unknown, 1 no, 2 yes). Null above
  // kDecodableMemoMaxBlocks. Shared by copies, like engine_id_.
  std::shared_ptr<std::atomic<uint64_t>[]> decodable_memo_;
  // The encode schedule, compiled once here instead of re-derived per call:
  // one row per output stripe, sources addressed as (slot 0 = the file,
  // pos = chunk index).
  std::shared_ptr<const CodecPlan> encode_plan_;
};

}  // namespace galloper::codes
