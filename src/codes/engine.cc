#include "codes/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>

#include "gf/region.h"
#include "la/solve.h"
#include "rt/pool.h"
#include "rt/slicer.h"
#include "util/check.h"

namespace galloper::codes {

namespace {

// Cache-tile granularity for delta-propagation in update_chunk; matches the
// fused kernels' internal tiling so a delta tile stays in L1 while every
// dependent parity tile is patched.
constexpr size_t kUpdateTile = 32 * 1024;

// Plan-cache keys carry the engine's identity, assigned once per
// construction (copies share it: same immutable generator, same plans).
std::atomic<uint64_t> g_next_engine_id{1};

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Records the byte-moving phase of a data path into the per-op counters on
// scope exit. Constructed AFTER planning/solvability checks so plan and
// execute time never mix.
class ExecTimer {
 public:
  explicit ExecTimer(PlanOp op) : op_(op), t0_(now_ns()) {}
  ~ExecTimer() { record_exec_time(op_, now_ns() - t0_); }

 private:
  PlanOp op_;
  uint64_t t0_;
};

// Fans body(row, lo, hi) over `threads` pool runners: `rows` output rows ×
// cache-line-aligned byte slices of [0, chunk). With rows >= threads each
// row is one unit (no intra-row split needed); otherwise every row splits
// into enough slices to feed all runners. threads == 1 degrades to a plain
// nested loop over the same units, so serial and parallel results are
// byte-identical by construction. Only read_range still uses this (its rows
// are clipped to the request); the whole-row paths run through
// CodecPlan::execute_batch.
void for_rows_sliced(size_t rows, size_t chunk, size_t threads,
                     const std::function<void(size_t, size_t, size_t)>& body) {
  if (rows == 0 || chunk == 0) return;
  const size_t per_row = rows >= threads ? 1 : (threads + rows - 1) / rows;
  const auto slices = rt::slice_ranges(chunk, per_row, rt::kCacheLine);
  rt::parallel_for(rt::ThreadPool::global(), rows * slices.size(), threads,
                   [&](size_t unit) {
                     const rt::SliceRange& s = slices[unit % slices.size()];
                     body(unit / slices.size(), s.lo, s.hi);
                   });
}

void require_threads(size_t threads) {
  GALLOPER_CHECK_MSG(threads >= 1, "need at least one thread");
}

// Base-pointer table for a pattern plan: one entry per source block, in
// source_blocks() order. The only per-call setup execution needs.
std::vector<const uint8_t*> bases_of(
    const CodecPlan& plan, const std::map<size_t, ConstByteSpan>& blocks) {
  std::vector<const uint8_t*> bases;
  bases.reserve(plan.source_blocks().size());
  for (size_t b : plan.source_blocks()) {
    const auto it = blocks.find(b);
    GALLOPER_CHECK_MSG(it != blocks.end(),
                       "plan needs block " << b << " which is not provided");
    bases.push_back(it->second.data());
  }
  return bases;
}

}  // namespace

CodecEngine::CodecEngine(la::Matrix stripe_generator, size_t num_blocks,
                         size_t stripes_per_block,
                         std::vector<StripeRef> chunk_pos)
    : generator_(std::move(stripe_generator)),
      num_blocks_(num_blocks),
      stripes_per_block_(stripes_per_block),
      engine_id_(g_next_engine_id.fetch_add(1, std::memory_order_relaxed)),
      chunk_pos_(std::move(chunk_pos)) {
  GALLOPER_CHECK(num_blocks_ > 0 && stripes_per_block_ > 0);
  GALLOPER_CHECK_MSG(
      generator_.rows() == num_blocks_ * stripes_per_block_,
      "generator rows " << generator_.rows() << " != n·N "
                        << num_blocks_ * stripes_per_block_);
  GALLOPER_CHECK_MSG(generator_.cols() == chunk_pos_.size(),
                     "generator cols " << generator_.cols()
                                       << " != chunk count "
                                       << chunk_pos_.size());
  if (num_blocks_ <= kDecodableMemoMaxBlocks)  // 2 bits × 2^n masks
    decodable_memo_.reset(new std::atomic<uint64_t>[std::max<size_t>(
        1, (size_t{1} << num_blocks_) / 32)]());
  block_chunks_.assign(num_blocks_,
                       std::vector<size_t>(stripes_per_block_, SIZE_MAX));
  for (size_t c = 0; c < chunk_pos_.size(); ++c) {
    const StripeRef ref = chunk_pos_[c];
    GALLOPER_CHECK(ref.block < num_blocks_ && ref.pos < stripes_per_block_);
    GALLOPER_CHECK_MSG(block_chunks_[ref.block][ref.pos] == SIZE_MAX,
                       "two chunks mapped to the same stripe");
    block_chunks_[ref.block][ref.pos] = c;
    // The systematic property: chunk c's stripe row must be the unit e_c.
    const auto row = generator_.row(ref.block * stripes_per_block_ + ref.pos);
    for (size_t j = 0; j < row.size(); ++j)
      GALLOPER_CHECK_MSG(row[j] == (j == c ? 1 : 0),
                         "chunk " << c << " stripe row is not systematic");
  }

  sparse_rows_.resize(generator_.rows());
  chunk_consumers_.resize(chunk_pos_.size());
  for (size_t r = 0; r < generator_.rows(); ++r) {
    const auto row = generator_.row(r);
    for (size_t j = 0; j < row.size(); ++j)
      if (row[j] != 0)
        sparse_rows_[r].push_back({static_cast<uint32_t>(j), row[j]});
  }
  // Column view over PARITY stripes only (the data stripe of a chunk is
  // updated directly, not via delta).
  for (size_t b = 0; b < num_blocks_; ++b) {
    for (size_t p = 0; p < stripes_per_block_; ++p) {
      if (block_chunks_[b][p] != SIZE_MAX) continue;
      const size_t r = b * stripes_per_block_ + p;
      for (const Term& t : sparse_rows_[r])
        chunk_consumers_[t.col].push_back(
            {static_cast<uint32_t>(r), t.coeff});
    }
  }
  update_stripes_.resize(chunk_pos_.size());
  for (size_t c = 0; c < chunk_pos_.size(); ++c) {
    update_stripes_[c].push_back(chunk_pos_[c]);
    for (const Term& t : chunk_consumers_[c])
      update_stripes_[c].push_back(
          {t.col / stripes_per_block_, t.col % stripes_per_block_});
  }

  // Compile the encode schedule once: sources address the file as slot 0
  // with pos = chunk index, so execution is the same run_row dispatch every
  // other path uses.
  const uint64_t t0 = now_ns();
  auto plan = std::make_shared<CodecPlan>();
  plan->rows_.reserve(generator_.rows());
  for (size_t r = 0; r < generator_.rows(); ++r) {
    CodecPlan::Row row;
    row.out = static_cast<uint32_t>(r);
    const size_t direct =
        block_chunks_[r / stripes_per_block_][r % stripes_per_block_];
    if (direct != SIZE_MAX) {
      row.copy_slot = 0;
      row.copy_pos = static_cast<uint32_t>(direct);
    } else {
      row.begin = static_cast<uint32_t>(plan->srcs_.size());
      for (const Term& t : sparse_rows_[r]) {
        plan->coeffs_.push_back(t.coeff);
        plan->srcs_.push_back({0, t.col});
      }
      row.end = static_cast<uint32_t>(plan->srcs_.size());
    }
    plan->rows_.push_back(row);
  }
  const uint64_t ns = now_ns() - t0;
  plan->plan_seconds_ = static_cast<double>(ns) * 1e-9;
  record_plan_time(PlanOp::kEncode, ns);
  encode_plan_ = std::move(plan);
}

size_t CodecEngine::data_stripes_in_block(size_t block) const {
  GALLOPER_CHECK(block < num_blocks_);
  size_t n = 0;
  for (size_t c : block_chunks_[block])
    if (c != SIZE_MAX) ++n;
  return n;
}

const std::vector<size_t>& CodecEngine::chunks_of_block(size_t block) const {
  GALLOPER_CHECK(block < num_blocks_);
  return block_chunks_[block];
}

// ---- Plan compilation -----------------------------------------------------

la::Matrix CodecEngine::rows_of_blocks(
    const std::vector<size_t>& blocks) const {
  std::vector<size_t> rows;
  rows.reserve(blocks.size() * stripes_per_block_);
  for (size_t b : blocks) {
    GALLOPER_CHECK(b < num_blocks_);
    for (size_t p = 0; p < stripes_per_block_; ++p)
      rows.push_back(b * stripes_per_block_ + p);
  }
  return generator_.select_rows(rows);
}

PlanKey CodecEngine::make_key(PlanOp op, const std::vector<size_t>& ids,
                              size_t failed) const {
  PlanKey key;
  key.engine_id = engine_id_;
  key.op = op;
  key.failed = failed == SIZE_MAX ? UINT64_MAX : static_cast<uint64_t>(failed);
  key.available.assign((num_blocks_ + 63) / 64, 0);
  for (size_t b : ids) key.available[b >> 6] |= uint64_t{1} << (b & 63);
  return key;
}

std::shared_ptr<const CodecPlan> CodecEngine::compile_plan(
    PlanOp op, const std::vector<size_t>& ids, size_t failed) const {
  const uint64_t t0 = now_ns();
  auto plan = std::make_shared<CodecPlan>();
  plan->src_blocks_ = ids;
  // Slot of each available block in the bases table (== its index in ids;
  // basis rows are laid out in the same order, so combination index s maps
  // to slot s / N directly).
  std::vector<uint32_t> slot(num_blocks_, UINT32_MAX);
  for (size_t i = 0; i < ids.size(); ++i)
    slot[ids[i]] = static_cast<uint32_t>(i);

  // The one Gaussian elimination of the pattern; every output row below is
  // a cheap back-substitution query against it.
  const la::RowspaceSolver solver(rows_of_blocks(ids));

  const auto add_combo = [&](uint32_t out, std::span<const gf::Elem> target) {
    CodecPlan::Row row;
    row.out = out;
    row.begin = row.end = static_cast<uint32_t>(plan->srcs_.size());
    if (const auto coeffs = solver.express(target)) {
      for (size_t s = 0; s < coeffs->size(); ++s) {
        if ((*coeffs)[s] == 0) continue;
        plan->coeffs_.push_back((*coeffs)[s]);
        plan->srcs_.push_back(
            {static_cast<uint32_t>(s / stripes_per_block_),
             static_cast<uint32_t>(s % stripes_per_block_)});
      }
      row.end = static_cast<uint32_t>(plan->srcs_.size());
    } else {
      row.solvable = false;
      ++plan->unsolvable_;
    }
    plan->rows_.push_back(row);
  };

  switch (op) {
    case PlanOp::kDecode: {
      // Every chunk is a combination — even one sitting verbatim in an
      // available block — mirroring the full decode the paper measures.
      std::vector<gf::Elem> unit(num_chunks(), 0);
      for (size_t c = 0; c < num_chunks(); ++c) {
        unit[c] = 1;
        add_combo(static_cast<uint32_t>(c), unit);
        unit[c] = 0;
      }
      break;
    }
    case PlanOp::kDecodeFast: {
      // Copy when the chunk's systematic stripe is available, solve
      // otherwise. Solvability is tracked per row so read_range can serve
      // a recoverable range even when some other chunk of the pattern is
      // not recoverable.
      std::vector<gf::Elem> unit(num_chunks(), 0);
      for (size_t c = 0; c < num_chunks(); ++c) {
        const StripeRef ref = chunk_pos_[c];
        if (slot[ref.block] != UINT32_MAX) {
          CodecPlan::Row row;
          row.out = static_cast<uint32_t>(c);
          row.copy_slot = static_cast<int32_t>(slot[ref.block]);
          row.copy_pos = static_cast<uint32_t>(ref.pos);
          plan->rows_.push_back(row);
          continue;
        }
        unit[c] = 1;
        add_combo(static_cast<uint32_t>(c), unit);
        unit[c] = 0;
      }
      break;
    }
    case PlanOp::kRepair: {
      for (size_t p = 0; p < stripes_per_block_; ++p)
        add_combo(static_cast<uint32_t>(p),
                  generator_.row(failed * stripes_per_block_ + p));
      break;
    }
    default:
      GALLOPER_CHECK_MSG(false, "not a pattern-compiled op");
  }

  const uint64_t ns = now_ns() - t0;
  plan->plan_seconds_ = static_cast<double>(ns) * 1e-9;
  record_plan_time(op, ns);
  return plan;
}

std::shared_ptr<const CodecPlan> CodecEngine::pattern_plan(
    PlanOp op, const std::vector<size_t>& ids, size_t failed) const {
  PlanCache& cache = PlanCache::global();
  if (!cache.enabled()) return compile_plan(op, ids, failed);
  const PlanKey key = make_key(op, ids, failed);
  if (auto hit = cache.get(key)) return hit;
  auto plan = compile_plan(op, ids, failed);
  cache.put(key, plan);
  return plan;
}

std::vector<size_t> CodecEngine::validate_blocks(
    const std::map<size_t, ConstByteSpan>& blocks, size_t* chunk) const {
  std::vector<size_t> ids;
  ids.reserve(blocks.size());
  size_t block_bytes = SIZE_MAX;
  for (const auto& [id, data] : blocks) {
    GALLOPER_CHECK(id < num_blocks_);
    ids.push_back(id);
    if (block_bytes == SIZE_MAX) block_bytes = data.size();
    GALLOPER_CHECK_MSG(data.size() == block_bytes,
                       "blocks of unequal size");
  }
  GALLOPER_CHECK(block_bytes % stripes_per_block_ == 0);
  *chunk = block_bytes / stripes_per_block_;
  return ids;  // std::map keys: already sorted
}

std::shared_ptr<const CodecPlan> CodecEngine::plan_decode(
    const std::vector<size_t>& available) const {
  std::vector<size_t> ids = available;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return pattern_plan(PlanOp::kDecode, ids, SIZE_MAX);
}

std::shared_ptr<const CodecPlan> CodecEngine::plan_decode_fast(
    const std::vector<size_t>& available) const {
  std::vector<size_t> ids = available;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return pattern_plan(PlanOp::kDecodeFast, ids, SIZE_MAX);
}

std::shared_ptr<const CodecPlan> CodecEngine::plan_repair(
    size_t failed, const std::vector<size_t>& helpers) const {
  GALLOPER_CHECK(failed < num_blocks_);
  std::vector<size_t> ids = helpers;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  GALLOPER_CHECK_MSG(
      !std::binary_search(ids.begin(), ids.end(), failed),
      "failed block offered as its own helper");
  return pattern_plan(PlanOp::kRepair, ids, failed);
}

// ---- Encode ---------------------------------------------------------------

std::vector<Buffer> CodecEngine::encode(ConstByteSpan file,
                                        size_t threads) const {
  require_threads(threads);
  GALLOPER_CHECK_MSG(!file.empty() && file.size() % num_chunks() == 0,
                     "file size " << file.size()
                                  << " must be a positive multiple of "
                                  << num_chunks());
  const size_t chunk = file.size() / num_chunks();
  // Uninitialized output: every plan row writes its bytes exactly once
  // (data stripes copied, parity stripes via the overwrite-mode kernel).
  std::vector<Buffer> blocks;
  blocks.reserve(num_blocks_);
  for (size_t b = 0; b < num_blocks_; ++b)
    blocks.emplace_back(stripes_per_block_ * chunk);

  const CodecPlan& plan = *encode_plan_;
  const uint8_t* const bases[1] = {file.data()};
  const ExecTimer timer(PlanOp::kEncode);
  plan.execute_batch(bases, chunk, threads, [&](const CodecPlan::Row& row) {
    return blocks[row.out / stripes_per_block_].data() +
           (row.out % stripes_per_block_) * chunk;
  });
  return blocks;
}

// ---- Pattern ops: decode, decode_fast, repair -----------------------------

std::optional<Buffer> CodecEngine::run_pattern(
    PlanOp op, size_t failed, const std::map<size_t, ConstByteSpan>& blocks,
    size_t threads, const CodecPlan* pinned) const {
  require_threads(threads);
  if (blocks.empty()) return std::nullopt;
  size_t chunk = 0;
  const std::vector<size_t> ids = validate_blocks(blocks, &chunk);
  std::shared_ptr<const CodecPlan> owned;
  if (pinned == nullptr) owned = pattern_plan(op, ids, failed);
  const CodecPlan& plan = pinned != nullptr ? *pinned : *owned;

  // Output rows: the file's chunks for the decode ops, the failed block's
  // stripes for repair. A plan of another op would write past the buffer.
  const size_t rows = op == PlanOp::kRepair ? stripes_per_block_
                                            : num_chunks();
  GALLOPER_CHECK_MSG(plan.num_rows() == rows,
                     "plan has " << plan.num_rows() << " rows, "
                                 << plan_op_name(op) << " writes " << rows);
  // The plan resolves solvability BEFORE the (uninitialized) output is
  // touched, so an insufficient set returns nullopt without wasted copying.
  if (!plan.fully_solvable()) return std::nullopt;

  // One pass over all rows: verbatim copies (decode_fast's common case)
  // and solved combinations execute in the same row fan-out.
  const auto bases = bases_of(plan, blocks);
  Buffer out(rows * chunk);  // every row written below
  const ExecTimer timer(op);
  plan.execute_batch(bases.data(), chunk, threads,
                     [&](const CodecPlan::Row& row) {
                       return out.data() + row.out * chunk;
                     });
  return out;
}

std::optional<Buffer> CodecEngine::decode(
    const std::map<size_t, ConstByteSpan>& blocks, size_t threads) const {
  return run_pattern(PlanOp::kDecode, SIZE_MAX, blocks, threads);
}

std::optional<Buffer> CodecEngine::decode_fast(
    const std::map<size_t, ConstByteSpan>& blocks, size_t threads) const {
  return run_pattern(PlanOp::kDecodeFast, SIZE_MAX, blocks, threads);
}

std::optional<Buffer> CodecEngine::repair_block(
    size_t failed, const std::map<size_t, ConstByteSpan>& helpers,
    size_t threads) const {
  GALLOPER_CHECK(failed < num_blocks_);
  GALLOPER_CHECK_MSG(helpers.find(failed) == helpers.end(),
                     "failed block offered as its own helper");
  return run_pattern(PlanOp::kRepair, failed, helpers, threads);
}

std::optional<Buffer> CodecEngine::repair_block_with_plan(
    const CodecPlan& plan, const std::map<size_t, ConstByteSpan>& helpers,
    size_t threads) const {
  return run_pattern(PlanOp::kRepair, SIZE_MAX, helpers, threads, &plan);
}

// ---- Ranged read ----------------------------------------------------------

std::optional<Buffer> CodecEngine::read_range(
    const std::map<size_t, ConstByteSpan>& blocks, size_t offset,
    size_t length, size_t threads) const {
  require_threads(threads);
  if (blocks.empty()) return std::nullopt;
  size_t chunk = 0;
  const std::vector<size_t> ids = validate_blocks(blocks, &chunk);
  const size_t file_bytes = num_chunks() * chunk;
  GALLOPER_CHECK_MSG(offset + length <= file_bytes,
                     "range [" << offset << ", " << offset + length
                               << ") beyond file size " << file_bytes);
  if (length == 0) return Buffer{};

  const size_t first_chunk = offset / chunk;
  const size_t last_chunk = (offset + length - 1) / chunk;

  // Shares the decode_fast plan (identical per-chunk schedule). Solvability
  // is per row, so only the chunks OVERLAPPING the request gate the read —
  // an unrecoverable chunk elsewhere in the file is irrelevant.
  const auto plan = pattern_plan(PlanOp::kDecodeFast, ids, SIZE_MAX);
  for (size_t c = first_chunk; c <= last_chunk; ++c)
    if (!plan->row(c).solvable) return std::nullopt;

  // One pass over the covered chunks: available ones copy their overlap
  // with the request, missing ones reconstruct ONLY the overlapping bytes
  // straight into the output (no full-chunk scratch buffer).
  const auto bases = bases_of(*plan, blocks);
  Buffer range(length);  // every byte covered by exactly one chunk overlap
  const ExecTimer timer(PlanOp::kDecodeFast);
  for_rows_sliced(
      last_chunk - first_chunk + 1, chunk, threads,
      [&](size_t r, size_t slo, size_t shi) {
        const size_t c = first_chunk + r;
        // Intersection of this byte slice with the requested range, in
        // file coordinates.
        const size_t lo = std::max(offset, c * chunk + slo);
        const size_t hi = std::min(offset + length, c * chunk + shi);
        if (lo >= hi) return;
        plan->run_row(plan->row(c), range.data() + (lo - offset),
                      bases.data(), chunk, lo - c * chunk, hi - lo);
      });
  return range;
}

// ---- In-place update ------------------------------------------------------

const std::vector<StripeRef>& CodecEngine::update_stripes(
    size_t chunk) const {
  GALLOPER_CHECK(chunk < num_chunks());
  return update_stripes_[chunk];
}

bool CodecEngine::update_chunk(size_t chunk,
                               std::span<const ByteSpan> stripes,
                               ConstByteSpan new_data, size_t threads) const {
  require_threads(threads);
  const std::vector<StripeRef>& targets = update_stripes(chunk);
  GALLOPER_CHECK_MSG(stripes.size() == targets.size(),
                     "update of chunk " << chunk << " writes "
                                        << targets.size() << " stripes, got "
                                        << stripes.size());
  const size_t chunk_bytes = new_data.size();
  for (const ByteSpan& s : stripes)
    GALLOPER_CHECK_MSG(s.size() == chunk_bytes,
                       "update data must be exactly one chunk: "
                           << chunk_bytes << " vs " << s.size());

  // delta = old ⊕ new, then parity' = parity ⊕ coeff·delta. The schedule —
  // which parity stripes consume this chunk, with which coefficients — is
  // chunk_consumers_, compiled at engine construction; stripes[i + 1] is
  // consumer i's stripe.
  const ByteSpan stored = stripes[0];
  Buffer delta(chunk_bytes);  // sized + memcpy: no per-byte range copy
  std::memcpy(delta.data(), new_data.data(), chunk_bytes);
  gf::xor_region(delta, stored);
  if (std::all_of(delta.begin(), delta.end(),
                  [](uint8_t b) { return b == 0; }))
    return false;  // no change, no I/O
  std::copy(new_data.begin(), new_data.end(), stored.begin());

  // Each runner owns a cache-line-aligned byte slice of the chunk and
  // patches EVERY dependent parity stripe within it (same-offset bytes of
  // different stripes never overlap, so slices are the only partition
  // needed). Inside a slice the delta propagation is tiled so one
  // L1-resident piece of delta patches all dependents before moving on.
  const std::vector<Term>& consumers = chunk_consumers_[chunk];
  const ExecTimer timer(PlanOp::kUpdate);
  const auto slices = rt::slice_ranges(chunk_bytes, threads, rt::kCacheLine);
  rt::parallel_for(
      rt::ThreadPool::global(), slices.size(), threads, [&](size_t si) {
        const rt::SliceRange& s = slices[si];
        for (size_t off = s.lo; off < s.hi; off += kUpdateTile) {
          const size_t len = std::min(kUpdateTile, s.hi - off);
          const ConstByteSpan dslice(delta.data() + off, len);
          for (size_t i = 0; i < consumers.size(); ++i)
            gf::mul_acc_region(stripes[i + 1].subspan(off, len),
                               consumers[i].coeff, dslice);
        }
      });
  return true;
}

std::vector<size_t> CodecEngine::update_chunk(std::vector<Buffer>& blocks,
                                              size_t chunk,
                                              ConstByteSpan new_data,
                                              size_t threads) const {
  GALLOPER_CHECK(chunk < num_chunks());
  GALLOPER_CHECK_MSG(blocks.size() == num_blocks_,
                     "update needs all current blocks");
  const size_t chunk_bytes = blocks[0].size() / stripes_per_block_;
  for (const auto& b : blocks)
    GALLOPER_CHECK_MSG(b.size() == stripes_per_block_ * chunk_bytes,
                       "blocks of unequal size in update");
  GALLOPER_CHECK_MSG(new_data.size() == chunk_bytes,
                     "update data must be exactly one chunk: "
                         << new_data.size() << " vs " << chunk_bytes);
  std::vector<ByteSpan> stripes;
  std::vector<size_t> touched;
  for (const StripeRef& s : update_stripes(chunk)) {
    stripes.emplace_back(blocks[s.block].data() + s.pos * chunk_bytes,
                         chunk_bytes);
    touched.push_back(s.block);
  }
  if (!update_chunk(chunk, stripes, new_data, threads)) return {};
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

// ---- Oracles --------------------------------------------------------------

bool CodecEngine::decodable(
    const std::vector<size_t>& available_blocks) const {
  if (available_blocks.empty()) return num_chunks() == 0;
  const auto rank_says = [&] {
    return la::rank(rows_of_blocks(available_blocks)) == num_chunks();
  };
  if (!decodable_memo_) return rank_says();
  uint64_t mask = 0;
  for (size_t b : available_blocks) {
    GALLOPER_CHECK(b < num_blocks_);
    mask |= uint64_t{1} << b;
  }
  std::atomic<uint64_t>& word = decodable_memo_[mask / 32];
  const unsigned shift = static_cast<unsigned>(mask % 32) * 2;
  // The answer is a pure function of the mask, so relaxed order suffices:
  // a racing first query computes and ORs in the same two bits.
  const uint64_t state = (word.load(std::memory_order_relaxed) >> shift) & 3;
  if (state != 0) return state == 2;
  const bool yes = rank_says();
  word.fetch_or(uint64_t{yes ? 2u : 1u} << shift, std::memory_order_relaxed);
  return yes;
}

bool CodecEngine::can_repair(size_t failed,
                             const std::vector<size_t>& helpers) const {
  GALLOPER_CHECK(failed < num_blocks_);
  if (helpers.empty()) return false;
  const la::Matrix basis = rows_of_blocks(helpers);
  const la::Matrix targets = rows_of_blocks({failed});
  return la::express_in_rowspace(basis, targets).has_value();
}

size_t CodecEngine::row_support(size_t block, size_t pos) const {
  GALLOPER_CHECK(block < num_blocks_ && pos < stripes_per_block_);
  return sparse_rows_[block * stripes_per_block_ + pos].size();
}

}  // namespace galloper::codes
