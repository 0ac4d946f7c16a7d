// micro_batch: what stripe-batched plan execution buys at small chunks.
//
// A streaming archive (or any small-object store) codes thousands of
// logically independent stripes with the SAME erasure pattern. Calling the
// per-stripe data paths once per stripe pays the fixed per-call costs —
// plan lookup, output allocation, span setup, kernel dispatch — per stripe,
// and at 1 KiB chunks those costs rival the byte work itself. Passing B
// stripes interleaved position-major to the same entry runs ONE compiled
// plan, so every fused kernel call covers B·chunk contiguous bytes and the
// fixed costs amortize over the batch. This bench times B per-stripe calls vs
// one call on the interleaved data (a codeword with chunk B·c) for encode /
// decode / decode_fast / repair, verifies bit-identity by deinterleaving,
// and reports the speedup.
//
//   GALLOPER_BENCH_MB    ≈ MiB of file data per measurement (default 16)
//   GALLOPER_BENCH_REPS  timing rounds, best-of (default 3)
//   GALLOPER_BENCH_JSON  write machine-readable results there
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "codes/engine.h"
#include "core/galloper.h"
#include "util/rng.h"
#include "util/table.h"

using namespace galloper;

namespace {

struct Cell {
  std::string path;
  size_t chunk_bytes = 0;
  size_t batch = 0;
  size_t bytes_per_call = 0;  // file bytes coded per (batched) call
  double per_stripe_s = 0;    // one call = batch per-stripe calls
  double batched_s = 0;       // one call on the interleaved batch
  bool identical = false;

  double speedup() const { return per_stripe_s / batched_s; }
  double mbps(double s) const {
    return static_cast<double>(bytes_per_call) / s / 1e6;
  }
};

template <typename Fn>
double best_of(size_t rounds, size_t calls, Fn&& fn) {
  double best = 1e300;
  for (size_t r = 0; r < rounds; ++r) {
    const double t = bench::timed([&] {
      for (size_t i = 0; i < calls; ++i) fn();
    });
    best = std::min(best, t / static_cast<double>(calls));
  }
  return best;
}

std::vector<ConstByteSpan> spans_of(const std::vector<Buffer>& bufs) {
  return std::vector<ConstByteSpan>(bufs.begin(), bufs.end());
}

}  // namespace

int main() {
  core::GalloperCode code(4, 2, 1);
  const codes::CodecEngine& e = code.engine();
  const size_t rounds = std::max<size_t>(1, bench::reps());
  Rng rng(20260806);

  std::printf("==== micro_batch — stripe-batched vs per-stripe plan "
              "execution ====\n");
  std::printf("(%s, best of %zu rounds, ~%zu MiB per measurement; batched "
              "input is the per-stripe input interleaved position-major)\n\n",
              code.name().c_str(), rounds, bench::block_mib());

  // Degraded view (block 0 lost) for decode_fast; its local helpers for
  // repair — the storm pattern, same for every stripe in the batch.
  std::vector<size_t> degraded;
  for (size_t b = 1; b < e.num_blocks(); ++b) degraded.push_back(b);
  const std::vector<size_t> helpers = code.repair_helpers(0);

  std::vector<Cell> cells;
  for (size_t chunk : {size_t{1} << 10, size_t{4} << 10}) {
    for (size_t batch : {size_t{1}, size_t{8}, size_t{64}}) {
      const size_t per_call = batch * e.num_chunks() * chunk;
      // Enough calls that warm-path behavior dominates even for the big
      // batches (the first call of a shape pays pool misses and page
      // faults; a warmup call below absorbs the rest).
      const size_t calls = std::max<size_t>(
          8, bench::block_mib() * (size_t{1} << 20) / per_call);

      // Inputs: `batch` independent stripes and their interleaving.
      std::vector<Buffer> files;
      for (size_t i = 0; i < batch; ++i)
        files.push_back(random_buffer(e.num_chunks() * chunk, rng));
      const Buffer batched_file = interleave_stripes(spans_of(files), chunk);

      std::vector<std::vector<Buffer>> per_stripe_blocks;
      for (const Buffer& f : files) per_stripe_blocks.push_back(e.encode(f));
      std::vector<Buffer> batched_blocks;
      for (size_t b = 0; b < e.num_blocks(); ++b) {
        std::vector<ConstByteSpan> pieces;
        for (const auto& blocks : per_stripe_blocks)
          pieces.emplace_back(blocks[b]);
        batched_blocks.push_back(interleave_stripes(pieces, chunk));
      }
      std::vector<std::map<size_t, ConstByteSpan>> dviews, hviews;
      for (const auto& blocks : per_stripe_blocks) {
        dviews.push_back(bench::block_view(blocks, degraded));
        hviews.push_back(bench::block_view(blocks, helpers));
      }
      const auto bdview = bench::block_view(batched_blocks, degraded);
      const auto bhview = bench::block_view(batched_blocks, helpers);

      // -- encode ---------------------------------------------------------
      {
        Cell c{"encode", chunk, batch, per_call};
        // Identity check doubles as the warmup for both variants.
        const auto got = e.encode(batched_file);
        c.identical = true;
        for (size_t b = 0; b < got.size(); ++b) {
          const auto parts = deinterleave_stripes(got[b], batch, chunk);
          for (size_t i = 0; i < batch; ++i)
            c.identical &= parts[i] == per_stripe_blocks[i][b];
        }
        // The baseline holds every stripe's output live for the call, as a
        // real consumer (the streaming pipeline's segment batch) must —
        // letting the allocator recycle one hot stripe 64 times would
        // credit the baseline with memory traffic it never gets to skip.
        std::vector<std::vector<Buffer>> sink;
        c.per_stripe_s = best_of(rounds, calls, [&] {
          sink.clear();
          for (const Buffer& f : files) sink.push_back(e.encode(f));
        });
        c.batched_s =
            best_of(rounds, calls, [&] { (void)e.encode(batched_file); });
        cells.push_back(std::move(c));
      }
      // -- decode (full: every chunk solved as a combination) -------------
      {
        Cell c{"decode", chunk, batch, per_call};
        const auto got = *e.decode(bdview);
        const auto parts = deinterleave_stripes(got, batch, chunk);
        c.identical = true;
        for (size_t i = 0; i < batch; ++i) c.identical &= parts[i] == files[i];
        std::vector<Buffer> sink;
        c.per_stripe_s = best_of(rounds, calls, [&] {
          sink.clear();
          for (const auto& v : dviews) sink.push_back(*e.decode(v));
        });
        c.batched_s = best_of(rounds, calls, [&] { (void)*e.decode(bdview); });
        cells.push_back(std::move(c));
      }
      // -- decode_fast ----------------------------------------------------
      {
        Cell c{"decode_fast", chunk, batch, per_call};
        const auto got = *e.decode_fast(bdview);
        const auto parts = deinterleave_stripes(got, batch, chunk);
        c.identical = true;
        for (size_t i = 0; i < batch; ++i) c.identical &= parts[i] == files[i];
        std::vector<Buffer> sink;
        c.per_stripe_s = best_of(rounds, calls, [&] {
          sink.clear();
          for (const auto& v : dviews) sink.push_back(*e.decode_fast(v));
        });
        c.batched_s =
            best_of(rounds, calls, [&] { (void)*e.decode_fast(bdview); });
        cells.push_back(std::move(c));
      }
      // -- repair ---------------------------------------------------------
      {
        Cell c{"repair", chunk, batch, per_call};
        const auto got = *e.repair_block(0, bhview);
        const auto parts = deinterleave_stripes(got, batch, chunk);
        c.identical = true;
        for (size_t i = 0; i < batch; ++i)
          c.identical &= parts[i] == per_stripe_blocks[i][0];
        std::vector<Buffer> sink;
        c.per_stripe_s = best_of(rounds, calls, [&] {
          sink.clear();
          for (const auto& v : hviews) sink.push_back(*e.repair_block(0, v));
        });
        c.batched_s =
            best_of(rounds, calls, [&] { (void)*e.repair_block(0, bhview); });
        cells.push_back(std::move(c));
      }
    }
  }

  Table table({"path", "chunk (KiB)", "batch", "per-stripe (MB/s)",
               "batched (MB/s)", "speedup", "bit-exact"});
  for (const Cell& c : cells)
    table.add_row({c.path, std::to_string(c.chunk_bytes >> 10),
                   std::to_string(c.batch), Table::num(c.mbps(c.per_stripe_s)),
                   Table::num(c.mbps(c.batched_s)), Table::num(c.speedup()),
                   c.identical ? "yes" : "NO"});
  table.print();

  const codes::BatchExecStats st = codes::batch_exec_stats();
  std::printf("\nbatched executor over this run: %llu dispatches, %llu rows, "
              "%.1f MB\n",
              static_cast<unsigned long long>(st.calls),
              static_cast<unsigned long long>(st.rows),
              static_cast<double>(st.bytes) / 1e6);

  if (const char* path = bench::bench_json_path()) {
    bench::JsonWriter json;
    json.begin_object();
    json.key("bench").value("micro_batch");
    json.key("code").value(code.name());
    bench::write_context(json);
    json.key("cells").begin_array();
    for (const Cell& c : cells) {
      json.begin_object();
      json.key("path").value(c.path);
      json.key("chunk_bytes").value(c.chunk_bytes);
      json.key("batch").value(c.batch);
      json.key("per_stripe_mbps").value(c.mbps(c.per_stripe_s));
      json.key("batched_mbps").value(c.mbps(c.batched_s));
      json.key("speedup").value(c.speedup());
      json.key("bit_identical").value(c.identical ? 1 : 0);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    bench::write_json_file(path, json);
    std::printf("wrote %s\n", path);
  }

  bool ok = true;
  for (const Cell& c : cells) ok &= c.identical;
  return ok ? 0 : 1;
}
