// Reproduces paper Fig. 7: encoding (a) and decoding (b) completion time
// for k ∈ {4, 6, 8, 10, 12} with a (k,2) Reed-Solomon code, a (k,2,1)
// Pyramid code, and a (k,2,1) Galloper code. Block size is fixed across k
// (the paper uses 45 MB), so total data grows with k.
//
// Expected shape: time grows ≈ linearly in k; Pyramid ≈ Galloper ≳ RS for
// encoding (one extra parity block); Galloper decoding is the most
// expensive (more parity data inside the k blocks used for decoding).
#include <memory>

#include "bench/common.h"
#include "codes/pyramid.h"
#include "codes/reed_solomon.h"
#include "core/galloper.h"
#include "gf/region_dispatch.h"
#include "rt/pool.h"
#include "util/rng.h"
#include "util/table.h"

namespace galloper {
namespace {

struct Row {
  size_t k;
  double encode_s[3];
  double decode_s[3];
};

void run() {
  using bench::block_view;
  const size_t block_bytes = bench::block_mib() << 20;
  const size_t n_reps = bench::reps();

  bench::print_header("Fig. 7", "encoding/decoding completion time (s)");
  std::printf("GF region kernel backend: %s (force with GALLOPER_GF_ISA="
              "scalar|ssse3|avx2)\n\n",
              gf::isa_name(gf::active_isa()));
  Table enc({"k", "(k,2) RS", "(k,2,1) Pyramid", "(k,2,1) Galloper"});
  Table dec({"k", "(k,2) RS", "(k,2,1) Pyramid", "(k,2,1) Galloper"});
  const size_t pool_threads = rt::ThreadPool::default_threads();
  Table pool({"k", "enc serial", "enc pool", "speedup", "dec serial",
              "dec pool", "speedup"});
  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("fig7_pool_scaling");
  json.key("pool_threads").value(pool_threads);
  bench::write_context(json);
  json.key("rows").begin_array();

  Rng rng(20180701);
  for (size_t k = 4; k <= 12; k += 2) {
    std::unique_ptr<codes::ErasureCode> variants[3] = {
        std::make_unique<codes::ReedSolomonCode>(k, 2),
        std::make_unique<codes::PyramidCode>(k, 2, 1),
        std::make_unique<core::GalloperCode>(k, 2, 1)};

    double enc_mean[3], dec_mean[3];
    for (int v = 0; v < 3; ++v) {
      const auto& code = *variants[v];
      const Buffer file =
          random_buffer(bench::file_bytes_for_block(code, block_bytes), rng);
      Stats enc_stats, dec_stats;
      std::vector<Buffer> blocks = code.encode(file);  // warm-up
      for (size_t rep = 0; rep < n_reps; ++rep)
        enc_stats.add(bench::timed([&] { blocks = code.encode(file); }));

      // Decode with data block 0 removed (the paper's setup): use blocks
      // 1..k and the first parity block.
      std::vector<size_t> ids;
      for (size_t b = 1; b <= k; ++b) ids.push_back(b);
      const auto view = block_view(blocks, ids);
      for (size_t rep = 0; rep < n_reps; ++rep) {
        std::optional<Buffer> out;
        dec_stats.add(bench::timed([&] { out = code.decode(view); }));
        if (!out || *out != file) {
          std::fprintf(stderr, "DECODE MISMATCH for %s\n",
                       code.name().c_str());
          std::exit(1);
        }
      }
      enc_mean[v] = enc_stats.mean();
      dec_mean[v] = dec_stats.mean();
    }
    enc.add_row({std::to_string(k), Table::num(enc_mean[0]),
                 Table::num(enc_mean[1]), Table::num(enc_mean[2])});
    dec.add_row({std::to_string(k), Table::num(dec_mean[0]),
                 Table::num(dec_mean[1]), Table::num(dec_mean[2])});

    // Pool scaling on the Galloper variant: same work through the
    // work-stealing pool with every available hardware thread.
    {
      const auto& code = *variants[2];
      const Buffer file =
          random_buffer(bench::file_bytes_for_block(code, block_bytes), rng);
      std::vector<Buffer> blocks =
          code.engine().encode(file, pool_threads);  // warm-up
      Stats enc_pool, dec_pool;
      for (size_t rep = 0; rep < n_reps; ++rep)
        enc_pool.add(bench::timed([&] {
          blocks = code.engine().encode(file, pool_threads);
        }));
      std::vector<size_t> ids;
      for (size_t b = 1; b <= k; ++b) ids.push_back(b);
      const auto view = block_view(blocks, ids);
      for (size_t rep = 0; rep < n_reps; ++rep) {
        std::optional<Buffer> out;
        dec_pool.add(bench::timed(
            [&] { out = code.engine().decode(view, pool_threads); }));
        if (!out || *out != file) {
          std::fprintf(stderr, "POOL DECODE MISMATCH k=%zu\n", k);
          std::exit(1);
        }
      }
      pool.add_row({std::to_string(k), Table::num(enc_mean[2]),
                    Table::num(enc_pool.mean()),
                    Table::num(enc_mean[2] / enc_pool.mean()),
                    Table::num(dec_mean[2]), Table::num(dec_pool.mean()),
                    Table::num(dec_mean[2] / dec_pool.mean())});
      json.begin_object();
      json.key("k").value(k);
      json.key("encode_serial_s").value(enc_mean[2]);
      json.key("encode_pool_s").value(enc_pool.mean());
      json.key("decode_serial_s").value(dec_mean[2]);
      json.key("decode_pool_s").value(dec_pool.mean());
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();

  std::printf("(a) encoding\n");
  enc.print();
  std::printf("\n(b) decoding (one data block removed, decode from k "
              "blocks)\n");
  dec.print();
  std::printf("\n(c) Galloper through the work-stealing pool (%zu threads)\n",
              pool_threads);
  pool.print();
  std::printf(
      "\nShape check vs paper: encode time grows with k; Pyramid and "
      "Galloper closely track each other above RS; Galloper decode is the "
      "slowest of the three.\n");
  if (const char* path = bench::bench_json_path())
    bench::write_json_file(path, json);
}

}  // namespace
}  // namespace galloper

int main() { galloper::run(); }
