// Reproduces paper Fig. 8: completion time (a) and disk I/O (b) of
// reconstructing each single block with a (4,2) Reed-Solomon code, a
// (4,2,1) Pyramid code, and a (4,2,1) Galloper code.
//
// Expected shape: blocks 1–6 (data + local parity) repair from k/l = 2
// blocks under Pyramid/Galloper (half the RS time and I/O); block 7 (the
// global parity) costs about the same as RS everywhere.
#include <memory>

#include "bench/common.h"
#include "codes/pyramid.h"
#include "codes/reed_solomon.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "io/async.h"
#include "rt/pool.h"
#include "store/file_store.h"
#include "util/rng.h"
#include "util/table.h"

namespace galloper {
namespace {

void run() {
  using bench::block_view;
  const size_t block_bytes = bench::block_mib() << 20;
  const size_t n_reps = bench::reps();

  bench::print_header("Fig. 8", "single-block reconstruction");

  codes::ReedSolomonCode rs(4, 2);
  codes::PyramidCode pyr(4, 2, 1);
  core::GalloperCode gal(4, 2, 1);
  const codes::ErasureCode* variants[3] = {&rs, &pyr, &gal};

  Rng rng(20180702);
  std::vector<Buffer> blocks_by_code[3];
  Buffer files[3];
  for (int v = 0; v < 3; ++v) {
    files[v] = random_buffer(
        bench::file_bytes_for_block(*variants[v], block_bytes), rng);
    blocks_by_code[v] = variants[v]->encode(files[v]);
  }

  Table time_table(
      {"failed block", "(4,2) RS", "(4,2,1) Pyramid", "(4,2,1) Galloper"});
  Table io_table({"failed block", "(4,2) RS (MB)", "(4,2,1) Pyramid (MB)",
                  "(4,2,1) Galloper (MB)"});
  const size_t pool_threads = rt::ThreadPool::default_threads();
  Table pool_table({"failed block", "Galloper serial", "Galloper pool",
                    "speedup"});
  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("fig8_pool_scaling");
  json.key("pool_threads").value(pool_threads);
  bench::write_context(json);
  json.key("rows").begin_array();

  for (size_t failed = 0; failed < 7; ++failed) {
    std::string cells_t[3], cells_io[3];
    double galloper_serial_s = 0;
    for (int v = 0; v < 3; ++v) {
      const auto& code = *variants[v];
      if (failed >= code.num_blocks()) {  // RS has only 6 blocks
        cells_t[v] = "—";
        cells_io[v] = "—";
        continue;
      }
      const auto helpers = code.repair_helpers(failed);
      const auto view = block_view(blocks_by_code[v], helpers);
      Stats t;
      for (size_t rep = 0; rep < n_reps; ++rep) {
        std::optional<Buffer> out;
        t.add(bench::timed([&] { out = code.repair_block(failed, view); }));
        if (!out || *out != blocks_by_code[v][failed]) {
          std::fprintf(stderr, "REPAIR MISMATCH %s block %zu\n",
                       code.name().c_str(), failed);
          std::exit(1);
        }
      }
      const double mb = static_cast<double>(helpers.size()) *
                        static_cast<double>(blocks_by_code[v][0].size()) /
                        1e6;
      cells_t[v] = Table::num(t.mean());
      cells_io[v] = Table::num(mb);
      if (v == 2) galloper_serial_s = t.mean();
    }
    const std::string label = "block " + std::to_string(failed + 1);
    time_table.add_row({label, cells_t[0], cells_t[1], cells_t[2]});
    io_table.add_row({label, cells_io[0], cells_io[1], cells_io[2]});

    // Same Galloper repair through the pool with all hardware threads.
    {
      const auto helpers = gal.repair_helpers(failed);
      const auto view = block_view(blocks_by_code[2], helpers);
      Stats t;
      for (size_t rep = 0; rep < n_reps; ++rep) {
        std::optional<Buffer> out;
        t.add(bench::timed([&] {
          out = gal.engine().repair_block(failed, view, pool_threads);
        }));
        if (!out || *out != blocks_by_code[2][failed]) {
          std::fprintf(stderr, "POOL REPAIR MISMATCH block %zu\n", failed);
          std::exit(1);
        }
      }
      pool_table.add_row({label, Table::num(galloper_serial_s),
                          Table::num(t.mean()),
                          Table::num(galloper_serial_s / t.mean())});
      json.begin_object();
      json.key("failed_block").value(failed);
      json.key("repair_serial_s").value(galloper_serial_s);
      json.key("repair_pool_s").value(t.mean());
      json.end_object();
    }
  }
  json.end_array();

  // (d) Degraded repair through the FileStore when one helper STALLS: the
  // unhedged gather waits out the stall; the hedged one re-reads the slow
  // helper at the fixed deadline and cancels the loser mid-stall. Small
  // blocks on purpose — this cell measures the latency tail, not bandwidth.
  Table hedge_table({"scenario", "repair wall (ms)", "hedges issued",
                     "hedges won", "bit-exact"});
  {
    sim::Simulation hedge_sim;
    sim::Cluster hedge_cluster(hedge_sim, gal.num_blocks(), sim::ServerSpec{});
    store::FileStore store(hedge_cluster, gal);
    Rng hedge_rng(20260808);
    const Buffer original = random_buffer(
        bench::file_bytes_for_block(
            gal, std::min(block_bytes, size_t{1} << 20)),
        hedge_rng);
    const store::FileId id = store.write(original);
    fault::FaultInjector injector(1);
    store.set_fault_injector(&injector);

    io::AsyncIo& pool = io::AsyncIo::global();
    const io::HedgePolicy saved = pool.hedge_policy();
    const double stall_s = 0.050;
    struct Scenario {
      const char* name;
      bool stall;
      bool hedge;
    } scenarios[] = {
        {"clean helpers", false, true},
        {"one 50 ms stall, hedge off", true, false},
        {"one 50 ms stall, hedged (3 ms deadline)", true, true},
    };
    json.key("hedged_repair").begin_array();
    for (const Scenario& sc : scenarios) {
      io::HedgePolicy policy;
      policy.enabled = sc.hedge;
      policy.fixed_deadline_s = 0.003;
      pool.set_hedge_policy(policy);
      const io::IoStats before = pool.stats();
      Stats t;
      bool exact = true;
      for (size_t rep = 0; rep < n_reps; ++rep) {
        store.fail_server(0);
        store.revive_server(0);
        if (sc.stall) injector.stall_next_reads(1, stall_s);
        std::optional<std::vector<size_t>> helpers_read;
        t.add(bench::timed([&] { helpers_read = store.repair(id, 0); }));
        exact &= helpers_read.has_value() && *store.read(id) == original;
      }
      const io::IoStats after = pool.stats();
      hedge_table.add_row(
          {sc.name, Table::num(t.mean() * 1e3),
           std::to_string(after.hedges_issued - before.hedges_issued),
           std::to_string(after.hedges_won - before.hedges_won),
           exact ? "yes" : "NO"});
      json.begin_object();
      json.key("scenario").value(sc.name);
      json.key("repair_wall_s").value(t.mean());
      json.key("hedges_issued")
          .value(size_t{after.hedges_issued - before.hedges_issued});
      json.key("hedges_won")
          .value(size_t{after.hedges_won - before.hedges_won});
      json.key("bit_identical").value(exact ? 1 : 0);
      json.end_object();
      if (!exact) {
        std::fprintf(stderr, "HEDGED REPAIR MISMATCH (%s)\n", sc.name);
        std::exit(1);
      }
    }
    json.end_array();
    pool.set_hedge_policy(saved);
    store.set_fault_injector(nullptr);
  }
  json.end_object();

  std::printf("(a) completion time (s)\n");
  time_table.print();
  std::printf("\n(b) disk I/O: data read from existing blocks\n");
  io_table.print();
  std::printf("\n(c) Galloper repair through the work-stealing pool "
              "(%zu threads)\n",
              pool_threads);
  pool_table.print();
  std::printf("\n(d) degraded FileStore repair with one stalled helper "
              "(hedged async gather)\n");
  hedge_table.print();
  std::printf(
      "\nShape check vs paper: Pyramid and Galloper repair blocks 1-6 from "
      "2 blocks (half the RS I/O); the global parity (block 7) reads k=4 "
      "blocks like RS.\n");
  if (const char* path = bench::bench_json_path())
    bench::write_json_file(path, json);
}

}  // namespace
}  // namespace galloper

int main() { galloper::run(); }
