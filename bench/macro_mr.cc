// macro_mr: the paper's headline (Figs. 9/10) measured LIVE on the real
// coded store — MapReduce jobs whose map tasks stream original-data splits
// out of FileStore through mr::StoreRunner, instead of replaying split
// structure on the DES simulator.
//
// Per job (wordcount / terasort / grep), the SAME input file is encoded
// with a (4,2,1) Galloper code and a (4,2,1) Pyramid code into two stores,
// and the job runs with one map slot per data-holding server: k+l+g = 7
// slots for Galloper (original data on every block) vs k = 4 for Pyramid.
// Both runs map identical bytes over identical split counts, so the
// map-phase ratio isolates exactly the layout claim — on an idle
// many-core host it approaches (k+l+g)/k = 1.75, bounded by 1 − k/(k+l+g)
// = 42.9% saved (Sec. I); on a 1-CPU runner both serialize and the ratio
// sits near 1 (the CI gate asserts a sane floor only, per PR 2's lesson).
//
// Every cell's output is byte-compared against LocalRunner::run_plain
// (bit_identical), and the clean cells assert the store-backed map path
// issued ZERO decode-plan or repair-plan executions — original bytes only,
// never parity math. A final degraded cell reruns wordcount on Galloper
// with a dead server, a pre-corrupted block, injected latency stalls, and
// a concurrent repair storm hammering a second file: the job must still
// complete bit-identically, with the lost/quarantined splits decoded
// around the hole inside their own reads (fallback_splits > 0).
//
//   GALLOPER_BENCH_MB    ≈ input file size in MiB (default 16)
//   GALLOPER_BENCH_REPS  timed repetitions per clean cell, best-of (default 3)
//   GALLOPER_BENCH_JSON  write machine-readable results there
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "codes/plan.h"
#include "codes/pyramid.h"
#include "core/galloper.h"
#include "fault/fault.h"
#include "mr/grep.h"
#include "mr/store_runner.h"
#include "mr/terasort.h"
#include "mr/wordcount.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/rng.h"
#include "util/table.h"

using namespace galloper;

namespace {

struct Cell {
  std::string job;
  std::string code;
  std::string scenario;
  size_t map_slots = 0;
  size_t splits = 0;
  size_t fallback_splits = 0;
  double map_s = 0;
  double job_s = 0;
  bool bit_identical = false;
  uint64_t decode_execs = 0;  // decode/repair plan executions during the run
};

struct JobDef {
  std::string name;
  std::unique_ptr<mr::Mapper> mapper;
  std::unique_ptr<mr::Reducer> reducer;
  Buffer file;
};

uint64_t decode_repair_execs() {
  return codes::plan_op_stats(codes::PlanOp::kDecodeFast).execs +
         codes::plan_op_stats(codes::PlanOp::kRepair).execs;
}

// One job run over one freshly-written store. `slots` = map parallelism
// (one per data-holding server). Returns best-of-reps map/job walls.
Cell run_cell(const JobDef& job, const codes::ErasureCode& code,
              const std::string& code_name, size_t slots,
              size_t max_split_bytes,
              const std::vector<mr::KeyValue>& plain) {
  Cell cell;
  cell.job = job.name;
  cell.code = code_name;
  cell.scenario = "clean";
  cell.map_slots = slots;

  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  const store::FileId id = fs.write(ConstByteSpan(job.file));

  mr::StoreRunnerOptions opt;
  opt.threads = slots;
  opt.max_split_bytes = max_split_bytes;
  const mr::StoreRunner runner(*job.mapper, *job.reducer, opt);

  const uint64_t execs0 = decode_repair_execs();
  cell.bit_identical = true;
  cell.map_s = 1e30;
  cell.job_s = 1e30;
  for (size_t rep = 0; rep < std::max<size_t>(1, bench::reps()); ++rep) {
    mr::StoreJobReport report;
    const double wall = bench::timed([&] { report = runner.run_report(fs, id); });
    cell.splits = report.splits;
    cell.fallback_splits = report.degraded_splits;
    cell.map_s = std::min(cell.map_s, static_cast<double>(report.map_ns) * 1e-9);
    cell.job_s = std::min(cell.job_s, wall);
    if (report.output != plain) cell.bit_identical = false;
  }
  cell.decode_execs = decode_repair_execs() - execs0;
  return cell;
}

// Degraded wordcount on Galloper: dead server + pre-corrupted block +
// injected stalls + a concurrent repair storm on a sibling file.
Cell run_degraded_cell(const JobDef& job, const core::GalloperCode& code,
                       size_t slots, size_t max_split_bytes,
                       const std::vector<mr::KeyValue>& plain) {
  Cell cell;
  cell.job = job.name;
  cell.code = "galloper";
  cell.scenario = "degraded";
  cell.map_slots = slots;

  sim::Simulation sim;
  sim::Cluster cluster(sim, code.num_blocks() + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);
  const store::FileId id = fs.write(ConstByteSpan(job.file));
  // Sibling file the repair storm hammers while the job runs.
  const store::FileId storm_id = fs.write(ConstByteSpan(job.file));

  // Faults: the last block's server dies outright (every split there runs
  // degraded), one mid block is silently corrupted (first split read CRC-
  // quarantines it, then self-heals), and reads draw occasional stalls —
  // a map task's read, like every read, re-issues a fetch still stalled
  // at the hedge deadline stall-free. Reads verify only the segments they
  // decode from, so every flip lands in a data stripe a read covers:
  // block b's first data stripe, pos_of(b).
  const size_t chunk = job.file.size() / code.engine().num_chunks();
  const auto pos_of = [&](size_t b) {
    const std::vector<size_t>& held = code.engine().chunks_of_block(b);
    return static_cast<size_t>(
        std::find_if(held.begin(), held.end(),
                     [](size_t c) { return c != SIZE_MAX; }) -
        held.begin());
  };
  fault::FaultInjector injector(0x9a110);
  injector.set_read_latency(0.02, 0.01);
  fs.set_fault_injector(&injector);
  fs.fail_server(code.num_blocks() - 1);
  fs.corrupt_block(id, 2, pos_of(2) * chunk + 17);

  std::atomic<bool> done{false};
  std::thread storm([&] {
    size_t round = 0;
    const size_t span = std::min<size_t>(chunk, 4096);
    while (!done.load(std::memory_order_acquire)) {
      // Corrupt → verified read quarantines + auto-repairs: a continuous
      // stream of real degraded decodes and repairs through the plan cache.
      // The read covers the flipped byte: the head of the flipped stripe's
      // chunk, alternating between blocks 0 and 1.
      const size_t b = round % 2;
      const size_t pos = pos_of(b);
      fs.corrupt_block(storm_id, b, pos * chunk + (31 + round) % span);
      fs.read_range(storm_id, code.engine().chunks_of_block(b)[pos] * chunk,
                    span);
      ++round;
    }
  });

  mr::StoreRunnerOptions opt;
  opt.threads = slots;
  opt.max_split_bytes = max_split_bytes;
  const mr::StoreRunner runner(*job.mapper, *job.reducer, opt);
  mr::StoreJobReport report;
  cell.job_s = bench::timed([&] { report = runner.run_report(fs, id); });
  done.store(true, std::memory_order_release);
  storm.join();

  cell.splits = report.splits;
  cell.fallback_splits = report.degraded_splits;
  cell.map_s = static_cast<double>(report.map_ns) * 1e-9;
  cell.bit_identical = report.output == plain;
  return cell;
}

}  // namespace

int main() {
  bench::print_header("macro_mr",
                      "store-backed MapReduce: Galloper k+l+g map slots vs "
                      "Pyramid k (live Fig. 9/10 shape)");

  core::GalloperCode gal(4, 2, 1);
  codes::PyramidCode pyr(4, 2, 1);
  const size_t gal_slots = gal.num_blocks();        // original data everywhere
  const size_t pyr_slots = 4;                       // only the k data blocks

  // One shared input per job, sized so its chunk structure fits BOTH codes
  // with record-aligned chunks (200 = lcm of the 50-byte wordcount and
  // 100-byte terasort records; Galloper's 28 chunks are a multiple of
  // Pyramid's 4, and the Pyramid chunk stays a 200-multiple).
  const size_t chunks = gal.engine().num_chunks();
  const size_t target = bench::block_mib() << 20;
  const size_t chunk_bytes =
      std::max<size_t>(1, target / chunks / 200) * 200;
  const size_t file_bytes = chunks * chunk_bytes;
  // Split cap = one Galloper chunk: both codes then run the SAME number of
  // map tasks over the same bytes — only the number of servers holding
  // them differs, which is precisely the paper's variable.
  const size_t max_split = chunk_bytes;

  Rng rng(0x916);
  std::vector<JobDef> jobs;
  {
    JobDef wc;
    wc.name = "wordcount";
    wc.mapper = std::make_unique<mr::WordCountMapper>();
    wc.reducer = std::make_unique<mr::WordCountReducer>();
    wc.file = mr::generate_text(file_bytes, rng);
    jobs.push_back(std::move(wc));
    JobDef ts;
    ts.name = "terasort";
    ts.mapper = std::make_unique<mr::TeraSortMapper>();
    ts.reducer = std::make_unique<mr::TeraSortReducer>();
    ts.file = mr::generate_records(file_bytes, rng);
    jobs.push_back(std::move(ts));
    JobDef gr;
    gr.name = "grep";
    gr.mapper = std::make_unique<mr::GrepMapper>("zqzq");
    gr.reducer = std::make_unique<mr::GrepReducer>();
    gr.file = mr::generate_grep_corpus(file_bytes, chunk_bytes, "zqzq", rng);
    jobs.push_back(std::move(gr));
  }

  std::vector<Cell> cells;
  struct Summary {
    std::string job;
    double map_speedup = 0;  // pyramid map wall / galloper map wall
    double job_speedup = 0;
  };
  std::vector<Summary> summaries;

  for (const JobDef& job : jobs) {
    const mr::LocalRunner oracle(*job.mapper, *job.reducer);
    const std::vector<mr::KeyValue> plain = oracle.run_plain(job.file);
    const Cell g =
        run_cell(job, gal, "galloper", gal_slots, max_split, plain);
    const Cell p =
        run_cell(job, pyr, "pyramid", pyr_slots, max_split, plain);
    cells.push_back(g);
    cells.push_back(p);
    summaries.push_back({job.name, g.map_s > 0 ? p.map_s / g.map_s : 0,
                         g.job_s > 0 ? p.job_s / g.job_s : 0});
  }

  const Cell degraded =
      run_degraded_cell(jobs[0], gal, gal_slots, max_split, [&] {
        const mr::LocalRunner oracle(*jobs[0].mapper, *jobs[0].reducer);
        return oracle.run_plain(jobs[0].file);
      }());
  cells.push_back(degraded);

  uint64_t clean_decode_execs = 0;
  for (const Cell& c : cells)
    if (c.scenario == "clean") clean_decode_execs += c.decode_execs;

  Table table({"job", "code", "scenario", "slots", "splits", "fallback",
               "map (s)", "job (s)", "bit-exact"});
  for (const Cell& c : cells)
    table.add_row({c.job, c.code, c.scenario, Table::num(c.map_slots),
                   Table::num(c.splits), Table::num(c.fallback_splits),
                   Table::num(c.map_s, 4), Table::num(c.job_s, 4),
                   c.bit_identical ? "yes" : "NO"});
  table.print();
  std::printf("\nmap-phase speedup (Pyramid wall / Galloper wall; ideal "
              "(k+l+g)/k = %.2f on an idle many-core host):\n",
              static_cast<double>(gal_slots) / pyr_slots);
  for (const Summary& s : summaries)
    std::printf("  %-10s map %.2fx  job %.2fx\n", s.job.c_str(),
                s.map_speedup, s.job_speedup);
  std::printf("clean-path decode/repair plan executions: %llu (must be 0)\n",
              static_cast<unsigned long long>(clean_decode_execs));

  if (const char* path = bench::bench_json_path()) {
    bench::JsonWriter json;
    json.begin_object();
    json.key("bench").value("macro_mr");
    bench::write_context(json);
    json.key("cells").begin_array();
    for (const Cell& c : cells) {
      json.begin_object();
      json.key("job").value(c.job);
      json.key("code").value(c.code);
      json.key("scenario").value(c.scenario);
      json.key("map_slots").value(c.map_slots);
      json.key("splits").value(c.splits);
      json.key("fallback_splits").value(c.fallback_splits);
      json.key("map_s").value(c.map_s);
      json.key("job_s").value(c.job_s);
      json.key("bit_identical").value(c.bit_identical ? 1 : 0);
      json.end_object();
    }
    json.end_array();
    json.key("summary").begin_array();
    for (const Summary& s : summaries) {
      json.begin_object();
      json.key("job").value(s.job);
      json.key("map_speedup").value(s.map_speedup);
      json.key("job_speedup").value(s.job_speedup);
      json.end_object();
    }
    json.end_array();
    json.key("clean_decode_execs").value(clean_decode_execs);
    json.key("degraded_completed").value(degraded.bit_identical ? 1 : 0);
    json.key("degraded_fallback_splits").value(degraded.fallback_splits);
    json.end_object();
    bench::write_json_file(path, json);
  }

  bool ok = clean_decode_execs == 0 && degraded.fallback_splits > 0;
  for (const Cell& c : cells) ok = ok && c.bit_identical;
  if (!ok) std::printf("FAIL: see table above\n");
  return ok ? 0 : 1;
}
