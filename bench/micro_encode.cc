// Encoder micro-benchmarks: serial vs pool-parallel Galloper data paths
// (google-benchmark), plus a machine-readable sweep mode.
//
// When GALLOPER_BENCH_JSON=<path> is set the binary skips google-benchmark
// and instead times every data path over a threads × chunk-size grid,
// writing the results as JSON to <path> (consumed into BENCH_parallel.json;
// see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench/common.h"
#include "core/galloper.h"
#include "rt/pool.h"
#include "util/rng.h"

namespace galloper {
namespace {

const core::GalloperCode& code() {
  static const core::GalloperCode c(4, 2, 1);
  return c;
}

Buffer test_file(size_t chunk) {
  Rng rng(1);
  return random_buffer(code().engine().num_chunks() * chunk, rng);
}

void BM_EncodeSerial(benchmark::State& state) {
  const Buffer file = test_file(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto blocks = code().encode(file);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file.size()));
}
BENCHMARK(BM_EncodeSerial)->Arg(64 << 10)->Arg(512 << 10);

void BM_EncodeParallel(benchmark::State& state) {
  const Buffer file = test_file(512 << 10);
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto blocks = code().engine().encode(file, threads);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file.size()));
}
BENCHMARK(BM_EncodeParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_DecodeParallel(benchmark::State& state) {
  const Buffer file = test_file(512 << 10);
  const auto blocks = code().encode(file);
  std::map<size_t, ConstByteSpan> view;  // block 0 missing: a real solve
  for (size_t b = 1; b < blocks.size(); ++b) view.emplace(b, blocks[b]);
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto out = code().engine().decode(view, threads);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(file.size()));
}
BENCHMARK(BM_DecodeParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RepairParallel(benchmark::State& state) {
  const Buffer file = test_file(512 << 10);
  const auto blocks = code().encode(file);
  std::map<size_t, ConstByteSpan> helpers;
  for (size_t h : code().repair_helpers(0)) helpers.emplace(h, blocks[h]);
  const size_t threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto out = code().engine().repair_block(0, helpers, threads);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(blocks[0].size()));
}
BENCHMARK(BM_RepairParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_UpdateChunk(benchmark::State& state) {
  const size_t chunk = 256 << 10;
  const Buffer file = test_file(chunk);
  auto blocks = code().encode(file);
  Rng rng(2);
  const Buffer new_data = random_buffer(chunk, rng);
  size_t c = 0;
  for (auto _ : state) {
    auto touched = code().engine().update_chunk(
        blocks, c++ % code().engine().num_chunks(), new_data);
    benchmark::DoNotOptimize(touched);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(chunk));
}
BENCHMARK(BM_UpdateChunk);

void BM_ReadRangeHealthy(benchmark::State& state) {
  const size_t chunk = 64 << 10;
  const Buffer file = test_file(chunk);
  const auto blocks = code().encode(file);
  std::map<size_t, ConstByteSpan> view;
  for (size_t b = 0; b < blocks.size(); ++b) view.emplace(b, blocks[b]);
  for (auto _ : state) {
    auto out = code().engine().read_range(view, chunk / 2, 4 * chunk);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4 *
                          static_cast<int64_t>(chunk));
}
BENCHMARK(BM_ReadRangeHealthy);

void BM_ReadRangeDegraded(benchmark::State& state) {
  const size_t chunk = 64 << 10;
  const Buffer file = test_file(chunk);
  const auto blocks = code().encode(file);
  std::map<size_t, ConstByteSpan> view;
  for (size_t b = 1; b < blocks.size(); ++b) view.emplace(b, blocks[b]);
  for (auto _ : state) {
    auto out = code().engine().read_range(view, 0, 4 * chunk);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4 *
                          static_cast<int64_t>(chunk));
}
BENCHMARK(BM_ReadRangeDegraded);

// ---- machine-readable sweep (GALLOPER_BENCH_JSON) -----------------------

// Best-of-reps seconds for one (path, chunk, threads) cell.
template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e300;
  for (size_t r = 0; r < bench::reps(); ++r)
    best = std::min(best, bench::timed(fn));
  return best;
}

int run_json_sweep(const char* path) {
  const auto& engine = code().engine();
  const size_t thread_grid[] = {1, 2, 4, 8};
  const size_t chunk_grid[] = {64 << 10, 256 << 10, 1 << 20};

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("micro_encode_sweep");
  json.key("code").value(code().name());
  bench::write_context(json);
  json.key("reps").value(bench::reps());
  json.key("cells").begin_array();

  for (size_t chunk : chunk_grid) {
    const Buffer file = test_file(chunk);
    const auto blocks = engine.encode(file);
    std::map<size_t, ConstByteSpan> degraded;
    for (size_t b = 1; b < blocks.size(); ++b)
      degraded.emplace(b, blocks[b]);
    std::map<size_t, ConstByteSpan> helpers;
    for (size_t h : code().repair_helpers(0)) helpers.emplace(h, blocks[h]);

    // Serial (threads = 1) seconds per path, for the per-cell speedup
    // ratio — thread_grid starts at 1, so the entry is always there first.
    std::map<std::string, double> serial_s;
    for (size_t threads : thread_grid) {
      // Identity check: every thread count must reproduce the serial
      // bytes exactly (the GF kernels are bytewise; see engine.h).
      const bool encode_ok = engine.encode(file, threads) == blocks;
      const auto dec = engine.decode(degraded, threads);
      const bool decode_ok = dec.has_value() && *dec == file;
      const auto rep = engine.repair_block(0, helpers, threads);
      const bool repair_ok = rep.has_value() && *rep == blocks[0];
      struct Cell {
        const char* path;
        double seconds;
        size_t bytes;
        bool identical;
      };
      const Cell cells[] = {
          {"encode", best_seconds([&] {
             benchmark::DoNotOptimize(engine.encode(file, threads));
           }),
           file.size(), encode_ok},
          {"decode", best_seconds([&] {
             benchmark::DoNotOptimize(engine.decode(degraded, threads));
           }),
           file.size(), decode_ok},
          {"repair", best_seconds([&] {
             benchmark::DoNotOptimize(
                 engine.repair_block(0, helpers, threads));
           }),
           blocks[0].size(), repair_ok},
      };
      for (const Cell& c : cells) {
        if (threads == 1) serial_s[c.path] = c.seconds;
        const double speedup =
            c.seconds > 0 ? serial_s[c.path] / c.seconds : 0;
        json.begin_object();
        json.key("path").value(c.path);
        json.key("chunk_bytes").value(chunk);
        json.key("threads").value(threads);
        json.key("seconds").value(c.seconds);
        json.key("mib_per_s").value(
            static_cast<double>(c.bytes) / (1 << 20) / c.seconds);
        json.key("speedup").value(speedup);
        json.key("bit_identical").value(c.identical ? 1 : 0);
        json.end_object();
        std::printf("%-6s chunk=%7zu threads=%zu  %8.1f MiB/s  %5.2fx %s\n",
                    c.path, chunk, threads,
                    static_cast<double>(c.bytes) / (1 << 20) / c.seconds,
                    speedup, c.identical ? "" : "NOT-BIT-IDENTICAL");
      }
    }
  }
  json.end_array();
  json.end_object();
  bench::write_json_file(path, json);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace galloper

int main(int argc, char** argv) {
  if (const char* path = galloper::bench::bench_json_path())
    return galloper::run_json_sweep(path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
