// perfbench harness: runs one named workload of the coded store through
// its public APIs with the shipped defaults, checks every output against an
// in-memory mirror, and prints one JSON result line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--out <dir>] [--commit <sha>]
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 repeats
// the same workload and seed with spans recorded around every call the
// harness makes into a layer, alternating traced and untraced quarter-second
// slices so the tracing overhead is measured in the same run, and prints the
// per-layer ledger: span times, stats-snapshot deltas over the timed window,
// and isolated probes of each layer's public functions. Spans go to
// <out>/trace_<workload>_<seed>.jsonl. README.md maps every metric to its
// layer and to the end-to-end number it should move.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/cache.h"
#include "client/striped.h"
#include "cluster/coordinator.h"
#include "codes/plan.h"
#include "core/galloper.h"
#include "core/input_format.h"
#include "fault/fault.h"
#include "gf/region.h"
#include "gf/region_dispatch.h"
#include "io/async.h"
#include "mr/store_runner.h"
#include "mr/wordcount.h"
#include "perfbench/common.h"
#include "rt/pool.h"
#include "rt/queue.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/buffer_pool.h"
#include "util/crc32c.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace galloper;
using perfbench::Metric;
using perfbench::Op;
using perfbench::OpKind;
using perfbench::OpStream;
using perfbench::Traffic;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  return perfbench::exact_percentile(std::move(v), 0.5);
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---- Spans -------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's log, -1 = root
  uint64_t request = 0;
};

// One thread's spans, appended without locks by that thread only.
struct SpanLog {
  size_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;
};

constexpr size_t kMaxSpansPerThread = size_t{1} << 18;

// RAII span: records nothing when `log` is null (tracing off or an untraced
// slice), so the untraced path costs one branch.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint64_t request)
      : log_(log != nullptr && log->spans.size() < kMaxSpansPerThread
                 ? log
                 : nullptr) {
    if (log_ == nullptr) return;
    index_ = static_cast<int32_t>(log_->spans.size());
    const int32_t parent = log_->open.empty() ? -1 : log_->open.back();
    log_->spans.push_back({name, now_ns(), 0, parent, request});
    log_->open.push_back(index_);
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    log_->spans[static_cast<size_t>(index_)].end_ns = now_ns();
    log_->open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

class Tracer {
 public:
  SpanLog* new_log() {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<SpanLog>());
    logs_.back()->thread = logs_.size() - 1;
    return logs_.back().get();
  }

  // Self time (duration minus child spans) of every span named `name`, in
  // microseconds. Call once the threads owning the logs have joined.
  std::vector<double> self_us(const char* name) const {
    std::vector<double> out;
    for (const auto& log : logs_) {
      std::vector<int64_t> child_ns(log->spans.size(), 0);
      for (const Span& s : log->spans)
        if (s.parent >= 0)
          child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      for (size_t i = 0; i < log->spans.size(); ++i) {
        const Span& s = log->spans[i];
        if (std::strcmp(s.name, name) != 0) continue;
        out.push_back(static_cast<double>(s.end_ns - s.start_ns -
                                          child_ns[i]) * 1e-3);
      }
    }
    return out;
  }

  size_t span_count() const {
    size_t n = 0;
    for (const auto& log : logs_) n += log->spans.size();
    return n;
  }

  // One JSON object per line: name, start/end (ns, steady clock), parent
  // (thread-local index), per-request id, thread.
  void write(const std::string& path, const std::string& context) const {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return;
    }
    f << "{\"context\": " << context << "}\n";
    for (const auto& log : logs_)
      for (size_t i = 0; i < log->spans.size(); ++i) {
        const Span& s = log->spans[i];
        f << "{\"thread\": " << log->thread << ", \"id\": " << i
          << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}\n";
      }
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ---- Arguments and host context ----------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--commit") a.commit = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::atomic<uint64_t> g_spin_sink{0};

uint64_t spin(uint64_t iters) {
  uint64_t x = iters | 1;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

// Effective parallelism: N workers each run the same spin loop; the ratio
// of N × (single-worker wall) to the N-worker wall is the number of cores
// the host actually delivers (N on an idle N-core box, less when shared).
double effective_cores(size_t n) {
  uint64_t iters = 1 << 20;
  double t1 = 0;
  for (;;) {
    const auto t0 = Clock::now();
    g_spin_sink += spin(iters);
    t1 = since(t0);
    if (t1 >= 0.03 || iters >= (uint64_t{1} << 34)) break;
    iters *= 2;
  }
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  for (size_t i = 0; i < n; ++i)
    workers.emplace_back([iters] { g_spin_sink += spin(iters); });
  for (auto& w : workers) w.join();
  const double tn = since(t0);
  return tn > 0 ? static_cast<double>(n) * t1 / tn : 0;
}

// CPUs this process may run on (its affinity mask), taken before pinning.
size_t affinity_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<size_t>(std::max(1, CPU_COUNT(&allowed)));
}

std::string host_context(const Args& a, size_t nproc, double cores,
                         int pinned_cpu) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"effective_cores\": %.3f, \"pinned_cpu\": %d, \"gf_isa\": \"%s\", "
      "\"crc32c\": \"%s\", "
      "\"pool_threads\": %zu, \"io_threads\": %zu, \"queue_depth\": %zu, "
      "\"cache_mib\": %.1f, \"cache_shards\": %zu, \"admit_limit\": %zu, "
      "\"plan_cache_entries\": %zu, \"buffer_pool\": %s, "
      "\"build_type\": \"%s\", \"commit\": \"%s\"}",
      nproc, std::thread::hardware_concurrency(), cores, pinned_cpu,
      gf::isa_name(gf::active_isa()), crc32c_backend(),
      rt::ThreadPool::default_threads(), io::AsyncIo::default_threads(),
      rt::queue_depth(),
      static_cast<double>(client::BlockCache::global().capacity_bytes()) /
          kMiB,
      client::BlockCache::global().shard_count(),
      client::AdmissionControl::global().stats().limit,
      codes::PlanCache::global().capacity(),
      util::BufferPool::global().enabled() ? "true" : "false",
      PERFBENCH_BUILD_TYPE, a.commit.c_str());
  return buf;
}

// Pins the calling thread, and so every thread started after it (the
// compute and I/O pools start lazily), to the lowest CPU it may run on.
// Returns that CPU, or -1 if pinning failed. On a shared VM the cores beyond
// one come and go (their capacity ramps up over a second of load, then
// swings by a quarter), so a time-shared single core is what keeps run-to-run
// figures comparable; `effective_cores` in the context still reports what
// the whole host delivered.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

// glibc serves large blocks with fresh mmaps whose page faults cost ~3× a
// memcpy here, and its mmap threshold moves with the run's own free history,
// so the same seed could land in a slow or a fast allocation regime (±25% on
// every timing). Blocks up to 32 MiB come from the heap instead, and freed
// heap memory is kept, so steady state reuses pages the process already has.
void steady_allocator() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

// ---- Workload definitions ----------------------------------------------

struct WorkloadSpec {
  size_t k = 4, l = 2, g = 2;
  size_t chunk_bytes = 0;
  size_t files = 1;
  size_t clients = 4;
  Traffic traffic;         // files/file_bytes/chunk_bytes filled in later
  bool cluster = false;    // repair_storm: Coordinator + fault injector
  bool warm = false;       // hot_stream_update: one full pass before timing
};

constexpr size_t kKiB = 1024;

std::optional<WorkloadSpec> workload_spec(const std::string& name) {
  WorkloadSpec w;
  if (name == "cold_point_reads") {
    w.k = 4, w.l = 2, w.g = 2;
    w.chunk_bytes = 1024 * kKiB;
    w.files = 8;
    w.traffic.read_min = w.traffic.read_max = 4 * kKiB;
  } else if (name == "hot_stream_update") {
    w.k = 12, w.l = 4, w.g = 2;
    w.chunk_bytes = 64 * kKiB;
    w.files = 4;
    w.warm = true;
    w.traffic.zipf_theta = 0.9;
    w.traffic.update_fraction = 0.25;
    w.traffic.read_min = 256 * kKiB;
    w.traffic.read_max = SIZE_MAX;
  } else if (name == "repair_storm") {
    w.k = 4, w.l = 2, w.g = 2;
    w.chunk_bytes = 256 * kKiB;  // 1 MiB blocks at 4 stripes per block
    w.files = 24;
    w.clients = 3;  // + the node-cycling driver thread
    w.cluster = true;
    w.traffic.read_min = w.traffic.read_max = 64 * kKiB;
  } else {
    return std::nullopt;
  }
  return w;
}

// Record-aligned chunk for a text file of about `target` bytes: a multiple
// of 200 bytes (wordcount records are 50), so no split cuts a word.
size_t text_chunk(const codes::ErasureCode& code, size_t target) {
  return std::max<size_t>(1, target / code.engine().num_chunks() / 200) * 200;
}

// One store plus what the workload hangs off it. Heap-allocated and never
// moved: the store, cluster and coordinator hold references into it.
struct Env {
  explicit Env(const WorkloadSpec& w)
      : code(w.k, w.l, w.g),
        cluster(sim, code.num_blocks() + 2, sim::ServerSpec{}),
        fs(cluster, code) {
    if (w.cluster) {
      cluster::CoordinatorOptions opt;
      opt.repair_workers = 2;
      opt.repair_bytes_per_s = 0;
      coord = std::make_unique<cluster::Coordinator>(fs, opt);
    }
  }

  core::GalloperCode code;
  sim::Simulation sim;
  sim::Cluster cluster;
  store::FileStore fs;
  // Declared before the coordinator so its repair workers stop first.
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<cluster::Coordinator> coord;
  std::vector<store::FileId> ids;
};

// ---- Stats snapshots ---------------------------------------------------

struct Snap {
  io::IoStats io;          // global pool + every node pool, summed
  io::IoStats io_global;
  codes::PlanCacheStats plan;
  codes::PlanOpStats ops[codes::kNumPlanOps];
  codes::BatchExecStats batch;
  client::BlockCacheStats cache;
  client::ClientStats client;
  client::AdmissionControl::Stats admit;
  store::FileStore::ReadStats reads;
  cluster::RepairQueue::Stats repair;
  size_t node_repair_bytes = 0;
  mr::MrStats mr;
  util::BufferPoolStats pool;
};

void add_io(io::IoStats& a, const io::IoStats& b) {
  a.ops += b.ops;
  a.fetches += b.fetches;
  a.bytes_read += b.bytes_read;
  a.cancelled += b.cancelled;
  a.hedges_issued += b.hedges_issued;
  a.hedges_won += b.hedges_won;
  a.hedge_denied += b.hedge_denied;
  a.queue_peak = std::max(a.queue_peak, b.queue_peak);
}

Snap snapshot(Env& env) {
  Snap s;
  s.io_global = io::AsyncIo::global().stats();
  add_io(s.io, s.io_global);
  s.plan = codes::PlanCache::global().stats();
  for (size_t i = 0; i < codes::kNumPlanOps; ++i)
    s.ops[i] = codes::plan_op_stats(static_cast<codes::PlanOp>(i));
  s.batch = codes::batch_exec_stats();
  s.cache = client::BlockCache::global().stats();
  s.client = client::client_stats();
  s.admit = client::AdmissionControl::global().stats();
  s.reads = env.fs.read_stats();
  if (env.coord) {
    s.repair = env.coord->repair_queue().stats();
    for (size_t n = 0; n < env.coord->num_nodes(); ++n) {
      add_io(s.io, env.coord->node(n).io().stats());
      s.node_repair_bytes += env.coord->node(n).repair_bytes();
    }
  }
  s.mr = mr::mr_stats();
  s.pool = util::BufferPool::global().stats();
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double exec_us(const Snap& a, const Snap& b, codes::PlanOp op) {
  const auto& x = a.ops[static_cast<size_t>(op)];
  const auto& y = b.ops[static_cast<size_t>(op)];
  return ratio(static_cast<double>(y.exec_ns - x.exec_ns) * 1e-3,
               static_cast<double>(y.execs - x.execs));
}

// ---- Op accounting -----------------------------------------------------

// Latencies and counts of one phase. Index [1] holds ops issued inside a
// traced slice, [0] the rest (all ops, with tracing off).
struct Samples {
  std::vector<double> read_s[2], update_s[2], job_s[2];
  uint64_t reads = 0, updates = 0, read_bytes = 0;
  uint64_t attempted = 0, failed = 0, mismatches = 0;

  void merge(const Samples& o) {
    for (int t = 0; t < 2; ++t) {
      read_s[t].insert(read_s[t].end(), o.read_s[t].begin(), o.read_s[t].end());
      update_s[t].insert(update_s[t].end(), o.update_s[t].begin(),
                         o.update_s[t].end());
      job_s[t].insert(job_s[t].end(), o.job_s[t].begin(), o.job_s[t].end());
    }
    reads += o.reads;
    updates += o.updates;
    read_bytes += o.read_bytes;
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
  }
};

// Traced and untraced samples together.
std::vector<double> joined(const std::vector<double> (&v)[2]) {
  std::vector<double> out = v[0];
  out.insert(out.end(), v[1].begin(), v[1].end());
  return out;
}

// Traced runs alternate untraced and traced quarter-second slices.
bool traced_slice(bool trace, Clock::time_point start) {
  if (!trace) return false;
  return static_cast<int64_t>(since(start) / 0.25) % 2 == 1;
}

Buffer payload(size_t bytes, uint64_t seed) {
  Buffer b(bytes);
  Rng rng(seed);
  rng.fill_bytes(ByteSpan(b));
  return b;
}

bool same_bytes(const Buffer& got, const Buffer& file, size_t offset) {
  return std::equal(got.begin(), got.end(), file.begin() + offset);
}

// Shared state of one run: the store, its mirror (kept current by updates
// under a per-file lock, so a read is compared with exactly the bytes it
// should see), the tracer.
struct Run {
  const Args& args;
  WorkloadSpec spec;
  std::unique_ptr<Env> env;
  std::vector<Buffer> mirror;
  std::vector<std::unique_ptr<std::shared_mutex>> file_mu;
  Tracer tracer;
  Clock::time_point window_start;
};

// One closed-loop client: issues its seeded op stream until the deadline,
// waiting for each reply. Only the store call is timed — payload making,
// the mirror lock and the comparison are the harness's own work.
Samples client_loop(Run& run, size_t client, Clock::time_point deadline) {
  Samples s;
  SpanLog* log = run.args.trace ? run.tracer.new_log() : nullptr;
  OpStream ops(run.spec.traffic, run.args.seed, client);
  client::StripedReader reader(run.env->fs);
  uint64_t seq = 0;
  while (Clock::now() < deadline) {
    const Op op = ops.next();
    const bool traced = traced_slice(run.args.trace, run.window_start);
    SpanLog* l = traced ? log : nullptr;
    const uint64_t req = (uint64_t{client} << 40) | seq++;
    const store::FileId id = run.env->ids[op.file];
    ++s.attempted;
    if (op.kind == OpKind::kRead) {
      SpanScope span(l, "op.read", req);
      std::shared_lock<std::shared_mutex> lock(*run.file_mu[op.file]);
      std::optional<Buffer> out;
      const auto t0 = Clock::now();
      try {
        SpanScope call(l, "client.StripedReader.read_range", req);
        out = reader.read_range(id, op.offset, op.length);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: read threw: %s\n", e.what());
      }
      const double dt = since(t0);
      ++s.reads;
      if (!out) {
        ++s.failed;
        continue;
      }
      s.read_s[traced].push_back(dt);
      s.read_bytes += op.length;
      SpanScope verify(l, "harness.verify", req);
      if (out->size() != op.length ||
          !same_bytes(*out, run.mirror[op.file], op.offset))
        ++s.mismatches;
    } else {
      const Buffer data = payload(op.length, op.payload_seed);
      SpanScope span(l, "op.update", req);
      std::unique_lock<std::shared_mutex> lock(*run.file_mu[op.file]);
      const auto t0 = Clock::now();
      try {
        SpanScope call(l, "store.FileStore.update_range", req);
        run.env->fs.update_range(id, op.offset, ConstByteSpan(data));
      } catch (const std::exception& e) {
        // Refused (degraded stripe) or thrown: the store kept the old
        // bytes, so the mirror must too.
        ++s.updates;
        ++s.failed;
        continue;
      }
      s.update_s[traced].push_back(since(t0));
      ++s.updates;
      std::copy(data.begin(), data.end(),
                run.mirror[op.file].begin() + op.offset);
    }
  }
  return s;
}

Samples run_clients(Run& run, size_t clients, Clock::time_point deadline) {
  std::vector<Samples> per(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] { per[c] = client_loop(run, c, deadline); });
  for (auto& t : threads) t.join();
  Samples all;
  for (const auto& p : per) all.merge(p);
  return all;
}

// ---- Set-up ------------------------------------------------------------

struct Ingest {
  double setup_s = 0;
  double ingest_s = 0;
  std::vector<double> write_us;  // per StripedWriter::write call
  Snap before, after;            // stats around the ingest alone
};

// Builds a fresh store and ingests the mirror through StripedWriter (plus
// the warm-up pass where the workload has one). Everything here counts as
// set-up; the ingest alone is the write measurement.
Ingest build_store(Run& run) {
  Ingest r;
  run.env.reset();
  const auto t0 = Clock::now();
  run.env = std::make_unique<Env>(run.spec);
  client::StripedWriter writer(run.env->fs);
  r.before = snapshot(*run.env);
  const auto ti = Clock::now();
  for (const Buffer& f : run.mirror) {
    const auto tw = Clock::now();
    run.env->ids.push_back(writer.write(ConstByteSpan(f)));
    r.write_us.push_back(since(tw) * 1e6);
  }
  r.ingest_s = since(ti);
  r.after = snapshot(*run.env);
  if (run.spec.warm) {
    client::StripedReader reader(run.env->fs);
    for (size_t i = 0; i < run.mirror.size(); ++i)
      (void)reader.read_range(run.env->ids[i], 0, run.mirror[i].size());
  }
  if (run.spec.cluster) {
    run.env->injector = std::make_unique<fault::FaultInjector>(
        run.args.seed ^ 0xfa17u);
    run.env->injector->set_read_latency(0.05, 0.002);
    run.env->fs.set_fault_injector(run.env->injector.get());
  }
  r.setup_s = since(t0);
  return r;
}

// ---- Companion passes --------------------------------------------------
//
// Every workload reports every end-to-end metric. An op class the workload
// does not drive in its timed window (updates on cold_point_reads, a job on
// repair_storm, ...) is measured after the window by a pass of that class on
// the same store and shape, with the same correctness checks. Each pass runs
// for a fixed time (with a minimum op count): the host's speed wanders over
// seconds, so a pass must span several of them to be comparable run to run.

// One-chunk in-place updates at seeded chunk-aligned offsets, with the same
// span as a window update when `log` is set.
Samples companion_updates(Run& run, double seconds, SpanLog* log) {
  Samples s;
  Rng rng(run.args.seed ^ 0x0bda7eu);
  const auto start = Clock::now();
  for (size_t i = 0; i < 30 || since(start) < seconds; ++i) {
    const size_t f = rng.next_below(run.mirror.size());
    const size_t chunk = run.spec.traffic.chunk_bytes;
    const size_t off = rng.next_below(run.mirror[f].size() / chunk) * chunk;
    const Buffer data = payload(chunk, rng.next_u64());
    ++s.attempted;
    ++s.updates;
    const auto t0 = Clock::now();
    try {
      SpanScope span(log, "store.FileStore.update_range", s.attempted);
      run.env->fs.update_range(run.env->ids[f], off, ConstByteSpan(data));
    } catch (const std::exception&) {
      ++s.failed;
      continue;
    }
    s.update_s[0].push_back(since(t0));
    std::copy(data.begin(), data.end(), run.mirror[f].begin() + off);
  }
  return s;
}

struct RepairTally {
  double bytes = 0;
  double seconds = 0;
  uint64_t attempted = 0, failed = 0;
};

// Kills and revives the server of one block slot at a time (seeded order,
// wrapping around), then rebuilds that slot of every file with
// FileStore::repair, until the repairs have taken 2.5 s (two slots at
// least).
RepairTally companion_repair(Run& run) {
  RepairTally t;
  store::FileStore& fs = run.env->fs;
  std::vector<size_t> slots(fs.code().num_blocks());
  for (size_t b = 0; b < slots.size(); ++b) slots[b] = b;
  Rng rng(run.args.seed ^ 0x4e9a1u);
  rng.shuffle(slots);
  for (size_t i = 0; i < 2 || t.seconds < 2.5; ++i) {
    const size_t b = slots[i % slots.size()];
    const size_t server = fs.server_of(b);
    fs.fail_server(server);
    fs.revive_server(server);
    for (size_t f = 0; f < run.env->ids.size(); ++f) {
      ++t.attempted;
      const auto t0 = Clock::now();
      const auto helpers = fs.repair(run.env->ids[f], b);
      t.seconds += since(t0);
      if (!helpers) {
        ++t.failed;
        continue;
      }
      t.bytes += static_cast<double>(fs.block_bytes(run.env->ids[f]));
    }
  }
  return t;
}

struct TextFile {
  store::FileId id = 0;
  Buffer bytes;
  size_t chunk = 0;
  std::vector<mr::KeyValue> plain;  // LocalRunner::run_plain reference
};

// A record-aligned generated text of about `target_bytes`, written into the
// run's store, with its plain-run wordcount as the reference.
TextFile make_text(Run& run, size_t target_bytes) {
  TextFile t;
  const codes::ErasureCode& code = run.env->code;
  t.chunk = text_chunk(code, target_bytes);
  Rng rng(run.args.seed ^ 0x7e47u);
  t.bytes = mr::generate_text(code.engine().num_chunks() * t.chunk, rng);
  const mr::WordCountMapper mapper;
  const mr::WordCountReducer reducer;
  t.plain = mr::LocalRunner(mapper, reducer).run_plain(ConstByteSpan(t.bytes));
  client::StripedWriter writer(run.env->fs);
  t.id = writer.write(ConstByteSpan(t.bytes));
  return t;
}

mr::StoreRunnerOptions job_options(const TextFile& t) {
  mr::StoreRunnerOptions opt;
  opt.threads = 4;
  opt.max_split_bytes = t.chunk;  // one split per chunk: ≥ 4 × threads
  return opt;
}

// Wordcount jobs back to back over `t` for `seconds` (4 jobs at least),
// each output compared with the plain run.
Samples run_jobs(Run& run, const TextFile& t, double seconds, SpanLog* log) {
  Samples s;
  const mr::WordCountMapper mapper;
  const mr::WordCountReducer reducer;
  const mr::StoreRunner runner(mapper, reducer, job_options(t));
  const auto start = Clock::now();
  while (s.attempted < 4 || since(start) < seconds) {
    ++s.attempted;
    std::vector<mr::KeyValue> out;
    const auto t0 = Clock::now();
    try {
      SpanScope span(log, "mr.StoreRunner.run", s.attempted);
      out = runner.run(run.env->fs, t.id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: job threw: %s\n", e.what());
      ++s.failed;
      continue;
    }
    s.job_s[0].push_back(since(t0));
    if (out != t.plain) ++s.mismatches;
  }
  return s;
}

// ---- repair_storm's node-cycling driver --------------------------------

struct StormTally {
  double rebuilt_bytes = 0;
  double repair_s = 0;  // Σ restart → drain
  std::vector<double> drain_s;
  uint64_t nodes_cycled = 0;
  uint64_t failed_drains = 0;
};

// Fails each hosting node in seeded order, holds it down briefly, restarts
// it and drains the repair queue before moving on — until the deadline.
StormTally storm_driver(Run& run, Clock::time_point deadline) {
  StormTally t;
  cluster::Coordinator& coord = *run.env->coord;
  SpanLog* log = run.args.trace ? run.tracer.new_log() : nullptr;
  std::vector<size_t> nodes = run.env->fs.placement();
  Rng rng(run.args.seed ^ 0x5707u);
  rng.shuffle(nodes);
  const double block = static_cast<double>(run.env->fs.block_bytes(0));
  while (Clock::now() < deadline) {
    const size_t n = nodes[t.nodes_cycled % nodes.size()];
    SpanLog* l = traced_slice(run.args.trace, run.window_start) ? log : nullptr;
    const uint64_t req = (uint64_t{1} << 62) | t.nodes_cycled;
    SpanScope cycle(l, "op.node_cycle", req);
    const double lost = static_cast<double>(coord.blocks_on(n).size() *
                                            run.env->ids.size());
    {
      SpanScope s(l, "cluster.Coordinator.fail_node", req);
      coord.fail_node(n);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto t0 = Clock::now();
    {
      SpanScope s(l, "cluster.Coordinator.restart_node", req);
      coord.restart_node(n);
    }
    bool ok = false;
    const auto td = Clock::now();
    {
      SpanScope s(l, "cluster.RepairQueue.drain", req);
      ok = coord.repair_queue().drain(60.0);
    }
    t.drain_s.push_back(since(td));
    t.repair_s += since(t0);
    t.rebuilt_bytes += lost * block;
    ++t.nodes_cycled;
    if (!ok) ++t.failed_drains;
  }
  return t;
}

// ---- Probes (traced run) -----------------------------------------------

// Median microseconds of fn() over `reps` calls.
template <typename Fn>
double probe_us(size_t reps, Fn&& fn) {
  std::vector<double> v;
  for (size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn(i);
    v.push_back(since(t0) * 1e6);
  }
  return median(std::move(v));
}

// Bytes per second of fn(), which processes `bytes` per call, repeated for
// at least 50 ms; best of three such rounds.
template <typename Fn>
double throughput_gbps(size_t bytes, Fn&& fn) {
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    size_t calls = 0;
    const auto t0 = Clock::now();
    do {
      fn();
      ++calls;
    } while (since(t0) < 0.05);
    best = std::max(best, static_cast<double>(bytes * calls) / since(t0));
  }
  return best / 1e9;
}

// ---- The run -----------------------------------------------------------

struct Output {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

int run_workload(const Args& args) {
  const auto spec = workload_spec(args.workload);
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Run run{args, *spec, nullptr, {}, {}, {}, {}};
  const size_t nproc = affinity_cpus();
  const double cores = effective_cores(nproc);
  steady_allocator();
  const std::string context =
      host_context(args, nproc, cores, pin_to_one_cpu());
  std::printf("context: %s\n", context.c_str());

  // Inputs come from the seed; every set-up ingests the same bytes.
  const core::GalloperCode shape(run.spec.k, run.spec.l, run.spec.g);
  const size_t chunk = run.spec.chunk_bytes;
  const size_t file_bytes = shape.engine().num_chunks() * chunk;
  Traffic& tr = run.spec.traffic;
  tr.files = run.spec.files;
  tr.file_bytes = file_bytes;
  tr.chunk_bytes = chunk;
  tr.read_max = std::min(tr.read_max, file_bytes);
  const auto make_mirror = [&] {
    run.mirror.clear();
    Rng rng(args.seed);
    for (size_t i = 0; i < run.spec.files; ++i)
      run.mirror.push_back(random_buffer(file_bytes, rng));
  };
  make_mirror();
  for (size_t i = 0; i < run.mirror.size(); ++i)
    run.file_mu.push_back(std::make_unique<std::shared_mutex>());

  // Seeded determinism self-test: the same seed replays the same per-client
  // op streams and exact counts; a different seed does not.
  const size_t prefix = 4096;
  const auto plan = perfbench::plan_counts(tr, args.seed, run.spec.clients,
                                           prefix);
  if (!(plan == perfbench::plan_counts(tr, args.seed, run.spec.clients,
                                       prefix)) ||
      plan == perfbench::plan_counts(tr, args.seed + 1, run.spec.clients,
                                     prefix)) {
    std::fprintf(stderr, "perfbench: op streams are not seed-deterministic\n");
    return 4;
  }
  std::printf(
      "plan: {\"workload\": \"%s\", \"seed\": %llu, \"files_written\": %zu, "
      "\"file_bytes\": %zu, \"chunk_bytes\": %zu, \"clients\": %zu, "
      "\"prefix_ops_per_client\": %zu, \"reads\": %llu, \"updates\": %llu, "
      "\"bytes_requested\": %llu, \"digest\": \"%016llx\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      run.mirror.size(), file_bytes, chunk, run.spec.clients, prefix,
      static_cast<unsigned long long>(plan.reads),
      static_cast<unsigned long long>(plan.updates),
      static_cast<unsigned long long>(plan.bytes_requested),
      static_cast<unsigned long long>(plan.digest));

  // Set up from scratch repeatedly; the last store is the one measured. The
  // first two set-ups warm the process (first-touch pages, pool freelists)
  // and are not counted. The count is fixed, not timed: every store takes
  // the next process-wide cache uid, which decides how its blocks hash onto
  // the block cache's shards, so the measured store must be the same one in
  // every run.
  constexpr size_t kWarmSetups = 2, kSetups = 7;
  std::vector<double> setup_s;
  Ingest last;
  double ingest_total = 0, ingest_bytes = 0;
  for (size_t n = 0; n < kSetups; ++n) {
    make_mirror();
    last = build_store(run);
    if (n < kWarmSetups) continue;
    setup_s.push_back(last.setup_s);
    ingest_total += last.ingest_s;
    for (const Buffer& f : run.mirror)
      ingest_bytes += static_cast<double>(f.size());
  }
  Env& env = *run.env;

  // ---- Timed window.
  const Snap w0 = snapshot(env);
  run.window_start = Clock::now();
  const auto deadline =
      run.window_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(args.seconds));
  Samples window;
  StormTally storm;
  if (run.spec.cluster) {
    std::thread driver([&] { storm = storm_driver(run, deadline); });
    window = run_clients(run, run.spec.clients, deadline);
    driver.join();
  } else {
    window = run_clients(run, run.spec.clients, deadline);
  }
  const double window_s = since(run.window_start);
  const Snap w1 = snapshot(env);

  // Injected stalls belong to repair_storm's window traffic. The companion
  // passes time their op class on the store alone: a 2 ms stall landing on
  // a few of ~300 updates or not flips their p99. Detach only once the
  // repair queue is idle (the injector is attach-at-setup state).
  bool drained = true;
  if (env.coord) {
    drained = env.coord->repair_queue().drain(60.0);
    env.fs.set_fault_injector(nullptr);
  }

  // ---- Companion passes for the op classes the window did not drive, and
  // the wordcount jobs (StoreRunner over a text file written into the store).
  // The update ledger (codes.update.exec_us, invalidations per update) is
  // taken over whichever of the two drove the updates.
  const bool window_updates = run.spec.traffic.update_fraction > 0;
  const Snap u0 = snapshot(env);
  const Samples updates =
      window_updates
          ? window
          : companion_updates(run, 4.0,
                              args.trace ? run.tracer.new_log() : nullptr);
  const Snap u1 = snapshot(env);
  const Snap& ub = window_updates ? w0 : u0;
  const Snap& ue = window_updates ? w1 : u1;
  const RepairTally repair =
      run.spec.cluster
          ? RepairTally{storm.rebuilt_bytes, storm.repair_s,
                        storm.nodes_cycled, storm.failed_drains}
          : companion_repair(run);
  const TextFile text = make_text(run, size_t{4} << 20);
  const Snap j0 = snapshot(env);
  const Samples jobs =
      run_jobs(run, text, 5.0, args.trace ? run.tracer.new_log() : nullptr);
  const Snap j1 = snapshot(env);
  Samples extra = jobs;
  if (!window_updates) extra.merge(updates);

  // ---- Correctness gate: every file reads back as its mirror, no block is
  // lost, and a scrub finds nothing.
  bool correct = drained && window.mismatches == 0 && extra.mismatches == 0;
  if (env.coord && !env.coord->repair_queue().drain(60.0)) correct = false;
  std::vector<std::pair<store::FileId, const Buffer*>> files;
  for (size_t i = 0; i < run.mirror.size(); ++i)
    files.emplace_back(env.ids[i], &run.mirror[i]);
  files.emplace_back(text.id, &text.bytes);
  for (const auto& [id, bytes] : files) {
    if (!env.fs.lost_blocks(id).empty()) correct = false;
    const auto back = env.fs.read(id);
    if (!back || *back != *bytes) correct = false;
  }
  if (!env.fs.scrub(/*quarantine=*/false).empty()) correct = false;
  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: CORRECTNESS FAILURE on %s (window mismatches "
                 "%llu, companion mismatches %llu)\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(window.mismatches),
                 static_cast<unsigned long long>(extra.mismatches));
    return 3;
  }

  const uint64_t attempted =
      window.attempted + extra.attempted + repair.attempted;
  const uint64_t failed = window.failed + extra.failed + repair.failed;

  // Update p99 is a per-layer figure, not an end-to-end one: on this host
  // its ten-seed quartile spread reached 0.8 (a run's ~1% share of slow
  // updates is itself bimodal), past the largest bound a gate may use.
  const auto u = joined(updates.update_s);
  const double uq = perfbench::supported_percentile(u.size(), 0.99);
  Output out;
  if (!args.trace) {
    const auto r = joined(window.read_s);
    const auto j = joined(jobs.job_s);
    const double rq = perfbench::supported_percentile(r.size(), 0.99);
    out.add("read_p50_ms", perfbench::exact_percentile(r, 0.5) * 1e3, "ms");
    out.add("read_p99_ms", perfbench::exact_percentile(r, rq) * 1e3, "ms");
    out.add("read_ops_per_s", static_cast<double>(r.size()) / window_s,
            "ops/s");
    out.add("read_mib_per_s",
            static_cast<double>(window.read_bytes) / kMiB / window_s, "MiB/s");
    out.add("update_p50_ms", perfbench::exact_percentile(u, 0.5) * 1e3, "ms");
    out.add("write_mib_per_s", ingest_bytes / kMiB / ingest_total, "MiB/s");
    out.add("repair_mib_per_s", repair.bytes / kMiB / repair.seconds, "MiB/s");
    out.add("job_s", median(j), "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    std::printf(
        "samples: {\"reads\": %zu, \"read_tail_q\": %.4f, \"updates\": %zu, "
        "\"update_tail_q\": %.4f, \"jobs\": %zu, \"setups\": %zu, "
        "\"window_s\": %.3f, \"update_source\": \"%s\", "
        "\"repair_source\": \"%s\", \"nodes_cycled\": %llu}\n",
        r.size(), rq, u.size(), uq, j.size(), setup_s.size(), window_s,
        window_updates ? "window" : "companion",
        run.spec.cluster ? "window" : "companion",
        static_cast<unsigned long long>(storm.nodes_cycled));
  } else {
    // ---- Per-layer ledger.
    const double reads_n = static_cast<double>(w1.client.reads -
                                               w0.client.reads);
    const double win_reads = static_cast<double>(window.reads);
    const auto read_spans =
        run.tracer.self_us("client.StripedReader.read_range");
    out.add("client.read_us", median(read_spans), "us");
    out.add("client.write_us", median(last.write_us), "us");
    out.add("client.batches_per_read",
            ratio(static_cast<double>(w1.client.batches - w0.client.batches),
                  reads_n),
            "count");
    out.add("client.fallbacks",
            static_cast<double>(w1.client.fallbacks - w0.client.fallbacks),
            "count");
    out.add("client.admit_wait_frac",
            ratio(static_cast<double>(w1.admit.waited - w0.admit.waited),
                  static_cast<double>(w1.admit.admitted - w0.admit.admitted)),
            "ratio");

    const double hits = static_cast<double>(w1.cache.hits - w0.cache.hits);
    const double misses =
        static_cast<double>(w1.cache.misses - w0.cache.misses);
    const double block_bytes = static_cast<double>(env.fs.block_bytes(0));
    out.add("cache.hit_rate", ratio(hits, hits + misses), "ratio");
    out.add("cache.fill_bytes_per_read",
            ratio(static_cast<double>(w1.cache.insertions -
                                      w0.cache.insertions) *
                      block_bytes,
                  win_reads),
            "bytes");
    out.add("cache.evictions",
            static_cast<double>(w1.cache.evictions - w0.cache.evictions),
            "count");
    out.add("cache.invalidations_per_update",
            ratio(static_cast<double>(ue.cache.invalidations -
                                      ub.cache.invalidations),
                  static_cast<double>(updates.updates)),
            "count");

    // Probe sample: the workload's own first 32 read ranges, each on its
    // own file.
    std::vector<Op> sample;
    {
      Traffic t = tr;
      t.update_fraction = 0;
      OpStream s(t, args.seed, 0);
      for (size_t i = 0; i < 32; ++i) sample.push_back(s.next());
    }
    // Cold store reads: the block cache is emptied before every call (not
    // timed), so each call probes, fetches and verifies like a window miss.
    std::vector<double> store_read_us;
    for (const Op& op : sample) {
      client::BlockCache::global().clear();
      const auto t0 = Clock::now();
      (void)env.fs.read_range(env.ids[op.file], op.offset, op.length);
      store_read_us.push_back(since(t0) * 1e6);
    }
    out.add("store.read_range_us", median(store_read_us), "us");
    out.add("store.probe_us", probe_us(16, [&](size_t i) {
              (void)env.fs.begin_verified_read(env.ids[sample[i].file]);
            }),
            "us");

    out.add("store.fetch_bytes_per_read_byte",
            ratio(static_cast<double>(w1.io.bytes_read - w0.io.bytes_read),
                  static_cast<double>(window.read_bytes)),
            "ratio");
    out.add("store.update_us",
            median(run.tracer.self_us("store.FileStore.update_range")), "us");
    out.add("update_p99_ms", perfbench::exact_percentile(u, uq) * 1e3, "ms");
    const core::InputFormat fmt(env.code, env.fs.block_bytes(text.id));
    const auto splits = fmt.splits(text.chunk);
    out.add("store.split_read_us",
            probe_us(std::min<size_t>(splits.size(), 32),
                     [&](size_t i) {
                       (void)env.fs.read_original_split(
                           text.id, splits[i].block, splits[i].block_offset,
                           splits[i].length);
                     }),
            "us");
    out.add("store.degraded_reads",
            static_cast<double>(w1.reads.degraded_reads -
                                w0.reads.degraded_reads),
            "count");
    out.add("store.crc_failures",
            static_cast<double>(w1.reads.crc_failures - w0.reads.crc_failures),
            "count");
    out.add("store.auto_repairs",
            static_cast<double>(w1.reads.auto_repairs - w0.reads.auto_repairs),
            "count");
    out.add("store.transient_faults",
            static_cast<double>(w1.reads.transient_faults -
                                w0.reads.transient_faults),
            "count");

    out.add("io.fetches_per_read",
            ratio(static_cast<double>(w1.io.fetches - w0.io.fetches),
                  win_reads),
            "count");
    out.add("io.queue_peak", static_cast<double>(w1.io.queue_peak), "count");
    out.add("io.fetch_p50_us", w1.io_global.p50_s * 1e6, "us");
    out.add("io.fetch_p99_us", w1.io_global.p99_s * 1e6, "us");
    const double issued =
        static_cast<double>(w1.io.hedges_issued - w0.io.hedges_issued);
    out.add("io.hedges_issued", issued, "count");
    out.add("io.hedge_win_rate",
            ratio(static_cast<double>(w1.io.hedges_won - w0.io.hedges_won),
                  issued),
            "ratio");
    out.add("io.hedge_denied",
            static_cast<double>(w1.io.hedge_denied - w0.io.hedge_denied),
            "count");
    out.add("io.cancelled",
            static_cast<double>(w1.io.cancelled - w0.io.cancelled), "count");

    const double ph = static_cast<double>(w1.plan.hits - w0.plan.hits);
    const double pm = static_cast<double>(w1.plan.misses - w0.plan.misses);
    double compiles = 0, plan_ns = 0;
    for (size_t i = 0; i < codes::kNumPlanOps; ++i) {
      compiles += static_cast<double>(w1.ops[i].plans - w0.ops[i].plans);
      plan_ns += static_cast<double>(w1.ops[i].plan_ns - w0.ops[i].plan_ns);
    }
    out.add("plan.hit_rate", ratio(ph, ph + pm), "ratio");
    out.add("plan.compiles", compiles, "count");
    out.add("codes.plan_us", plan_ns * 1e-3, "us");
    out.add("codes.decode_fast.exec_us",
            exec_us(w0, w1, codes::PlanOp::kDecodeFast), "us");
    out.add("codes.repair.exec_us", exec_us(w0, w1, codes::PlanOp::kRepair),
            "us");
    out.add("codes.update.exec_us", exec_us(ub, ue, codes::PlanOp::kUpdate),
            "us");
    out.add("codes.encode.exec_us",
            exec_us(last.before, last.after, codes::PlanOp::kEncode), "us");
    out.add("codes.batch_gbps",
            ratio(static_cast<double>(last.after.batch.bytes -
                                      last.before.batch.bytes),
                  static_cast<double>(last.after.batch.ns -
                                      last.before.batch.ns)),
            "GB/s");

    // Decode's share: the engine alone over in-memory copies of each sample
    // file's blocks, one file's copies at a time.
    const codes::CodecEngine& engine = env.code.engine();
    std::vector<double> decode_v;
    for (size_t f = 0; f < env.ids.size(); ++f) {
      std::vector<Buffer> copies;
      std::map<size_t, ConstByteSpan> blocks;
      for (const Op& op : sample) {
        if (op.file != f) continue;
        if (copies.empty()) {
          for (size_t b = 0; b < env.code.num_blocks(); ++b) {
            const auto span = env.fs.block(env.ids[f], b);
            copies.emplace_back(span->begin(), span->end());
          }
          for (size_t b = 0; b < copies.size(); ++b)
            blocks.emplace(b, copies[b]);
        }
        const auto t0 = Clock::now();
        (void)engine.read_range(blocks, op.offset, op.length);
        decode_v.push_back(since(t0) * 1e6);
      }
    }
    const double decode_us = median(decode_v);
    out.add("codes.read_range_us", decode_us, "us");
    std::vector<size_t> avail;
    const std::vector<size_t> down =
        env.coord ? env.coord->blocks_on(env.fs.server_of(0))
                  : std::vector<size_t>{};
    for (size_t b = 0; b < env.code.num_blocks(); ++b)
      if (std::find(down.begin(), down.end(), b) == down.end())
        avail.push_back(b);
    out.add("codes.decodable_us",
            probe_us(64, [&](size_t) { (void)engine.decodable(avail); }),
            "us");

    const Buffer blk = payload(static_cast<size_t>(block_bytes), args.seed);
    const double crc_gbps = throughput_gbps(blk.size(), [&] {
      g_spin_sink += crc32c(ConstByteSpan(blk));
    });
    out.add("util.crc32c_gbps", crc_gbps, "GB/s");
    Buffer dst = payload(chunk, args.seed + 1);
    const Buffer src = payload(chunk, args.seed + 2);
    out.add("gf.mul_acc_gbps", throughput_gbps(chunk, [&] {
              gf::mul_acc_region(ByteSpan(dst), 0x8e, ConstByteSpan(src));
            }),
            "GB/s");
    const double pool_hits = static_cast<double>(w1.pool.hits - w0.pool.hits);
    const double pool_misses =
        static_cast<double>(w1.pool.misses - w0.pool.misses);
    out.add("buffer_pool.hit_rate", ratio(pool_hits, pool_hits + pool_misses),
            "ratio");
    out.add("buffer_pool.peak_mib",
            static_cast<double>(w1.pool.peak_outstanding_bytes) / kMiB, "MiB");

    // Where a 4 KiB cold read goes: decode (engine probe), CRC of the bytes
    // a read fetched (at the measured CRC rate), and everything else, all
    // over the window's reads that missed the block cache. A whole-range
    // hit (client_stats cache_reads) returns before any probe, fetch or
    // CRC, and is the fastest kind of read by far, so the misses' latency
    // is the median of the read spans left once the hit share's fastest
    // are dropped. All 0 on a workload with no cache misses in its window.
    const double cache_reads =
        static_cast<double>(w1.client.cache_reads - w0.client.cache_reads);
    const double miss_reads = std::max(0.0, reads_n - cache_reads);
    std::vector<double> miss_spans = read_spans;
    std::sort(miss_spans.begin(), miss_spans.end());
    miss_spans.erase(
        miss_spans.begin(),
        miss_spans.begin() +
            static_cast<std::ptrdiff_t>(std::llround(
                ratio(cache_reads, reads_n) *
                static_cast<double>(miss_spans.size()))));
    const double miss_read_us = miss_reads > 0 ? median(miss_spans) : 0;
    const double crc_us =
        ratio(ratio(static_cast<double>(w1.io.bytes_read - w0.io.bytes_read),
                    miss_reads),
              crc_gbps * 1e3);
    const double has_misses = miss_reads > 0 ? 1 : 0;
    out.add("attrib.read_us", miss_read_us, "us");
    out.add("attrib.decode_us", has_misses * decode_us, "us");
    out.add("attrib.crc_us", crc_us, "us");
    out.add("attrib.rest_us",
            has_misses * (miss_read_us - decode_us - crc_us), "us");

    out.add("repair.drain_s", median(storm.drain_s), "s");
    out.add("repair.completed",
            static_cast<double>(w1.repair.completed - w0.repair.completed),
            "count");
    out.add("repair.requeued",
            static_cast<double>(w1.repair.requeued - w0.repair.requeued),
            "count");
    out.add("repair.dropped",
            static_cast<double>(w1.repair.dropped_stale -
                                w0.repair.dropped_stale +
                                w1.repair.dropped_dead - w0.repair.dropped_dead),
            "count");
    out.add("repair.unrecoverable",
            static_cast<double>(w1.repair.unrecoverable -
                                w0.repair.unrecoverable),
            "count");
    out.add("repair.node_bytes",
            static_cast<double>(w1.node_repair_bytes - w0.node_repair_bytes),
            "bytes");
    out.add("repair.rebuilt_bytes", storm.rebuilt_bytes, "bytes");

    const double jobs_n = static_cast<double>(j1.mr.jobs - j0.mr.jobs);
    out.add("mr.map_s", ratio(static_cast<double>(j1.mr.map_ns - j0.mr.map_ns),
                              jobs_n) * 1e-9,
            "s");
    out.add("mr.shuffle_s",
            ratio(static_cast<double>(j1.mr.shuffle_ns - j0.mr.shuffle_ns),
                  jobs_n) * 1e-9,
            "s");
    out.add("mr.reduce_s",
            ratio(static_cast<double>(j1.mr.reduce_ns - j0.mr.reduce_ns),
                  jobs_n) * 1e-9,
            "s");
    out.add("mr.splits",
            ratio(static_cast<double>(j1.mr.splits_mapped -
                                      j0.mr.splits_mapped),
                  jobs_n),
            "count");
    out.add("mr.degraded_splits",
            ratio(static_cast<double>(j1.mr.degraded_splits -
                                      j0.mr.degraded_splits),
                  jobs_n),
            "count");
    out.add("mr.bytes_original",
            ratio(static_cast<double>(j1.mr.bytes_original -
                                      j0.mr.bytes_original),
                  jobs_n),
            "bytes");
    {
      const mr::WordCountMapper mapper;
      std::vector<mr::KeyValue> kv;
      const auto t0 = Clock::now();
      for (const auto& sp : splits) {
        kv.clear();
        const size_t off = sp.file_offset;
        mapper.map(ConstByteSpan(text.bytes).subspan(off, sp.length), kv);
      }
      out.add("mr.map_cpu_s", since(t0), "s");
    }

    out.add("error_rate",
            ratio(static_cast<double>(failed), static_cast<double>(attempted)),
            "ratio");
    // Tracing overhead: traced- vs untraced-slice median read latency.
    const double m0 = median(window.read_s[0]), m1 = median(window.read_s[1]);
    out.add("trace.overhead_pct", m0 > 0 ? 100.0 * (m1 - m0) / m0 : 0, "%");
    out.add("trace.spans", static_cast<double>(run.tracer.span_count()),
            "count");
    const std::string path = args.out + "/trace_" + args.workload + "_" +
                             std::to_string(args.seed) + ".jsonl";
    run.tracer.write(path, context);
  }

  for (const Metric& m : out.metrics)
    if (!perfbench::valid_metric_name(m.name)) {
      std::fprintf(stderr, "perfbench: bad metric name '%s'\n",
                   m.name.c_str());
      return 4;
    }
  std::printf("%s\n",
              perfbench::result_json(true, attempted, failed, out.metrics)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_workload(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
