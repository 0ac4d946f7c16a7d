#include "mr/store_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <string>
#include <utility>

#include "core/input_format.h"
#include "rt/pool.h"
#include "util/check.h"

namespace galloper::mr {

namespace {

struct MrCounters {
  std::atomic<uint64_t> jobs{0};
  std::atomic<uint64_t> splits_mapped{0};
  std::atomic<uint64_t> degraded_splits{0};
  std::atomic<uint64_t> bytes_original{0};
  std::atomic<uint64_t> bytes_decoded{0};
  std::atomic<uint64_t> map_ns{0};
  std::atomic<uint64_t> shuffle_ns{0};
  std::atomic<uint64_t> reduce_ns{0};
};

MrCounters& counters() {
  static MrCounters c;
  return c;
}

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

MrStats mr_stats() {
  const MrCounters& c = counters();
  MrStats s;
  s.jobs = c.jobs.load(std::memory_order_relaxed);
  s.splits_mapped = c.splits_mapped.load(std::memory_order_relaxed);
  s.degraded_splits = c.degraded_splits.load(std::memory_order_relaxed);
  s.bytes_original = c.bytes_original.load(std::memory_order_relaxed);
  s.bytes_decoded = c.bytes_decoded.load(std::memory_order_relaxed);
  s.map_ns = c.map_ns.load(std::memory_order_relaxed);
  s.shuffle_ns = c.shuffle_ns.load(std::memory_order_relaxed);
  s.reduce_ns = c.reduce_ns.load(std::memory_order_relaxed);
  return s;
}

void reset_mr_stats() {
  MrCounters& c = counters();
  c.jobs.store(0, std::memory_order_relaxed);
  c.splits_mapped.store(0, std::memory_order_relaxed);
  c.degraded_splits.store(0, std::memory_order_relaxed);
  c.bytes_original.store(0, std::memory_order_relaxed);
  c.bytes_decoded.store(0, std::memory_order_relaxed);
  c.map_ns.store(0, std::memory_order_relaxed);
  c.shuffle_ns.store(0, std::memory_order_relaxed);
  c.reduce_ns.store(0, std::memory_order_relaxed);
}

StoreJobReport StoreRunner::run_report(store::FileStore& fs,
                                       store::FileId id) const {
  const core::InputFormat fmt(fs.code(), fs.block_bytes(id));
  const std::vector<core::InputFormat::Split> splits =
      opt_.max_split_bytes > 0 ? fmt.splits(opt_.max_split_bytes)
                               : fmt.splits();
  const size_t threads =
      opt_.threads > 0 ? opt_.threads : rt::ThreadPool::default_threads();
  const size_t reducers =
      opt_.reduce_tasks > 0 ? opt_.reduce_tasks : threads;
  client::AdmissionControl& gate =
      opt_.admission ? *opt_.admission : client::AdmissionControl::global();
  rt::ThreadPool& pool = rt::ThreadPool::global();

  StoreJobReport report;
  report.splits = splits.size();

  // ---- Map: one task per split, scheduled over the work-stealing pool.
  // Each task is ONE read-core read of its split's file range, under one
  // admission ticket (taken only when the read has something to fetch, as
  // StripedReader does). With the split's block available the plan copies
  // its chunks verbatim — only the split's own segments are fetched and
  // verified; with the block lost, or gone, unreadable or corrupt under the
  // read (which then replans in the same call), the same bytes are decoded
  // around it: a degraded split. Map output is hash-partitioned per task as
  // it is emitted, so the shuffle below never touches a global
  // intermediate.
  std::vector<std::vector<std::vector<KeyValue>>> parts(
      splits.size(), std::vector<std::vector<KeyValue>>(reducers));
  std::atomic<size_t> degraded{0};
  std::atomic<uint64_t> clean_bytes{0};
  std::atomic<uint64_t> decoded_bytes{0};
  const size_t one_batch = fs.code().engine().num_chunks();
  const uint64_t map_start = now_ns();
  rt::parallel_for(pool, splits.size(), threads, [&](size_t si) {
    const core::InputFormat::Split& s = splits[si];
    store::FileStore::RangeRead read =
        fs.open_read(id, s.file_offset, s.length);
    std::optional<Buffer> data;
    {
      std::optional<client::AdmissionControl::Ticket> ticket;
      if (read.needs_fetch()) ticket.emplace(gate.admit());
      data = fs.finish_read(read, one_batch, /*depth=*/1);
    }
    GALLOPER_CHECK_MSG(data.has_value(),
                       "split of block " << s.block << " unrecoverable");
    if (read.replanned() ||
        !std::binary_search(read.available().begin(), read.available().end(),
                            s.block)) {
      degraded.fetch_add(1, std::memory_order_relaxed);
      decoded_bytes.fetch_add(s.length, std::memory_order_relaxed);
    } else {
      clean_bytes.fetch_add(s.length, std::memory_order_relaxed);
    }
    std::vector<KeyValue> emitted;
    mapper_.map(ConstByteSpan(*data), emitted);
    std::vector<std::vector<KeyValue>>& mine = parts[si];
    for (KeyValue& kv : emitted)
      mine[std::hash<std::string>{}(kv.key) % reducers].push_back(
          std::move(kv));
  });
  report.map_ns = now_ns() - map_start;
  report.degraded_splits = degraded.load(std::memory_order_relaxed);
  report.bytes_original = clean_bytes.load(std::memory_order_relaxed);
  report.bytes_decoded = decoded_bytes.load(std::memory_order_relaxed);

  // ---- Shuffle: one task per partition gathers its slice of every map
  // task's output, in ascending split order (a fixed order keeps value
  // arrival deterministic; shuffle_reduce sorts per key anyway).
  std::vector<std::vector<KeyValue>> partitions(reducers);
  const uint64_t shuffle_start = now_ns();
  rt::parallel_for(pool, reducers, threads, [&](size_t r) {
    size_t total = 0;
    for (size_t si = 0; si < splits.size(); ++si) total += parts[si][r].size();
    std::vector<KeyValue>& mine = partitions[r];
    mine.reserve(total);
    for (size_t si = 0; si < splits.size(); ++si) {
      std::vector<KeyValue>& from = parts[si][r];
      std::move(from.begin(), from.end(), std::back_inserter(mine));
      from.clear();
      from.shrink_to_fit();
    }
  });
  report.shuffle_ns = now_ns() - shuffle_start;

  // ---- Reduce: each partition runs the shared group-by shuffle_reduce,
  // yielding a (key, value)-sorted run per reducer; keys are disjoint
  // across partitions (hash-partitioned), so merging the runs gives the
  // same globally sorted output run_plain produces.
  std::vector<std::vector<KeyValue>> reduced(reducers);
  const uint64_t reduce_start = now_ns();
  rt::parallel_for(pool, reducers, threads, [&](size_t r) {
    reduced[r] = shuffle_reduce(reducer_, std::move(partitions[r]));
  });
  // Binary merge tree over the sorted per-reducer runs: O(n log R).
  for (size_t step = 1; step < reducers; step *= 2) {
    for (size_t i = 0; i + step < reducers; i += 2 * step) {
      std::vector<KeyValue> merged;
      merged.reserve(reduced[i].size() + reduced[i + step].size());
      std::merge(std::make_move_iterator(reduced[i].begin()),
                 std::make_move_iterator(reduced[i].end()),
                 std::make_move_iterator(reduced[i + step].begin()),
                 std::make_move_iterator(reduced[i + step].end()),
                 std::back_inserter(merged));
      reduced[i] = std::move(merged);
      reduced[i + step].clear();
    }
  }
  report.output = std::move(reduced[0]);
  report.reduce_ns = now_ns() - reduce_start;

  MrCounters& c = counters();
  c.jobs.fetch_add(1, std::memory_order_relaxed);
  c.splits_mapped.fetch_add(report.splits, std::memory_order_relaxed);
  c.degraded_splits.fetch_add(report.degraded_splits,
                              std::memory_order_relaxed);
  c.bytes_original.fetch_add(report.bytes_original, std::memory_order_relaxed);
  c.bytes_decoded.fetch_add(report.bytes_decoded, std::memory_order_relaxed);
  c.map_ns.fetch_add(report.map_ns, std::memory_order_relaxed);
  c.shuffle_ns.fetch_add(report.shuffle_ns, std::memory_order_relaxed);
  c.reduce_ns.fetch_add(report.reduce_ns, std::memory_order_relaxed);
  return report;
}

std::vector<KeyValue> StoreRunner::run(store::FileStore& fs,
                                       store::FileId id) const {
  return run_report(fs, id).output;
}

}  // namespace galloper::mr
