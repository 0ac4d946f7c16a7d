#include "mr/store_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>

#include "core/input_format.h"
#include "rt/pool.h"
#include "util/check.h"

namespace galloper::mr {

namespace {

// Process-wide MrStats, added to once per job.
struct Totals {
  std::mutex mu;
  MrStats stats;  // guarded by mu
};

Totals& totals() {
  static Totals t;
  return t;
}

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

MrStats mr_stats() {
  Totals& t = totals();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.stats;
}

void reset_mr_stats() {
  Totals& t = totals();
  std::lock_guard<std::mutex> lock(t.mu);
  t.stats = {};
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
  // around it: a degraded split. A combinable reducer then folds the task's
  // output to one pair per distinct key (the map-side combiner), and what
  // is left is hash-partitioned per task, so the shuffle below never
  // touches a global intermediate.
  std::vector<std::vector<std::vector<KeyValue>>> parts(
      splits.size(), std::vector<std::vector<KeyValue>>(reducers));
  std::atomic<size_t> degraded{0};
  std::atomic<uint64_t> clean_bytes{0};
  std::atomic<uint64_t> decoded_bytes{0};
  std::atomic<uint64_t> pairs_emitted{0};
  std::atomic<uint64_t> pairs_shuffled{0};
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
    pairs_emitted.fetch_add(emitted.size(), std::memory_order_relaxed);
    if (reducer_.combinable())
      emitted = shuffle_reduce(reducer_, std::move(emitted));
    pairs_shuffled.fetch_add(emitted.size(), std::memory_order_relaxed);
    std::vector<std::vector<KeyValue>>& mine = parts[si];
    for (KeyValue& kv : emitted)
      mine[std::hash<std::string>{}(kv.key) % reducers].push_back(
          std::move(kv));
  });
  report.map_ns = now_ns() - map_start;
  report.degraded_splits = degraded.load(std::memory_order_relaxed);
  report.bytes_original = clean_bytes.load(std::memory_order_relaxed);
  report.bytes_decoded = decoded_bytes.load(std::memory_order_relaxed);
  report.pairs_emitted = pairs_emitted.load(std::memory_order_relaxed);
  report.pairs_shuffled = pairs_shuffled.load(std::memory_order_relaxed);

  // ---- Shuffle: one task per partition gathers its slice of every map
  // task's output, in ascending split order (a fixed order keeps value
  // arrival deterministic; shuffle_reduce sorts each key's values anyway).
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

  Totals& t = totals();
  std::lock_guard<std::mutex> lock(t.mu);
  MrStats& st = t.stats;
  ++st.jobs;
  st.splits_mapped += report.splits;
  st.degraded_splits += report.degraded_splits;
  st.bytes_original += report.bytes_original;
  st.bytes_decoded += report.bytes_decoded;
  st.pairs_emitted += report.pairs_emitted;
  st.pairs_shuffled += report.pairs_shuffled;
  st.map_ns += report.map_ns;
  st.shuffle_ns += report.shuffle_ns;
  st.reduce_ns += report.reduce_ns;
  return report;
}

std::vector<KeyValue> StoreRunner::run(store::FileStore& fs,
                                       store::FileId id) const {
  return run_report(fs, id).output;
}

}  // namespace galloper::mr
