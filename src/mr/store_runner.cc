#include "mr/store_runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <string_view>
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

// A map task's hash partitioner: appends each pair it is given to
// parts[hash(key) % parts.size()]. A non-combinable mapper emits straight
// into it.
struct PartitionSink final : Emitter {
  explicit PartitionSink(std::vector<std::vector<KeyValue>>& p) : parts(p) {}
  void emit(std::string_view key, std::string_view value) override {
    ++emitted;
    parts[std::hash<std::string_view>{}(key) % parts.size()].push_back(
        {std::string(key), std::string(value)});
  }
  std::vector<std::vector<KeyValue>>& parts;
  uint64_t emitted = 0;
};

}  // namespace

void CountingSink::emit(std::string_view key, std::string_view value) {
  ++emitted_;
  uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [at, ec] = std::from_chars(value.data(), end, v);
  GALLOPER_CHECK_MSG(ec == std::errc() && at == end,
                     "non-decimal combinable value \"" << value << '"');
  auto it = sums_.find(key);
  if (it == sums_.end()) it = sums_.emplace(std::string(key), 0).first;
  it->second += v;
}

void CountingSink::flush(Emitter& out) const {
  for (const auto& [key, sum] : sums_) out.emit(key, std::to_string(sum));
}

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
  // around it: a degraded split. The mapper emits into a sink that
  // hash-partitions per task, so the shuffle below never touches a global
  // intermediate; for a combinable reducer the sink sums each key in place
  // and partitions one pair per distinct key (in-mapper combining).
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
    PartitionSink partition(parts[si]);
    if (reducer_.combinable()) {
      CountingSink counts;
      mapper_.map(ConstByteSpan(*data), counts);
      counts.flush(partition);
      pairs_emitted.fetch_add(counts.emitted(), std::memory_order_relaxed);
    } else {
      mapper_.map(ConstByteSpan(*data), partition);
      pairs_emitted.fetch_add(partition.emitted, std::memory_order_relaxed);
    }
    pairs_shuffled.fetch_add(partition.emitted, std::memory_order_relaxed);
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
