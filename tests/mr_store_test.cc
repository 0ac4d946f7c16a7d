// Store-backed MapReduce: StoreRunner jobs over the real FileStore must be
// bit-identical to LocalRunner::run_plain on the original file — across
// code shapes, split caps, and thread counts; under silent corruption; and
// with servers dying before or in the middle of the job. Also covers the
// split subdivision and the degraded split reads the runner sits on.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codes/plan.h"
#include "core/galloper.h"
#include "core/input_format.h"
#include "fault/fault.h"
#include "mr/framework.h"
#include "mr/grep.h"
#include "mr/store_runner.h"
#include "mr/terasort.h"
#include "mr/wordcount.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::mr {
namespace {

using galloper::Buffer;
using galloper::CheckError;
using galloper::Rng;

uint64_t decode_repair_execs() {
  return codes::plan_op_stats(codes::PlanOp::kDecodeFast).execs +
         codes::plan_op_stats(codes::PlanOp::kRepair).execs;
}

// ---------- InputFormat::splits(max_split_bytes) ----------

TEST(SplitCap, SubdividesRunsAndCoversEveryByte) {
  core::GalloperCode gal(4, 2, 1);
  const size_t chunk = 96;
  core::InputFormat fmt(gal, gal.stripes_per_block() * chunk);
  const auto runs = fmt.splits();

  for (size_t cap : {chunk / 3, chunk, 3 * chunk, fmt.block_bytes() * 2}) {
    const auto subs = fmt.splits(cap);
    size_t covered = 0;
    size_t run_idx = 0, run_off = 0;
    for (const auto& s : subs) {
      EXPECT_LE(s.length, cap);
      EXPECT_GT(s.length, 0u);
      // Sub-splits walk the maximal runs in order, gaplessly.
      ASSERT_LT(run_idx, runs.size());
      EXPECT_EQ(s.block, runs[run_idx].block);
      EXPECT_EQ(s.block_offset, runs[run_idx].block_offset + run_off);
      EXPECT_EQ(s.file_offset, runs[run_idx].file_offset + run_off);
      run_off += s.length;
      covered += s.length;
      if (run_off == runs[run_idx].length) {
        ++run_idx;
        run_off = 0;
      }
    }
    EXPECT_EQ(run_idx, runs.size());
    EXPECT_EQ(covered, fmt.total_original_bytes());
    // Only a run's LAST piece may be shorter than the cap.
    for (size_t i = 0; i + 1 < subs.size(); ++i) {
      if (subs[i].block == subs[i + 1].block &&
          subs[i].block_offset + subs[i].length == subs[i + 1].block_offset) {
        EXPECT_EQ(subs[i].length, cap);
      }
    }
  }
  // An uncapped call must match the maximal runs exactly.
  const auto huge = fmt.splits(fmt.block_bytes() * 8);
  ASSERT_EQ(huge.size(), runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(huge[i].block, runs[i].block);
    EXPECT_EQ(huge[i].length, runs[i].length);
  }
  EXPECT_THROW(fmt.splits(0), CheckError);
}

// ---------- shuffle_reduce ----------

TEST(ShuffleReduce, MatchesGlobalSortReference) {
  // Scrambled intermediate pairs; the hash-partition group-by must produce
  // exactly what the historical sort-the-world implementation produced.
  WordCountReducer reducer;
  Rng rng(17);
  std::vector<KeyValue> intermediate;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rng.next_int(0, 40));
    intermediate.push_back({key, "1"});
  }

  // Reference: global sort, then linear grouping.
  std::vector<KeyValue> sorted = intermediate;
  std::sort(sorted.begin(), sorted.end());
  std::vector<KeyValue> expected;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    std::vector<std::string> values;
    while (j < sorted.size() && sorted[j].key == sorted[i].key)
      values.push_back(sorted[j++].value);
    reducer.reduce(sorted[i].key, values, expected);
    i = j;
  }
  std::sort(expected.begin(), expected.end());

  EXPECT_EQ(shuffle_reduce(reducer, std::move(intermediate)), expected);
}

// Records every value list it is handed, in call order.
class RecordingReducer final : public Reducer {
 public:
  void reduce(const std::string& key, const std::vector<std::string>& values,
              std::vector<KeyValue>& out) const override {
    seen.push_back(values);
    out.push_back({key, std::to_string(values.size())});
  }
  mutable std::vector<std::vector<std::string>> seen;
};

TEST(ShuffleReduce, ReducerAlwaysReceivesSortedValues) {
  // Skipping the sort of an already sorted list must not change what the
  // reducer sees: whatever order the values arrive in, it gets them sorted.
  Rng rng(19);
  std::vector<std::string> sorted;
  for (int i = 0; i < 200; ++i)
    sorted.push_back(std::to_string(rng.next_int(0, 30)));
  std::sort(sorted.begin(), sorted.end());
  ASSERT_NE(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "the input must hold duplicates";
  std::vector<std::string> reversed(sorted.rbegin(), sorted.rend());
  std::vector<std::string> shuffled = sorted;
  rng.shuffle(shuffled);

  for (const auto* order : {&sorted, &reversed, &shuffled}) {
    std::vector<KeyValue> intermediate;
    for (const std::string& v : *order) intermediate.push_back({"k", v});
    RecordingReducer reducer;
    shuffle_reduce(reducer, std::move(intermediate));
    ASSERT_EQ(reducer.seen.size(), 1u);
    EXPECT_EQ(reducer.seen[0], sorted);
  }
}

// ---------- StoreRunner: the bit-identity matrix ----------

struct StoreJob {
  sim::Simulation sim;
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<store::FileStore> fs;
  store::FileId id = 0;
  Buffer file;

  StoreJob(const codes::ErasureCode& code, size_t chunk_bytes, Rng& rng,
           const Buffer* input = nullptr) {
    cluster = std::make_unique<sim::Cluster>(sim, code.num_blocks() + 2,
                                             sim::ServerSpec{});
    fs = std::make_unique<store::FileStore>(*cluster, code);
    file = input ? *input
                 : generate_text(code.engine().num_chunks() * chunk_bytes,
                                 rng);
    id = fs->write(file);
  }
};

// ---------- degraded split reads ----------

TEST(DegradedGather, DecodesAroundMissingBlocks) {
  // The file reassembled from its split reads: with any one block lost,
  // that block's splits are decoded back bit-exactly; with fewer blocks
  // than any decodable set, a lost block's split is nullopt, not garbage.
  core::GalloperCode gal(4, 2, 1);
  Rng rng(91);
  const size_t chunk = 2 * kWordCountRecordBytes;
  const auto gather = [](store::FileStore& fs,
                         store::FileId id) -> std::optional<Buffer> {
    const core::InputFormat fmt(fs.code(), fs.block_bytes(id));
    Buffer out(fmt.total_original_bytes());
    for (const auto& s : fmt.splits()) {
      const auto got =
          fs.read_original_split(id, s.block, s.block_offset, s.length);
      if (!got) return std::nullopt;
      std::copy(got->begin(), got->end(), out.begin() + s.file_offset);
    }
    return out;
  };

  for (size_t lost = 0; lost < gal.num_blocks(); ++lost) {
    StoreJob job(gal, chunk, rng);
    job.fs->fail_server(job.fs->server_of(lost));
    const auto got = gather(*job.fs, job.id);
    ASSERT_TRUE(got.has_value()) << "lost block " << lost;
    EXPECT_EQ(*got, job.file) << "lost block " << lost;
  }

  StoreJob job(gal, chunk, rng);
  for (size_t b = 3; b < gal.num_blocks(); ++b)
    job.fs->fail_server(job.fs->server_of(b));
  EXPECT_FALSE(gather(*job.fs, job.id).has_value());
}

TEST(StoreRunner, BitIdenticalAcrossShapesSplitsAndThreads) {
  WordCountMapper mapper;
  WordCountReducer reducer;
  const LocalRunner oracle(mapper, reducer);
  Rng rng(23);

  const std::vector<galloper::Rational> het_weights{
      {1, 2}, {1, 2}, {3, 4}, {5, 8}, {1, 2}, {5, 8}, {1, 2}};
  std::vector<std::unique_ptr<core::GalloperCode>> codes;
  codes.push_back(std::make_unique<core::GalloperCode>(4, 2, 1));
  codes.push_back(std::make_unique<core::GalloperCode>(6, 3, 2));
  codes.push_back(std::make_unique<core::GalloperCode>(4, 2, 1, het_weights));

  const size_t chunk = 4 * kWordCountRecordBytes;  // record-aligned chunks
  for (const auto& code : codes) {
    StoreJob job(*code, chunk, rng);
    const auto plain = oracle.run_plain(job.file);
    for (size_t cap : {size_t{0}, chunk, 3 * chunk}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        StoreRunnerOptions opt;
        opt.threads = threads;
        opt.max_split_bytes = cap;
        const StoreRunner runner(mapper, reducer, opt);
        const auto report = runner.run_report(*job.fs, job.id);
        EXPECT_EQ(report.output, plain)
            << "blocks=" << code->num_blocks() << " cap=" << cap
            << " threads=" << threads;
        EXPECT_EQ(report.degraded_splits, 0u);
        EXPECT_EQ(report.bytes_original, job.file.size());
        EXPECT_EQ(report.bytes_decoded, 0u);
      }
    }
  }
}

TEST(StoreRunner, TeraSortAndGrepMatchPlainExecution) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(29);
  const size_t chunk = 2 * kTeraRecordBytes;  // also a 50-multiple
  {
    const Buffer input =
        generate_records(gal.engine().num_chunks() * chunk, rng);
    StoreJob job(gal, chunk, rng, &input);
    TeraSortMapper mapper;
    TeraSortReducer reducer;
    StoreRunnerOptions opt;
    opt.threads = 4;
    opt.max_split_bytes = chunk;
    const StoreRunner runner(mapper, reducer, opt);
    EXPECT_EQ(runner.run(*job.fs, job.id),
              LocalRunner(mapper, reducer).run_plain(input));
  }
  {
    const std::string needle = "zqzq";
    const Buffer input = generate_grep_corpus(
        gal.engine().num_chunks() * chunk, chunk, needle, rng);
    StoreJob job(gal, chunk, rng, &input);
    GrepMapper mapper(needle);
    GrepReducer reducer;
    StoreRunnerOptions opt;
    opt.threads = 4;
    opt.max_split_bytes = chunk;
    const StoreRunner runner(mapper, reducer, opt);
    const auto out = runner.run(*job.fs, job.id);
    EXPECT_EQ(out, LocalRunner(mapper, reducer).run_plain(input));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(std::stoull(out[0].value), count_occurrences(input, needle));
  }
}

TEST(StoreRunner, CleanPathNeverExecutesDecodePlans) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(31);
  StoreJob job(gal, 4 * kWordCountRecordBytes, rng);
  WordCountMapper mapper;
  WordCountReducer reducer;
  StoreRunnerOptions opt;
  opt.threads = 4;
  const StoreRunner runner(mapper, reducer, opt);
  const uint64_t before = decode_repair_execs();
  const auto report = runner.run_report(*job.fs, job.id);
  EXPECT_EQ(decode_repair_execs() - before, 0u)
      << "a healthy job must stream original bytes only";
  EXPECT_EQ(report.degraded_splits, 0u);
  EXPECT_EQ(report.splits, gal.num_blocks());
}

// Emits how many values a key received — NOT a sum of them, so running it
// as a combiner changes the answer. The test below declares it combinable
// once, wrongly, to prove it can see combining.
class CountValuesReducer final : public Reducer {
 public:
  explicit CountValuesReducer(bool combinable) : combinable_(combinable) {}
  void reduce(const std::string& key, const std::vector<std::string>& values,
              std::vector<KeyValue>& out) const override {
    out.push_back({key, std::to_string(values.size())});
  }
  bool combinable() const override { return combinable_; }

 private:
  bool combinable_;
};

TEST(StoreRunner, CombinerMatchesPlainOnlyForCombinableReducers) {
  core::GalloperCode gal(4, 2, 1);
  const size_t chunk = 4 * kWordCountRecordBytes;
  WordCountMapper mapper;
  WordCountReducer sum;
  const CountValuesReducer count(/*combinable=*/false);
  const CountValuesReducer wrongly_combinable(/*combinable=*/true);
  Rng seeds(53);
  for (int trial = 0; trial < 3; ++trial) {
    Rng rng(seeds.next_u64());
    for (bool dead : {false, true}) {
      StoreJob job(gal, chunk, rng);
      if (dead)
        job.fs->fail_server(job.fs->server_of(static_cast<size_t>(
            rng.next_int(0, static_cast<int64_t>(gal.num_blocks()) - 1))));
      const auto plain_sum = LocalRunner(mapper, sum).run_plain(job.file);
      const auto plain_count = LocalRunner(mapper, count).run_plain(job.file);
      ASSERT_EQ(plain_sum, plain_count) << "every mapped value is \"1\"";
      for (size_t cap : {size_t{0}, chunk, 3 * chunk}) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
          StoreRunnerOptions opt;
          opt.threads = threads;
          opt.max_split_bytes = cap;
          const std::string where = "trial=" + std::to_string(trial) +
                                    " dead=" + std::to_string(dead) +
                                    " cap=" + std::to_string(cap) +
                                    " threads=" + std::to_string(threads);
          EXPECT_EQ(StoreRunner(mapper, sum, opt).run(*job.fs, job.id),
                    plain_sum)
              << where;
          EXPECT_EQ(StoreRunner(mapper, count, opt).run(*job.fs, job.id),
                    plain_count)
              << where << ": the runner combined without the opt-in";
          EXPECT_NE(StoreRunner(mapper, wrongly_combinable, opt)
                        .run(*job.fs, job.id),
                    plain_count)
              << where << ": combining must be visible in the output";
        }
      }
    }
  }
}

// Emits a value that is not a decimal count.
class NonDecimalMapper final : public Mapper {
 public:
  void map(ConstByteSpan, Emitter& out) const override { out.emit("k", "x"); }
};

TEST(StoreRunner, CombinableReducerRejectsNonDecimalValues) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(59);
  StoreJob job(gal, 4 * kWordCountRecordBytes, rng);
  const NonDecimalMapper mapper;
  const WordCountReducer reducer;
  EXPECT_THROW(StoreRunner(mapper, reducer, {}).run(*job.fs, job.id),
               CheckError)
      << "a combinable reducer promises decimal counts";
}

// ---------- faults ----------

TEST(StoreRunner, CorruptBlockFallsBackBitIdenticallyAndSelfHeals) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(37);
  const size_t chunk = 4 * kWordCountRecordBytes;
  StoreJob job(gal, chunk, rng);
  WordCountMapper mapper;
  WordCountReducer reducer;
  const auto plain = LocalRunner(mapper, reducer).run_plain(job.file);

  job.fs->corrupt_block(job.id, 3, 11);

  StoreRunnerOptions opt;
  opt.threads = 1;  // deterministic: exactly one split trips the quarantine
  opt.max_split_bytes = chunk;
  const StoreRunner runner(mapper, reducer, opt);
  const auto report = runner.run_report(*job.fs, job.id);
  EXPECT_EQ(report.output, plain);
  EXPECT_EQ(report.degraded_splits, 1u);
  const auto stats = job.fs->read_stats();
  EXPECT_GE(stats.crc_failures, 1u);
  EXPECT_GE(stats.auto_repairs, 1u) << "the read must heal the block";

  // Healed: the next job is fully clean again.
  EXPECT_EQ(runner.run_report(*job.fs, job.id).degraded_splits, 0u);
}

TEST(StoreRunner, DeadServerSplitsDegradeButCompleteIdentically) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(41);
  const size_t chunk = 4 * kWordCountRecordBytes;
  StoreJob job(gal, chunk, rng);
  WordCountMapper mapper;
  WordCountReducer reducer;
  const auto plain = LocalRunner(mapper, reducer).run_plain(job.file);

  const size_t dead = gal.num_blocks() - 1;
  job.fs->fail_server(dead);

  StoreRunnerOptions opt;
  opt.threads = 4;
  opt.max_split_bytes = chunk;
  const StoreRunner runner(mapper, reducer, opt);
  core::InputFormat fmt(gal, job.fs->block_bytes(job.id));
  size_t expect_degraded = 0;
  for (const auto& s : fmt.splits(chunk))
    if (s.block == dead) ++expect_degraded;
  ASSERT_GT(expect_degraded, 0u) << "the dead block must hold original data";

  const auto report = runner.run_report(*job.fs, job.id);
  EXPECT_EQ(report.output, plain);
  EXPECT_EQ(report.degraded_splits, expect_degraded);
  EXPECT_EQ(report.bytes_decoded, expect_degraded * chunk);
}

TEST(StoreRunner, MidJobServerFailureStillCompletesBitIdentically) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(43);
  const size_t chunk = 4 * kWordCountRecordBytes;
  StoreJob job(gal, chunk, rng);
  WordCountMapper mapper;
  WordCountReducer reducer;
  const auto plain = LocalRunner(mapper, reducer).run_plain(job.file);

  // Stretch every block read a little so the kill lands inside the map
  // phase with high probability (identity must hold either way).
  fault::FaultInjector injector(0xdead);
  injector.set_read_latency(1.0, 0.002);
  job.fs->set_fault_injector(&injector);

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    job.fs->fail_server(gal.num_blocks() - 1);
  });

  StoreRunnerOptions opt;
  opt.threads = 4;
  opt.max_split_bytes = chunk;
  const StoreRunner runner(mapper, reducer, opt);
  const auto report = runner.run_report(*job.fs, job.id);
  killer.join();
  EXPECT_EQ(report.output, plain)
      << "a mid-job kill may degrade splits but never change the answer";
  EXPECT_EQ(report.splits, 28u) << "no split is dropped";
}

// ---------- process-wide MrStats ----------

TEST(StoreRunner, MrStatsAccumulateAcrossJobs) {
  core::GalloperCode gal(4, 2, 1);
  Rng rng(47);
  StoreJob job(gal, 4 * kWordCountRecordBytes, rng);
  WordCountMapper mapper;
  WordCountReducer reducer;
  const StoreRunner runner(mapper, reducer, {});

  reset_mr_stats();
  runner.run(*job.fs, job.id);
  runner.run(*job.fs, job.id);
  const MrStats stats = mr_stats();
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_EQ(stats.splits_mapped, 2 * gal.num_blocks());
  EXPECT_EQ(stats.degraded_splits, 0u);
  EXPECT_EQ(stats.bytes_original, 2 * job.file.size());
  EXPECT_EQ(stats.bytes_decoded, 0u);
  EXPECT_GT(stats.map_ns, 0u);

  // The mapper emits one pair per word; the combiner leaves at most one
  // per distinct word per split.
  uint64_t words = 0;
  std::set<std::string> distinct;
  std::string word;
  for (uint8_t b : job.file) {
    if (b != ' ') {
      word.push_back(static_cast<char>(b));
    } else if (!word.empty()) {
      ++words;
      distinct.insert(word);
      word.clear();
    }
  }
  ASSERT_TRUE(word.empty()) << "generated text ends in a space";
  EXPECT_EQ(stats.pairs_emitted, 2 * words);
  EXPECT_LE(stats.pairs_shuffled, 2 * gal.num_blocks() * distinct.size());

  // TeraSort's reducer is not combinable: everything emitted is shuffled.
  const Buffer records = generate_records(job.file.size(), rng);
  StoreJob tera(gal, 4 * kWordCountRecordBytes, rng, &records);
  TeraSortMapper tera_mapper;
  TeraSortReducer tera_reducer;
  reset_mr_stats();
  StoreRunner(tera_mapper, tera_reducer, {}).run(*tera.fs, tera.id);
  EXPECT_GT(mr_stats().pairs_emitted, 0u);
  EXPECT_EQ(mr_stats().pairs_shuffled, mr_stats().pairs_emitted);

  reset_mr_stats();
  EXPECT_EQ(mr_stats().jobs, 0u);
}

}  // namespace
}  // namespace galloper::mr
