// Tests for the execution layer (src/rt): byte-range slicing and the
// persistent work-stealing pool, plus a stress test with concurrent engines
// sharing the global pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/galloper.h"
#include "rt/pool.h"
#include "rt/queue.h"
#include "rt/slicer.h"
#include "util/bytes.h"

namespace galloper::rt {
namespace {

// ---- slice_ranges -------------------------------------------------------

void check_partition(const std::vector<SliceRange>& slices, size_t n,
                     size_t max_slices, size_t align) {
  ASSERT_LE(slices.size(), max_slices);
  size_t expect_lo = 0;
  size_t min_units = SIZE_MAX, max_units = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    const auto& s = slices[i];
    EXPECT_EQ(s.lo, expect_lo) << "gap or overlap before slice " << i;
    EXPECT_LT(s.lo, s.hi) << "empty slice " << i;
    if (i + 1 < slices.size())
      EXPECT_EQ(s.hi % align, 0u) << "interior boundary not aligned";
    const size_t units = (s.hi - s.lo + align - 1) / align;
    min_units = std::min(min_units, units);
    max_units = std::max(max_units, units);
    expect_lo = s.hi;
  }
  EXPECT_EQ(expect_lo, n) << "slices do not cover [0, n)";
  if (!slices.empty())
    EXPECT_LE(max_units - min_units, 1u) << "unbalanced by >1 unit";
}

TEST(SliceRanges, EmptyInputs) {
  EXPECT_TRUE(slice_ranges(0, 4).empty());
  EXPECT_TRUE(slice_ranges(100, 0).empty());
}

TEST(SliceRanges, SingleSliceWhenSmallerThanOneUnit) {
  const auto s = slice_ranges(17, 8, 64);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], (SliceRange{0, 17}));
}

TEST(SliceRanges, NoShortTail) {
  // The naive ceil(n/threads) split of 1024 lines into 3 gives 342+342+340
  // units only by luck; for n = 8·64, threads = 3 it gives 3+3+2 — but for
  // n = 9·64, threads = 4 naive gives 3+3+3+0: an EMPTY last slice. The
  // balanced slicer must never do that.
  const auto s = slice_ranges(9 * 64, 4, 64);
  ASSERT_EQ(s.size(), 4u);
  check_partition(s, 9 * 64, 4, 64);
}

TEST(SliceRanges, PropertySweep) {
  for (size_t align : {1, 8, 64}) {
    for (size_t n : {1u, 7u, 63u, 64u, 65u, 640u, 1000u, 4096u, 100001u}) {
      for (size_t m : {1u, 2u, 3u, 4u, 8u, 17u, 1000u}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " m=" << m << " align=" << align);
        check_partition(slice_ranges(n, m, align), n, m, align);
      }
    }
  }
}

// ---- parallel_for -------------------------------------------------------

TEST(ParallelFor, EveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (size_t count : {0u, 1u, 2u, 7u, 100u, 1000u}) {
    for (size_t par : {1u, 2u, 4u, 200u}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(pool, count, par, [&](size_t i) { hits[i]++; });
      for (size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, ZeroWorkerPoolIsSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<size_t> done{0};
  parallel_for(pool, 64, 8, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    done++;
  });
  EXPECT_EQ(done.load(), 64u);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<size_t> done{0};
  parallel_for(pool, 4, 4, [&](size_t) {
    parallel_for(pool, 8, 4, [&](size_t) { done++; });
  });
  EXPECT_EQ(done.load(), 32u);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  ThreadPool pool(2);
  std::atomic<size_t> ran{0};
  EXPECT_THROW(parallel_for(pool, 100, 4,
                            [&](size_t i) {
                              ran++;
                              if (i == 13) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Every claimed index still completed before the rethrow.
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LE(ran.load(), 100u);
}

TEST(ParallelFor, SelfBalancesUnequalCosts) {
  ThreadPool pool(3);
  // One heavy index among many light ones; just verify completion + sum.
  std::atomic<uint64_t> sum{0};
  parallel_for(pool, 256, 4, [&](size_t i) {
    if (i == 0)
      for (volatile int spin = 0; spin < 100000; ++spin) {
      }
    sum += i;
  });
  EXPECT_EQ(sum.load(), 255u * 256u / 2);
}

TEST(ThreadPool, SubmitRunsAllTasks) {
  std::atomic<size_t> done{0};
  {
    ThreadPool pool(2);
    for (size_t i = 0; i < 100; ++i) pool.submit([&] { done++; });
    // Destructor drains the queues before joining.
  }
  EXPECT_EQ(done.load(), 100u);
}

TEST(ThreadPool, DefaultThreadsHonorsEnv) {
  // Only checks the no-env behavior cheaply: positive count.
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

// ---- concurrent engines sharing the global pool -------------------------

TEST(ThreadPoolStress, ConcurrentEnginesShareGlobalPool) {
  const core::GalloperCode code(4, 2, 1);
  const size_t chunk = 256;
  const size_t file_bytes = code.engine().num_chunks() * chunk;

  auto worker = [&](uint32_t seed) {
    std::mt19937 rng(seed);
    Buffer file(file_bytes);
    for (auto& b : file) b = static_cast<uint8_t>(rng());

    const auto serial = code.engine().encode(file);
    for (int iter = 0; iter < 8; ++iter) {
      const auto par = code.engine().encode(file, 1 + iter % 4);
      ASSERT_EQ(par.size(), serial.size());
      for (size_t b = 0; b < par.size(); ++b) ASSERT_EQ(par[b], serial[b]);

      std::map<size_t, ConstByteSpan> view;
      for (size_t b = 1; b < par.size(); ++b) view.emplace(b, par[b]);
      const auto dec = code.engine().decode(view, 1 + iter % 4);
      ASSERT_TRUE(dec.has_value());
      ASSERT_EQ(*dec, file);
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) threads.emplace_back(worker, 1234 + t);
  for (auto& t : threads) t.join();
}

// ---- BoundedQueue (the streaming pipeline's stage connector) ------------

TEST(BoundedQueue, FifoAndDrainAfterClose) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // closed: dropped
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_FALSE(q.pop().has_value());  // end-of-stream
  EXPECT_FALSE(q.pop().has_value());  // and stays that way
}

TEST(BoundedQueue, ProducerBlocksAtCapacityUntilConsumed) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(10));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(20));  // blocks until the consumer pops
    second_pushed = true;
  });
  EXPECT_EQ(q.pop(), std::optional<int>(10));
  EXPECT_EQ(q.pop(), std::optional<int>(20));
  producer.join();
  EXPECT_TRUE(second_pushed);
}

TEST(BoundedQueue, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });   // full → parked
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.pop()); });  // empty → parked
  q.close();
  empty.close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueue, PoisonDropsQueuedItemsAndRecordsFirstError) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  EXPECT_FALSE(q.poisoned());
  q.poison(std::make_exception_ptr(std::runtime_error("disk on fire")));
  // Unlike close(), the queued items are GONE: after an I/O error the
  // stream behind it must not be consumed as if it were healthy.
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(3));  // behaves closed for producers too
  EXPECT_TRUE(q.poisoned());
  try {
    q.rethrow_if_poisoned();
    FAIL() << "expected the recorded error to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "disk on fire");
  }
}

TEST(BoundedQueue, FirstPoisonWins) {
  BoundedQueue<int> q(2);
  q.poison(std::make_exception_ptr(std::runtime_error("first")));
  q.poison(std::make_exception_ptr(std::runtime_error("second")));
  try {
    q.rethrow_if_poisoned();
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(BoundedQueue, NullPoisonActsLikeCloseWithDrop) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(7));
  q.poison(nullptr);
  EXPECT_FALSE(q.pop().has_value());  // items dropped
  EXPECT_FALSE(q.poisoned());         // but no error recorded
  EXPECT_NO_THROW(q.rethrow_if_poisoned());
}

TEST(BoundedQueue, PoisonWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(1);
  ASSERT_TRUE(full.push(1));
  std::thread producer([&] { EXPECT_FALSE(full.push(2)); });  // full → parked
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.pop()); });   // empty → parked
  full.poison(std::make_exception_ptr(std::runtime_error("boom")));
  empty.poison(std::make_exception_ptr(std::runtime_error("boom")));
  producer.join();
  consumer.join();
  EXPECT_TRUE(full.poisoned());
  EXPECT_TRUE(empty.poisoned());
}

TEST(BoundedQueue, ThreadedFifoOrderPreserved) {
  BoundedQueue<size_t> q(2);
  constexpr size_t kN = 500;
  std::thread producer([&] {
    for (size_t i = 0; i < kN; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  size_t expect = 0;
  while (auto v = q.pop()) EXPECT_EQ(*v, expect++);
  EXPECT_EQ(expect, kN);
  producer.join();
}

// queue_depth() re-reads GALLOPER_QUEUE_DEPTH on every call: positive
// values clamp to [1, 64]; everything else falls back to the default 2.
TEST(QueueDepth, EnvParsingAndClamping) {
  const char* saved = std::getenv("GALLOPER_QUEUE_DEPTH");
  const std::string saved_value = saved ? saved : "";

  unsetenv("GALLOPER_QUEUE_DEPTH");
  EXPECT_EQ(queue_depth(), 2u);
  setenv("GALLOPER_QUEUE_DEPTH", "5", 1);
  EXPECT_EQ(queue_depth(), 5u);
  setenv("GALLOPER_QUEUE_DEPTH", "1", 1);
  EXPECT_EQ(queue_depth(), 1u);
  setenv("GALLOPER_QUEUE_DEPTH", "64", 1);
  EXPECT_EQ(queue_depth(), 64u);
  setenv("GALLOPER_QUEUE_DEPTH", "100", 1);
  EXPECT_EQ(queue_depth(), 64u);
  setenv("GALLOPER_QUEUE_DEPTH", "0", 1);
  EXPECT_EQ(queue_depth(), 2u);
  setenv("GALLOPER_QUEUE_DEPTH", "-3", 1);
  EXPECT_EQ(queue_depth(), 2u);
  setenv("GALLOPER_QUEUE_DEPTH", "abc", 1);
  EXPECT_EQ(queue_depth(), 2u);

  if (saved)
    setenv("GALLOPER_QUEUE_DEPTH", saved_value.c_str(), 1);
  else
    unsetenv("GALLOPER_QUEUE_DEPTH");
}

TEST(StageThread, RunsBodyAndRethrowsNothingOnSuccess) {
  std::atomic<bool> ran{false};
  std::atomic<bool> aborted{false};
  {
    StageThread stage([&] { ran = true; },
                      [&](std::exception_ptr) { aborted = true; });
    stage.join();
    stage.rethrow();
  }
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(aborted.load());
}

TEST(StageThread, AbortCallbackSeesTheExceptionAndRethrowDelivers) {
  std::atomic<bool> aborted{false};
  StageThread stage([] { throw std::runtime_error("stage boom"); },
                    [&](std::exception_ptr e) { aborted = e != nullptr; });
  stage.join();
  EXPECT_TRUE(aborted.load());
  EXPECT_THROW(stage.rethrow(), std::runtime_error);
}

}  // namespace
}  // namespace galloper::rt
