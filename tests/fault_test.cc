// Fault-injection subsystem: injector determinism, write gating, silent
// corruption detection through the store's CRC paths, transient-read
// retries, latency-spike accounting, and crash-point idempotence.
#include <gtest/gtest.h>

#include <chrono>
#include <span>

#include "core/galloper.h"
#include "fault/fault.h"
#include "io/async.h"
#include "store/file_store.h"
#include "store/recovery.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::fault {
namespace {

using galloper::Buffer;
using galloper::Rng;
using galloper::random_buffer;
using store::FileId;
using store::FileStore;

std::span<uint8_t> span_of(Buffer& b) {
  return std::span<uint8_t>(b.data(), b.size());
}

TEST(FaultInjectorTest, SameSeedReplaysIdentically) {
  FaultInjector a(99), b(99);
  for (FaultInjector* inj : {&a, &b}) {
    inj->set_bit_flip_rate(0.3);
    inj->set_torn_write_rate(0.2);
    inj->set_read_failure_rate(0.4);
  }
  Rng rng(5);
  Buffer xa = random_buffer(4096, rng);
  Buffer xb = xa;
  for (size_t i = 0; i < 200; ++i) {
    a.on_write(0, i % 7, span_of(xa));
    b.on_write(0, i % 7, span_of(xb));
    EXPECT_EQ(a.read_fails(), b.read_fails());
  }
  // Identical decisions ⇒ identical damage and identical stats.
  EXPECT_EQ(xa, xb);
  EXPECT_EQ(a.stats().bit_flips, b.stats().bit_flips);
  EXPECT_EQ(a.stats().torn_writes, b.stats().torn_writes);
  EXPECT_EQ(a.stats().read_failures, b.stats().read_failures);
  EXPECT_EQ(a.stats().decisions, b.stats().decisions);
  // And the schedule actually fired at these rates over 200 writes.
  EXPECT_GT(a.stats().bit_flips + a.stats().torn_writes, 0u);
  EXPECT_GT(a.stats().read_failures, 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector a(1), b(2);
  a.set_read_failure_rate(0.5);
  b.set_read_failure_rate(0.5);
  bool diverged = false;
  for (size_t i = 0; i < 64 && !diverged; ++i)
    diverged = a.read_fails() != b.read_fails();
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, WriteGateVetoesWithoutDamage) {
  FaultInjector inj(7);
  inj.set_bit_flip_rate(1.0);
  Buffer buf(64, 0xAB);
  const Buffer orig = buf;
  size_t calls = 0;
  inj.set_write_gate([&](size_t file, size_t block) {
    ++calls;
    EXPECT_EQ(file, 3u);
    EXPECT_EQ(block, 1u);
    return false;
  });
  inj.on_write(3, 1, span_of(buf));
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(buf, orig);  // vetoed fault leaves the bytes alone
  EXPECT_EQ(inj.stats().write_vetoes, 1u);
  EXPECT_EQ(inj.stats().bit_flips, 0u);

  // Clearing the gate re-enables the schedule.
  inj.set_write_gate(nullptr);
  inj.on_write(3, 1, span_of(buf));
  EXPECT_NE(buf, orig);
  EXPECT_EQ(inj.stats().bit_flips, 1u);
}

TEST(FaultInjectorTest, FailNextReadsOverridesRate) {
  FaultInjector inj(11);  // rate 0: reads never fail on their own
  inj.fail_next_reads(3);
  EXPECT_TRUE(inj.read_fails());
  EXPECT_TRUE(inj.read_fails());
  EXPECT_TRUE(inj.read_fails());
  EXPECT_FALSE(inj.read_fails());
}

TEST(FaultInjectorTest, ClearStopsEverySchedule) {
  FaultInjector inj(13);
  inj.set_bit_flip_rate(1.0);
  inj.set_torn_write_rate(1.0);
  inj.set_read_failure_rate(1.0);
  inj.set_read_latency(1.0, 0.5);
  inj.arm_crash("p");
  inj.clear();
  Buffer buf(32, 0x55);
  const Buffer orig = buf;
  inj.on_write(0, 0, span_of(buf));
  EXPECT_EQ(buf, orig);
  EXPECT_FALSE(inj.read_fails());
  EXPECT_EQ(inj.read_latency(), 0.0);
  EXPECT_NO_THROW(inj.crash_point("p"));
}

TEST(FaultInjectorTest, CrashErrorIsNotACheckError) {
  // Cleanup handlers filter on this: a CheckError runs cleanup, a
  // CrashError must NOT (a real crash would not unwind).
  CrashError crash("x");
  const std::exception* e = &crash;
  EXPECT_EQ(dynamic_cast<const CheckError*>(e), nullptr);
  FaultInjector inj(1);
  inj.arm_crash("point", /*nth=*/2);
  EXPECT_NO_THROW(inj.crash_point("point"));  // first hit: not yet
  EXPECT_THROW(inj.crash_point("point"), CrashError);
  EXPECT_NO_THROW(inj.crash_point("point"));  // disarmed after firing
}

TEST(FaultInjectorTest, GlobalInjectorInstallAndDetach) {
  EXPECT_EQ(global(), nullptr);
  FaultInjector inj(1);
  set_global(&inj);
  EXPECT_EQ(global(), &inj);
  set_global(nullptr);
  EXPECT_EQ(global(), nullptr);
}

class FaultedStoreTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  sim::Cluster cluster{simulation, 9, sim::ServerSpec{}};
  core::GalloperCode code{4, 2, 1};
  FileStore fs{cluster, code};
  FaultInjector injector{42};
  Rng rng{123};

  Buffer make_file(size_t chunk = 128) {
    return random_buffer(code.engine().num_chunks() * chunk, rng);
  }
};

TEST_F(FaultedStoreTest, InjectedWriteFaultsAreSilentUntilScrubbed) {
  // Gate the schedule down to exactly two corrupted blocks, then verify
  // the write looked clean (the CRC recorded the TRUE bytes), the scrub
  // finds exactly those blocks, and scrub_and_repair heals them.
  injector.set_bit_flip_rate(1.0);
  size_t allowed = 2;
  std::vector<size_t> hit;
  injector.set_write_gate([&](size_t, size_t block) {
    if (allowed == 0) return false;
    --allowed;
    hit.push_back(block);
    return true;
  });
  fs.set_fault_injector(&injector);
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  ASSERT_EQ(hit.size(), 2u);

  auto corrupt = fs.scrub(/*quarantine=*/false);
  ASSERT_EQ(corrupt.size(), 2u);
  EXPECT_EQ(corrupt[0].block, hit[0]);
  EXPECT_EQ(corrupt[1].block, hit[1]);

  const auto report = fs.scrub_and_repair();
  EXPECT_EQ(report.corrupt.size(), 2u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_TRUE(fs.scrub(false).empty());
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FaultedStoreTest, TornWriteDetectedLikeBitRot) {
  injector.set_torn_write_rate(1.0);
  size_t allowed = 1;
  injector.set_write_gate([&](size_t, size_t) { return allowed && allowed--; });
  fs.set_fault_injector(&injector);
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  EXPECT_EQ(injector.stats().torn_writes, 1u);
  EXPECT_EQ(fs.scrub(/*quarantine=*/false).size(), 1u);
  const auto report = fs.scrub_and_repair();
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FaultedStoreTest, RepairRetriesTransientReadFaults) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);
  fs.fail_server(2);
  fs.revive_server(2);
  ASSERT_EQ(fs.lost_blocks(id), std::vector<size_t>{2});

  // Three forced failures burn three of repair's six gather attempts; the
  // fourth succeeds.
  injector.fail_next_reads(3);
  const auto helpers = fs.repair(id, 2);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_EQ(fs.read_stats().transient_faults, 3u);
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FaultedStoreTest, PersistentReadFaultsSurfaceAsTransientError) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);
  fs.fail_server(2);
  fs.revive_server(2);
  injector.fail_next_reads(1000);
  // TransientError ≠ nullopt: the data is structurally intact, the reads
  // just kept failing. Draining the forced failures lets it complete.
  EXPECT_THROW(fs.repair(id, 2), TransientError);
  while (injector.read_fails()) {
  }
  ASSERT_TRUE(fs.repair(id, 2).has_value());
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FaultedStoreTest, CrashMidRepairIsIdempotent) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);

  // Corrupt a block and drive its repair through a verified read; the
  // armed crash fires after the rebuild but before the install.
  fs.corrupt_block(id, 3, 17);
  injector.arm_crash("store.repair");
  EXPECT_THROW(fs.read_range(id, 0, fs.file_bytes(id)), CrashError);

  // The crash left the block simply lost — quarantined, nothing half
  // installed — so re-running the repair completes it.
  EXPECT_EQ(fs.lost_blocks(id), std::vector<size_t>{3});
  ASSERT_TRUE(fs.repair(id, 3).has_value());
  EXPECT_TRUE(fs.lost_blocks(id).empty());
  const auto back = fs.read_range(id, 0, fs.file_bytes(id));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, file);
  EXPECT_TRUE(fs.scrub(false).empty());
}

TEST_F(FaultedStoreTest, RecoveryManagerCountsTransientFailures) {
  const Buffer file = make_file();
  fs.write(file);
  fs.set_fault_injector(&injector);
  fs.fail_server(1);
  fs.revive_server(1);

  // Enough forced failures to exhaust the store's 6 gather attempts AND
  // the manager's 3 storm-level retries: the block is left lost (not
  // unrecoverable) and counted as a transient failure.
  injector.fail_next_reads(1000);
  store::RecoveryManager manager(simulation, fs);
  auto report = manager.recover_all();
  EXPECT_EQ(report.transient_failures, 1u);
  EXPECT_EQ(report.blocks_repaired, 0u);
  EXPECT_EQ(report.blocks_unrecoverable, 0u);
  EXPECT_EQ(fs.lost_blocks(0), std::vector<size_t>{1});

  // Once the fault storm passes, a later pass picks the block up.
  while (injector.read_fails()) {
  }
  report = manager.recover_all();
  EXPECT_EQ(report.blocks_repaired, 1u);
  EXPECT_EQ(*fs.read(0), file);
}

TEST_F(FaultedStoreTest, LatencySpikesStretchRecoveryMakespan) {
  const Buffer file = make_file();
  fs.write(file);
  fs.fail_server(0);
  fs.revive_server(0);
  store::RecoveryManager clean_manager(simulation, fs);
  const auto clean = clean_manager.recover_all();
  ASSERT_EQ(clean.blocks_repaired, 1u);
  EXPECT_EQ(clean.latency_spikes, 0u);

  // Same repair with every helper read stalling: the spike count matches
  // the helper reads and the makespan grows by at least one stall (the
  // repair waits on its slowest helper).
  fs.set_fault_injector(&injector);
  injector.set_read_latency(1.0, 0.25);
  fs.fail_server(0);
  fs.revive_server(0);
  store::RecoveryManager spiky_manager(simulation, fs);
  const auto spiky = spiky_manager.recover_all();
  ASSERT_EQ(spiky.blocks_repaired, 1u);
  EXPECT_GT(spiky.latency_spikes, 0u);
  EXPECT_GE(spiky.makespan, clean.makespan + 0.25);
  EXPECT_EQ(*fs.read(0), file);
}

// ---------- Hedged async fetches --------------------------------------------

// Pins the global pool's hedge deadline for one test and restores it after.
class ScopedHedgeDeadline {
 public:
  explicit ScopedHedgeDeadline(double seconds)
      : saved_(io::AsyncIo::global().hedge_policy()) {
    io::HedgePolicy fixed;
    fixed.fixed_deadline_s = seconds;
    io::AsyncIo::global().set_hedge_policy(fixed);
  }
  ~ScopedHedgeDeadline() { io::AsyncIo::global().set_hedge_policy(saved_); }

 private:
  io::HedgePolicy saved_;
};

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST_F(FaultedStoreTest, HedgedRepairAbsorbsAStalledHelper) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);
  fs.fail_server(2);
  fs.revive_server(2);

  // The first helper read parks for 10 s; a 20 ms hedge deadline re-reads
  // it on a second path and the repair completes without waiting the stall
  // out. Way-too-generous wall bound: CI containers wobble, 10 s does not.
  ScopedHedgeDeadline deadline(0.02);
  const io::IoStats before = io::AsyncIo::global().stats();
  injector.stall_next_reads(1, 10.0);
  std::optional<std::vector<size_t>> helpers;
  const double took = wall_seconds([&] { helpers = fs.repair(id, 2); });

  ASSERT_TRUE(helpers.has_value());
  EXPECT_LT(took, 5.0);
  const io::IoStats after = io::AsyncIo::global().stats();
  EXPECT_GE(after.hedges_issued - before.hedges_issued, 1u);
  EXPECT_GE(after.hedges_won - before.hedges_won, 1u);
  EXPECT_EQ(injector.stats().latency_spikes, 1u);
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FaultedStoreTest, HedgedReadRangeAbsorbsAStalledProbe) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);

  // One fetch stalls 10 s. It is hedged stall-free at the deadline — the
  // read's tail is the 20 ms deadline, not the stall — and its segments
  // are still verified (zero crc_failures here; the data is fine, only
  // slow).
  ScopedHedgeDeadline deadline(0.02);
  injector.stall_next_reads(1, 10.0);
  std::optional<Buffer> out;
  const double took =
      wall_seconds([&] { out = fs.read_range(id, 0, fs.file_bytes(id)); });

  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, file);
  EXPECT_LT(took, 5.0);
  EXPECT_EQ(fs.read_stats().crc_failures, 0u);
  EXPECT_EQ(fs.read_stats().degraded_reads, 0u);
}

// Regression: with EVERY fetch stalled there are more in-flight
// fetches than I/O threads, so the hedges issued at the deadline queue
// behind stalled primaries and get cancelled while still queued when the
// primaries land. Those never-ran hedges must still count as completed —
// read_range's final exhaustive await used to deadlock here.
TEST_F(FaultedStoreTest, ReadRangeCompletesWhenStallsSaturateTheIoPool) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);

  ScopedHedgeDeadline deadline(0.02);
  injector.stall_next_reads(code.num_blocks(), 0.25);
  std::optional<Buffer> out;
  const double took =
      wall_seconds([&] { out = fs.read_range(id, 0, fs.file_bytes(id)); });

  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, file);
  EXPECT_LT(took, 10.0);  // two stall generations at most, never a hang
  EXPECT_EQ(fs.read_stats().crc_failures, 0u);
}

TEST_F(FaultedStoreTest, HedgingDrawsNothingFromTheSchedule) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);
  ScopedHedgeDeadline deadline(0.01);

  // Two identical stalled repairs must consume identical injector decision
  // counts: hedges and spare drafts are schedule-neutral, so the rng
  // stream stays where a serial gather would have left it.
  const auto stalled_repair = [&] {
    fs.fail_server(2);
    fs.revive_server(2);
    injector.stall_next_reads(1, 0.05);
    const uint64_t before = injector.stats().decisions;
    EXPECT_TRUE(fs.repair(id, 2).has_value());
    EXPECT_EQ(*fs.read(id), file);
    return injector.stats().decisions - before;
  };
  const uint64_t first = stalled_repair();
  const uint64_t second = stalled_repair();
  EXPECT_EQ(first, second);
  EXPECT_EQ(injector.stats().latency_spikes, 2u);
}

TEST_F(FaultedStoreTest, AsyncFetchCrashPointPropagates) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.set_fault_injector(&injector);

  // The crash fires inside an async fetch on an I/O thread; the
  // exception must propagate to the caller, before any quarantine.
  injector.arm_crash("store.fetch");
  EXPECT_THROW(fs.read_range(id, 0, fs.file_bytes(id)), CrashError);
  EXPECT_EQ(injector.stats().crashes, 1u);
  EXPECT_TRUE(fs.lost_blocks(id).empty());

  // Nothing half-done: the next read is clean and bit-identical.
  const auto back = fs.read_range(id, 0, fs.file_bytes(id));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, file);
}

}  // namespace
}  // namespace galloper::fault
