#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <set>
#include <thread>

#include "client/cache.h"
#include "codes/reed_solomon.h"
#include "core/galloper.h"
#include "core/input_format.h"
#include "fault/fault.h"
#include "io/async.h"
#include "store/file_store.h"
#include "store/recovery.h"
#include "store/segments.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::store {
namespace {

using galloper::Buffer;
using galloper::CheckError;
using galloper::Rng;
using galloper::random_buffer;

class FileStoreTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  sim::Cluster cluster{simulation, 9, sim::ServerSpec{}};
  core::GalloperCode code{4, 2, 1};
  FileStore fs{cluster, code};
  Rng rng{123};

  Buffer make_file(size_t chunk = 128) {
    return random_buffer(code.engine().num_chunks() * chunk, rng);
  }
};

// Every stored block of `id` equals the encode of `mirror`.
void expect_blocks_encode(FileStore& fs, FileId id, const Buffer& mirror) {
  const std::vector<Buffer> want = fs.code().encode(mirror);
  for (size_t b = 0; b < want.size(); ++b) {
    const auto got = fs.block(id, b);
    ASSERT_TRUE(got.has_value()) << "block " << b;
    EXPECT_TRUE(std::equal(got->begin(), got->end(), want[b].begin(),
                           want[b].end()))
        << "block " << b << " differs from encode(mirror)";
  }
}

TEST_F(FileStoreTest, WriteThenReadRoundTrip) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  const auto back = fs.read(id);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, file);
}

TEST_F(FileStoreTest, ReadOriginalOnlyFastPath) {
  // A healthy file's split reads copy their own blocks verbatim: they
  // reassemble the file, verify only their own block's segment (each block
  // here is one short segment), and never replan.
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  const core::InputFormat fmt(code, fs.block_bytes(id));
  const FileStore::ReadStats before = fs.read_stats();
  Buffer back(file.size());
  for (const auto& s : fmt.splits()) {
    const auto got =
        fs.read_original_split(id, s.block, s.block_offset, s.length);
    ASSERT_TRUE(got.has_value());
    std::copy(got->begin(), got->end(), back.begin() + s.file_offset);
  }
  EXPECT_EQ(back, file);
  const FileStore::ReadStats after = fs.read_stats();
  EXPECT_EQ(after.verified_bytes - before.verified_bytes,
            fmt.splits().size() * fs.block_bytes(id));
  EXPECT_EQ(after.replanned_reads, before.replanned_reads);
}

TEST_F(FileStoreTest, SplitReadRejectsRangesOutsideOneOriginalRun) {
  // Galloper rotates each block's original data to its top; the rest of
  // the block is parity, which a split read must refuse, not return.
  const size_t chunk = 128;
  const FileId id = fs.write(make_file(chunk));
  const core::InputFormat fmt(code, fs.block_bytes(id));
  for (size_t b = 0; b < code.num_blocks(); ++b) {
    const size_t orig = fmt.original_bytes_in_block(b);
    ASSERT_GT(orig, 0u);
    ASSERT_LT(orig, fs.block_bytes(id)) << "block " << b << " holds parity";
    EXPECT_THROW(fs.read_original_split(id, b, orig, chunk), CheckError)
        << "a range starting in block " << b << "'s parity";
    EXPECT_THROW(fs.read_original_split(id, b, orig - chunk / 2, chunk),
                 CheckError)
        << "a range crossing the end of block " << b << "'s run";
    EXPECT_TRUE(fs.read_original_split(id, b, orig - chunk, chunk))
        << "the run's last chunk is original data";
  }
  EXPECT_THROW(fs.read_original_split(id, 0, 0, 0), CheckError);
  EXPECT_THROW(fs.read_original_split(id, code.num_blocks(), 0, chunk),
               CheckError);
}

TEST_F(FileStoreTest, MultipleFilesIndependent) {
  const Buffer f1 = make_file(64), f2 = make_file(256);
  const FileId id1 = fs.write(f1);
  const FileId id2 = fs.write(f2);
  EXPECT_EQ(*fs.read(id1), f1);
  EXPECT_EQ(*fs.read(id2), f2);
  EXPECT_NE(fs.block_bytes(id1), fs.block_bytes(id2));
}

TEST_F(FileStoreTest, FailureHidesBlocksButReadStillWorks) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.fail_server(0);
  fs.fail_server(5);
  EXPECT_FALSE(fs.block_available(id, 0));
  EXPECT_FALSE(fs.block_available(id, 5));
  EXPECT_TRUE(fs.all_recoverable());
  const auto back = fs.read(id);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, file);
}

TEST_F(FileStoreTest, RepairUsesLocalHelpersWhenAlive) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.fail_server(2);
  fs.revive_server(2);
  const auto helpers = fs.repair(id, 2);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_EQ(*helpers, code.repair_helpers(2)) << "k/l group peers";
  EXPECT_EQ(Buffer(fs.block(id, 2)->begin(), fs.block(id, 2)->end()),
            Buffer(code.encode(file)[2]));
}

TEST_F(FileStoreTest, RepairFallsBackWhenLocalHelperDead) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  // Kill block 2 and one of its group peers (block 3): local repair of 2
  // is impossible, the generic path must kick in.
  fs.fail_server(2);
  fs.fail_server(3);
  fs.revive_server(2);
  const auto helpers = fs.repair(id, 2);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_GT(helpers->size(), code.repair_helpers(2).size());
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FileStoreTest, UnrecoverableAfterTooManyFailures) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.fail_server(0);
  fs.fail_server(1);
  fs.fail_server(6);  // group 0 wiped + global parity: gone for good
  EXPECT_FALSE(fs.all_recoverable());
  EXPECT_FALSE(fs.read(id).has_value());
  fs.revive_server(0);
  EXPECT_FALSE(fs.repair(id, 0).has_value());
}

TEST_F(FileStoreTest, RepairOntoDeadServerReturnsNullopt) {
  // Not a CHECK: the cluster repair queue races chaos kills, so a target
  // that died between scheduling and execution must be a recoverable
  // "retry after revive", not a contract violation.
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.fail_server(1);
  EXPECT_FALSE(fs.repair(id, 1).has_value());
  fs.revive_server(1);
  EXPECT_TRUE(fs.repair(id, 1).has_value());
  EXPECT_EQ(*fs.read(id), file);
}

// The revive-vs-in-flight-repair race, pinned deterministically: a repair
// rebuilds block 2, and the write-fault gate — which fires between the
// rebuild and the install, exactly the race window — kills the target
// server. Pre-fix (raw alive flag, no install re-check) the install landed
// on the DEAD server, so the subsequent revive_server "brought back" a
// block that revive's contract declares lost: silent resurrection. The
// liveness-epoch re-check makes the install abort instead.
TEST_F(FileStoreTest, KillDuringRepairInstallCannotResurrectAcrossRevive) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.corrupt_block(id, 2, 0);
  fs.scrub(/*quarantine=*/true);
  ASSERT_FALSE(fs.block_available(id, 2));

  fault::FaultInjector inj(7);
  inj.set_bit_flip_rate(1.0);  // every store-back consults the gate
  bool killed = false;
  inj.set_write_gate([&](size_t, size_t b) {
    if (b == 2 && !killed) {
      killed = true;
      fs.fail_server(2);  // the kill lands mid-repair, pre-install
    }
    return false;  // veto the flip itself: only the timing matters
  });
  fs.set_fault_injector(&inj);
  EXPECT_FALSE(fs.repair(id, 2).has_value())
      << "target died mid-repair: the stale install must be aborted";
  fs.set_fault_injector(nullptr);
  ASSERT_TRUE(killed);

  fs.revive_server(2);
  EXPECT_FALSE(fs.block_available(id, 2))
      << "revive brings a server back EMPTY — a repair that started before "
         "the kill must not have resurrected the block onto it";
  EXPECT_TRUE(fs.repair(id, 2).has_value());
  EXPECT_EQ(*fs.read(id), file);
}

// Same window, but a full kill/REVIVE cycle: to a raw alive flag the
// target looks untouched at install time, which is precisely why the flag
// was insufficient. The epoch (bumped twice by the cycle) forces the
// repair to discard the pre-cycle rebuild and run a fresh attempt against
// the new incarnation — observable as a second store-back (second vetoed
// write draw).
TEST_F(FileStoreTest, KillReviveCycleDuringRepairForcesFreshAttempt) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.corrupt_block(id, 2, 0);
  fs.scrub(/*quarantine=*/true);

  fault::FaultInjector inj(7);
  inj.set_bit_flip_rate(1.0);
  bool cycled = false;
  inj.set_write_gate([&](size_t, size_t b) {
    if (b == 2 && !cycled) {
      cycled = true;
      fs.fail_server(2);
      fs.revive_server(2);  // alive again — but a NEW incarnation
    }
    return false;
  });
  fs.set_fault_injector(&inj);
  const auto helpers = fs.repair(id, 2);
  fs.set_fault_injector(nullptr);
  ASSERT_TRUE(cycled);
  ASSERT_TRUE(helpers.has_value()) << "target is alive: the repair retries";
  EXPECT_EQ(inj.stats().write_vetoes, 2u)
      << "the post-cycle attempt must re-gather and re-install — installing "
         "the pre-cycle rebuild would resurrect bytes the revive declared "
         "lost";
  EXPECT_EQ(*fs.read(id), file);
}

// Concurrency hammer for the same race (the TSan matrix runs this with a
// 2-thread pool): one thread cycles kill/revive on the target while
// another keeps repairing the block. No interleaving may corrupt state,
// and once the chaos stops the block must heal bit-exact.
TEST_F(FileStoreTest, RepairRacesKillReviveHammer) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.corrupt_block(id, 2, 0);
  fs.scrub(/*quarantine=*/true);

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    for (size_t i = 0; i < 200 && !stop.load(); ++i) {
      fs.fail_server(2);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      fs.revive_server(2);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    stop.store(true);
  });
  std::thread repairer([&] {
    while (!stop.load()) {
      try {
        fs.repair(id, 2);
      } catch (const fault::TransientError&) {
        // Incarnation churn exhausted one call's retries; call again.
      }
    }
  });
  chaos.join();
  repairer.join();

  // Chaos is over: whatever state the races left, one clean repair pass
  // must converge to the exact original bytes.
  fs.revive_server(2);
  if (!fs.block_available(id, 2)) {
    ASSERT_TRUE(fs.repair(id, 2).has_value());
  }
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FileStoreTest, RepairOfHealthyBlockIsNoop) {
  const FileId id = fs.write(make_file());
  const auto helpers = fs.repair(id, 0);
  ASSERT_TRUE(helpers.has_value());
  EXPECT_TRUE(helpers->empty());
}

// ---------- in-place updates ----------

TEST_F(FileStoreTest, UpdateRangeChangesFileAndKeepsConsistency) {
  const size_t chunk = 128;
  Buffer file = make_file(chunk);
  const FileId id = fs.write(file);
  // Overwrite chunks 3..5.
  Rng r2(9);
  const Buffer fresh = random_buffer(3 * chunk, r2);
  const auto touched = fs.update_range(id, 3 * chunk, fresh);
  EXPECT_FALSE(touched.empty());
  std::copy(fresh.begin(), fresh.end(),
            file.begin() + static_cast<ptrdiff_t>(3 * chunk));
  EXPECT_EQ(*fs.read(id), file) << "parity patched consistently";
  EXPECT_TRUE(fs.scrub().empty()) << "checksums refreshed";
}

TEST_F(FileStoreTest, UpdateThenDegradedReadSeesNewData) {
  const size_t chunk = 64;
  Buffer file = make_file(chunk);
  const FileId id = fs.write(file);
  Rng r2(10);
  const Buffer fresh = random_buffer(chunk, r2);
  fs.update_range(id, 0, fresh);
  std::copy(fresh.begin(), fresh.end(), file.begin());
  fs.fail_server(0);  // chunk 0 lives in block 0
  const auto degraded = fs.read(id);
  ASSERT_TRUE(degraded.has_value());
  EXPECT_EQ(*degraded, file);
}

// The kill-between-phases race, pinned deterministically: the write-fault
// gate — which fires between an update's verify and its install — kills
// the server of a block the update writes. The install must see the moved
// epoch and generation and re-run, meeting the lost block as a degraded
// stripe; it must never land the block on the dead server, where the
// revive would bring back bytes it declares lost.
TEST_F(FileStoreTest, KillBetweenUpdatePhasesCannotResurrectAcrossRevive) {
  const size_t chunk = 128;
  const Buffer file = make_file(chunk);
  const FileId id = fs.write(file);
  const size_t victim = code.engine().update_stripes(0).back().block;

  fault::FaultInjector inj(7);
  inj.set_bit_flip_rate(1.0);  // every written block consults the gate
  bool killed = false;
  inj.set_write_gate([&](size_t, size_t b) {
    if (b == victim && !killed) {
      killed = true;
      fs.fail_server(fs.server_of(b));  // lands between verify and install
    }
    return false;  // veto the flip itself: only the timing matters
  });
  fs.set_fault_injector(&inj);
  EXPECT_THROW(fs.update_range(id, 0, Buffer(chunk, 0x5A)), CheckError);
  fs.set_fault_injector(nullptr);
  ASSERT_TRUE(killed);

  fs.revive_server(fs.server_of(victim));
  const std::vector<size_t> lost = fs.lost_blocks(id);
  EXPECT_NE(std::find(lost.begin(), lost.end(), victim), lost.end())
      << "the update must not have resurrected block " << victim
      << " onto its dead server";
  // Nothing was installed: once repaired, the file is the original.
  ASSERT_TRUE(fs.repair(id, victim).has_value());
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// update_range's retry bound, pinned deterministically: the write-fault
// gate moves the written slot between two alive spare servers on every
// install attempt, so each install sees a moved placement and re-runs from
// the verify. After 8 stale installs the update gives up with
// fault::TransientError, having installed nothing.
TEST_F(FileStoreTest, UpdateGivesUpAfterEightStaleInstalls) {
  const size_t chunk = 128;
  const Buffer file = make_file(chunk);
  const FileId id = fs.write(file);
  const size_t slot = code.engine().update_stripes(0).front().block;
  ASSERT_EQ(cluster.size(), code.num_blocks() + 2);
  const size_t spares[] = {code.num_blocks(), code.num_blocks() + 1};

  fault::FaultInjector inj(7);
  inj.set_bit_flip_rate(1.0);  // every written block consults the gate
  size_t attempts = 0;
  inj.set_write_gate([&](size_t, size_t b) {
    if (b == slot) fs.reassign_block(b, spares[attempts++ % 2]);
    return false;  // veto the flip itself: only the timing matters
  });
  fs.set_fault_injector(&inj);
  EXPECT_THROW(fs.update_range(id, 0, Buffer(chunk, 0x5A)),
               fault::TransientError);
  fs.set_fault_injector(nullptr);
  EXPECT_EQ(attempts, 8u);
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

TEST_F(FileStoreTest, UpdateRejectsUnalignedOrDegraded) {
  const size_t chunk = 128;
  const FileId id = fs.write(make_file(chunk));
  EXPECT_THROW(fs.update_range(id, 1, Buffer(chunk)), CheckError);
  EXPECT_THROW(fs.update_range(id, 0, Buffer(chunk - 1)), CheckError);
  fs.fail_server(3);
  EXPECT_THROW(fs.update_range(id, 0, Buffer(chunk)), CheckError);
}

// ---------- scrubbing ----------

TEST_F(FileStoreTest, ScrubFindsNothingWhenClean) {
  fs.write(make_file());
  EXPECT_TRUE(fs.scrub().empty());
}

TEST_F(FileStoreTest, ScrubDetectsAndQuarantinesCorruption) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.corrupt_block(id, 3, 17);
  const auto corrupt = fs.scrub();
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(corrupt[0].file, id);
  EXPECT_EQ(corrupt[0].block, 3u);
  EXPECT_FALSE(fs.block_available(id, 3)) << "quarantined";
  // Repair restores the block bit-exactly and a re-scrub is clean.
  ASSERT_TRUE(fs.repair(id, 3).has_value());
  EXPECT_TRUE(fs.scrub().empty());
  EXPECT_EQ(*fs.read(id), file);
}

TEST_F(FileStoreTest, ScrubWithoutQuarantineLeavesBlock) {
  const FileId id = fs.write(make_file());
  fs.corrupt_block(id, 0, 0);
  const auto corrupt = fs.scrub(/*quarantine=*/false);
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_TRUE(fs.block_available(id, 0));
}

TEST_F(FileStoreTest, CorruptionInParityAlsoCaught) {
  const FileId id = fs.write(make_file());
  // Byte beyond the data region of the global parity block (weight 4/7 →
  // bottom 3/7 of block 6 is parity).
  fs.corrupt_block(id, 6, fs.block_bytes(id) - 1);
  const auto corrupt = fs.scrub();
  ASSERT_EQ(corrupt.size(), 1u);
  EXPECT_EQ(corrupt[0].block, 6u);
}

TEST_F(FileStoreTest, CorruptingLostBlockThrows) {
  const FileId id = fs.write(make_file());
  fs.fail_server(1);
  EXPECT_THROW(fs.corrupt_block(id, 1, 0), CheckError);
}

// ---------- RecoveryManager ----------

TEST(Recovery, RebuildsEverythingBitExact) {
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, 8, sim::ServerSpec{});
  core::GalloperCode code(4, 2, 1);
  FileStore fs(cluster, code);
  Rng rng(7);
  std::vector<Buffer> files;
  std::vector<FileId> ids;
  for (int i = 0; i < 3; ++i) {
    files.push_back(random_buffer(code.engine().num_chunks() * 64, rng));
    ids.push_back(fs.write(files.back()));
  }
  fs.fail_server(1);
  fs.fail_server(4);
  fs.revive_server(1);
  fs.revive_server(4);

  RecoveryManager mgr(simulation, fs);
  const auto report = mgr.recover_all();
  EXPECT_EQ(report.blocks_repaired, 6u);  // 2 blocks × 3 files
  EXPECT_EQ(report.blocks_unrecoverable, 0u);
  EXPECT_GT(report.makespan, 0.0);
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t b = 0; b < code.num_blocks(); ++b)
      EXPECT_TRUE(fs.block_available(ids[i], b));
    EXPECT_EQ(*fs.read(ids[i]), files[i]);
  }
}

TEST(Recovery, LrcReadsFewerBytesThanRsAndFinishesFaster) {
  Rng rng(8);
  // One file size that both codes accept (28 = lcm of 4 and 28 chunks), so
  // blocks are equally large and byte counts are comparable.
  auto run = [&](const codes::ErasureCode& code) {
    sim::Simulation simulation;
    sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
    FileStore fs(cluster, code);
    Buffer file(28 * 512);
    rng.fill_bytes(file);
    for (int i = 0; i < 4; ++i) fs.write(file);
    fs.fail_server(0);
    fs.revive_server(0);
    RecoveryManager mgr(simulation, fs);
    return mgr.recover_all();
  };
  codes::ReedSolomonCode rs(4, 2);
  core::GalloperCode gal(4, 2, 1);
  const auto r_rs = run(rs);
  const auto r_gal = run(gal);
  EXPECT_EQ(r_rs.blocks_repaired, 4u);
  EXPECT_EQ(r_gal.blocks_repaired, 4u);
  EXPECT_LT(r_gal.disk_bytes_read, r_rs.disk_bytes_read);
  EXPECT_LT(r_gal.makespan, r_rs.makespan);
}

TEST(Recovery, ThrottlingStretchesMakespanOnly) {
  auto run = [](RecoveryConfig config) {
    sim::Simulation simulation;
    sim::Cluster cluster(simulation, 7, sim::ServerSpec{});
    core::GalloperCode code(4, 2, 1);
    FileStore fs(cluster, code);
    Rng rng(21);
    for (int i = 0; i < 4; ++i)
      fs.write(random_buffer(code.engine().num_chunks() * 256, rng));
    fs.fail_server(2);
    fs.revive_server(2);
    RecoveryManager mgr(simulation, fs, config);
    return mgr.recover_all();
  };
  const auto full = run({1.0, SIZE_MAX});
  const auto quarter = run({0.25, SIZE_MAX});
  EXPECT_EQ(full.blocks_repaired, quarter.blocks_repaired);
  EXPECT_EQ(full.disk_bytes_read, quarter.disk_bytes_read)
      << "throttling changes time, not bytes";
  EXPECT_GT(quarter.makespan, full.makespan * 2.0);
}

TEST(Recovery, WaveLimitSerializesRepairs) {
  auto run = [](size_t max_parallel) {
    sim::Simulation simulation;
    sim::Cluster cluster(simulation, 7, sim::ServerSpec{});
    core::GalloperCode code(4, 2, 1);
    FileStore fs(cluster, code);
    Rng rng(22);
    for (int i = 0; i < 6; ++i)
      fs.write(random_buffer(code.engine().num_chunks() * 512, rng));
    fs.fail_server(1);
    fs.revive_server(1);
    RecoveryManager mgr(simulation, fs, {1.0, max_parallel});
    return mgr.recover_all();
  };
  const auto serial = run(1);
  const auto parallel = run(SIZE_MAX);
  EXPECT_EQ(serial.blocks_repaired, parallel.blocks_repaired);
  EXPECT_GE(serial.makespan, parallel.makespan);
}

TEST(Recovery, RejectsBadConfig) {
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, 7, sim::ServerSpec{});
  core::GalloperCode code(4, 2, 1);
  FileStore fs(cluster, code);
  EXPECT_THROW(RecoveryManager(simulation, fs, {0.0, 1}), CheckError);
  EXPECT_THROW(RecoveryManager(simulation, fs, {1.5, 1}), CheckError);
  EXPECT_THROW(RecoveryManager(simulation, fs, {1.0, 0}), CheckError);
}

// ---- Self-healing verified reads ------------------------------------------

TEST_F(FileStoreTest, ReadRangeReturnsCorrectBytesDespiteByteFlip) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.corrupt_block(id, 1, 5);

  // The corrupted read: CRC catches the flip, the decode goes degraded,
  // the returned bytes are still bit-identical, and the block self-heals.
  const auto got = fs.read_range(id, 0, fs.file_bytes(id));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, file);
  EXPECT_EQ(fs.read_stats().verified_reads, 1u);
  EXPECT_EQ(fs.read_stats().crc_failures, 1u);
  EXPECT_EQ(fs.read_stats().degraded_reads, 1u);
  EXPECT_EQ(fs.read_stats().auto_repairs, 1u);

  // The next read is clean: same bytes, no new CRC failures.
  const auto again = fs.read_range(id, 0, fs.file_bytes(id));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, file);
  EXPECT_EQ(fs.read_stats().verified_reads, 2u);
  EXPECT_EQ(fs.read_stats().crc_failures, 1u);
  EXPECT_EQ(fs.read_stats().degraded_reads, 1u);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

TEST_F(FileStoreTest, ReadRangeSubrangesSurviveCorruption) {
  const size_t chunk = 96;
  const Buffer file = make_file(chunk);
  const FileId id = fs.write(file);
  Rng offsets(7);
  for (size_t i = 0; i < 8; ++i) {
    const size_t b = i % code.num_blocks();
    fs.corrupt_block(id, b, offsets.next_below(fs.block_bytes(id)));
    // Reads verify only the segments they decode from, so each range
    // starts inside a data chunk block b stores (read verbatim from b).
    std::vector<size_t> own;
    for (size_t c : code.engine().chunks_of_block(b))
      if (c != SIZE_MAX) own.push_back(c);
    const size_t off =
        own[offsets.next_below(own.size())] * chunk + offsets.next_below(chunk);
    const size_t len = 1 + offsets.next_below(file.size() - off);
    const auto got = fs.read_range(id, off, len);
    ASSERT_TRUE(got.has_value()) << "iteration " << i;
    EXPECT_TRUE(std::equal(got->begin(), got->end(),
                           file.begin() + static_cast<ptrdiff_t>(off)))
        << "iteration " << i;
  }
}

TEST_F(FileStoreTest, ScrubAndRepairHealsMultipleCorruptions) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  fs.corrupt_block(id, 0, 1);
  fs.corrupt_block(id, 5, 2);
  const auto report = fs.scrub_and_repair();
  EXPECT_EQ(report.corrupt.size(), 2u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

TEST_F(FileStoreTest, UpdateRefusesSilentlyCorruptStripe) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);
  const size_t chunk = fs.block_bytes(id) / code.engine().stripes_per_block();
  // Rot a byte of a parity stripe the update of chunk 0 writes: inside the
  // update's window.
  const codes::StripeRef rotten = code.engine().update_stripes(0).back();
  fs.corrupt_block(id, rotten.block, rotten.pos * chunk + 9);

  // Patching a stripe whose block is silently rotten would launder the
  // corruption into fresh parity + a fresh checksum. The update must
  // refuse AND quarantine the bad block instead of trusting it.
  const Buffer patch(chunk, 0x5A);
  EXPECT_THROW(fs.update_range(id, 0, patch), CheckError);
  EXPECT_EQ(fs.lost_blocks(id), std::vector<size_t>{rotten.block});

  // Repair, then the same update goes through and reads verify.
  ASSERT_TRUE(fs.repair(id, rotten.block).has_value());
  Buffer want = file;
  std::copy(patch.begin(), patch.end(), want.begin());
  fs.update_range(id, 0, patch);
  const auto got = fs.read_range(id, 0, fs.file_bytes(id));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, want);
}

TEST_F(FileStoreTest, RepairNeverLaundersACorruptHelper) {
  const Buffer file = make_file();
  const FileId id = fs.write(file);

  // Lose block 0, then rot one of its local helpers. The repair must CRC
  // its helpers, quarantine the rotten one, reselect, and still rebuild
  // block 0 bit-exact — never feed corrupt bytes into the rebuild.
  fs.fail_server(0);
  fs.revive_server(0);
  const auto helpers = code.repair_helpers(0);
  ASSERT_FALSE(helpers.empty());
  fs.corrupt_block(id, helpers[0], 3);

  ASSERT_TRUE(fs.repair(id, 0).has_value());
  EXPECT_GE(fs.read_stats().crc_failures, 1u);
  // The rotten helper is quarantined, not trusted; heal it and verify
  // everything round-trips.
  EXPECT_EQ(fs.lost_blocks(id), std::vector<size_t>{helpers[0]});
  ASSERT_TRUE(fs.repair(id, helpers[0]).has_value());
  EXPECT_EQ(*fs.read(id), file);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

TEST(Recovery, ReportsUnrecoverableBlocks) {
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, 7, sim::ServerSpec{});
  core::GalloperCode code(4, 2, 1);
  FileStore fs(cluster, code);
  Rng rng(9);
  fs.write(random_buffer(code.engine().num_chunks() * 16, rng));
  for (size_t s : {0u, 1u, 6u}) fs.fail_server(s);
  for (size_t s : {0u, 1u, 6u}) fs.revive_server(s);
  RecoveryManager mgr(simulation, fs);
  const auto report = mgr.recover_all();
  EXPECT_EQ(report.blocks_repaired, 0u);
  EXPECT_EQ(report.blocks_unrecoverable, 3u);
}

// ---- Range-proportional verification --------------------------------------

// A 4 KiB read of a (4,2,2) file with 4 MiB blocks verifies only the
// segments its plan reads: at most 2 per source piece (a piece may straddle
// one segment boundary) — 128 KiB here, where a whole-stripe probe CRCs
// 32 MiB.
TEST(SegmentVerifyTest, PointReadVerifiesAtMostTwoSegmentsPerSourcePiece) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  fs.set_block_cache(nullptr);
  const size_t chunk = (size_t{4} << 20) / code.engine().stripes_per_block();
  Rng rng(41);
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(file);
  ASSERT_EQ(fs.block_bytes(id), size_t{4} << 20);

  // Straddles a segment boundary, so the source piece spans two segments.
  // Hedging is off for the read: a fetch slower than the hedge deadline (a
  // sanitizer build gets there) is re-fetched, and the hedge verifies the
  // same segments a second time.
  const io::HedgePolicy saved = io::AsyncIo::global().hedge_policy();
  io::HedgePolicy unhedged;
  unhedged.enabled = false;
  io::AsyncIo::global().set_hedge_policy(unhedged);
  const size_t offset = kSegmentBytes - 2048, length = 4096;
  const size_t before = fs.read_stats().verified_bytes;
  const auto got = fs.read_range(id, offset, length);
  io::AsyncIo::global().set_hedge_policy(saved);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(std::equal(got->begin(), got->end(), file.begin() + offset));
  const size_t verified = fs.read_stats().verified_bytes - before;

  std::vector<size_t> all(code.num_blocks());
  for (size_t b = 0; b < all.size(); ++b) all[b] = b;
  const auto plan = code.engine().plan_decode_fast(all);
  size_t pieces = 0;
  for (size_t c = offset / chunk; c * chunk < offset + length; ++c)
    pieces += plan->row(c).copy_slot >= 0
                  ? 1
                  : plan->row_sources(plan->row(c)).size();
  EXPECT_GT(verified, 0u);
  EXPECT_LE(verified, 2 * kSegmentBytes * pieces);
  EXPECT_LE(verified, size_t{128} << 10);
}

// Repair verifies its helpers under the SHARED lock: readers of other files
// keep finishing while a repair that meets a corrupt helper runs (and
// quarantines it under a short exclusive hold). Injected latency on the
// repair's helper fetches keeps it in flight: it gathers on its own
// unhedged I/O pool, as cluster::RepairQueue's per-node pools do. The
// readers' fetches draw stalls from the same injector and are hedged at a
// short deadline on the global pool.
TEST(SegmentVerifyTest, OtherFilesReadersFinishDuringRepairWithBadHelper) {
  core::GalloperCode code(4, 2, 1);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks() + 2, sim::ServerSpec{});
  FileStore fs(cluster, code);
  fs.set_block_cache(nullptr);
  Rng rng(43);
  const size_t chunk = 96 << 10;  // multi-segment blocks
  const Buffer fa = random_buffer(code.engine().num_chunks() * chunk, rng);
  const Buffer fb = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId a = fs.write(fa);
  const FileId b = fs.write(fb);

  // File a loses block 0 (quarantined) and one of its helpers rots.
  fs.corrupt_block(a, 0, 0);
  ASSERT_EQ(fs.scrub(/*quarantine=*/true).size(), 1u);
  const auto helpers = code.repair_helpers(0);
  ASSERT_FALSE(helpers.empty());
  fs.corrupt_block(a, helpers[0], fs.block_bytes(a) - 1);
  fault::FaultInjector inj(7);
  inj.set_read_latency(1.0, 0.1);
  fs.set_fault_injector(&inj);
  io::AsyncIo repair_io(4);
  io::HedgePolicy unhedged;
  unhedged.enabled = false;
  repair_io.set_hedge_policy(unhedged);
  const io::HedgePolicy saved = io::AsyncIo::global().hedge_policy();
  io::HedgePolicy fast;
  fast.fixed_deadline_s = 0.001;
  io::AsyncIo::global().set_hedge_policy(fast);

  std::atomic<bool> repairing{false}, done{false};
  std::atomic<int> during{0}, mismatches{0}, started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng local(200 + t);
      started.fetch_add(1);
      while (!done.load()) {
        const size_t off = local.next_below(fb.size());
        const size_t len = 1 + local.next_below(std::min<size_t>(
                                   fb.size() - off, 8192));
        const bool in_flight = repairing.load();
        const auto got = fs.read_range(b, off, len);
        if (!got || !std::equal(got->begin(), got->end(), fb.begin() + off))
          mismatches.fetch_add(1);
        if (in_flight && repairing.load()) during.fetch_add(1);
      }
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  repairing.store(true);
  const auto repaired = fs.repair(a, 0, &repair_io);
  repairing.store(false);
  done.store(true);
  for (auto& th : readers) th.join();
  io::AsyncIo::global().set_hedge_policy(saved);

  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(during.load(), 0) << "no read of file b finished mid-repair";
  EXPECT_GE(fs.read_stats().crc_failures, 1u);
  EXPECT_EQ(fs.lost_blocks(a), std::vector<size_t>{helpers[0]});
  fs.set_fault_injector(nullptr);
  ASSERT_TRUE(fs.repair(a, helpers[0]).has_value());
  EXPECT_EQ(*fs.read(a), fa);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// ---- Range-proportional, race-safe updates -------------------------------

// Concurrent updates of different chunks of one file, released together
// every round. Each patches parity from the pre-image it read, so without
// serialization inside the store the last install per block wins and the
// stripe matches the encode of neither result — with checksums recomputed
// over those wrong bytes, so scrub reports nothing. The store serializes
// updates to a file itself: the blocks must end up exactly
// encode(mirror), and scrub-clean.
TEST(UpdateRaceTest, ConcurrentUpdatesOfOneFileMatchEncodeOfMirror) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  const size_t chunk = 64 << 10;
  Rng rng(57);
  Buffer mirror = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(mirror);

  constexpr size_t kThreads = 4, kRounds = 24;
  std::barrier sync(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng local(100 + t);
      for (size_t r = 0; r < kRounds; ++r) {
        const Buffer patch = random_buffer(chunk, local);
        sync.arrive_and_wait();
        fs.update_range(id, t * chunk, patch);
        // Thread t alone owns chunk t of the mirror.
        std::copy(patch.begin(), patch.end(),
                  mirror.begin() + static_cast<ptrdiff_t>(t * chunk));
      }
    });
  }
  for (auto& th : threads) th.join();
  expect_blocks_encode(fs, id, mirror);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// A one-chunk update of a (4,2,2) file with 1 MiB chunks verifies exactly
// the stripes it writes — at most 8 MiB, where verifying every block
// checks 32 MiB.
TEST(UpdateWindowTest, OneChunkUpdateVerifiesOnlyItsStripes) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  const size_t chunk = size_t{1} << 20;
  Rng rng(59);
  Buffer mirror = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(mirror);
  for (size_t c : {size_t{0}, size_t{7}, code.engine().num_chunks() - 1}) {
    const Buffer patch = random_buffer(chunk, rng);
    const size_t before = fs.read_stats().update_verified_bytes;
    fs.update_range(id, c * chunk, patch);
    std::copy(patch.begin(), patch.end(),
              mirror.begin() + static_cast<ptrdiff_t>(c * chunk));
    const size_t verified = fs.read_stats().update_verified_bytes - before;
    EXPECT_EQ(verified, code.engine().update_stripes(c).size() * chunk)
        << "chunk " << c;
    EXPECT_LE(verified, size_t{8} << 20) << "chunk " << c;
  }
  expect_blocks_encode(fs, id, mirror);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// With 40 KiB chunks, stripes straddle 64 KiB segment boundaries and a
// block ends in a short segment: single- and multi-chunk updates verify
// exactly the segments covering the stripes they write, each once, and
// the stored blocks stay bit-identical to encoding the mirror.
TEST(UpdateWindowTest, StraddlingStripesVerifyOnlyTheirCoveringSegments) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  const size_t chunk = 40 << 10;
  Rng rng(60);
  Buffer mirror = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(mirror);
  const size_t bbytes = fs.block_bytes(id);
  for (int u = 0; u < 12; ++u) {
    const size_t first = rng.next_below(code.engine().num_chunks());
    const size_t count =
        1 + rng.next_below(std::min<size_t>(3, code.engine().num_chunks() -
                                                   first));
    std::set<std::pair<size_t, size_t>> segs;  // (block, segment)
    for (size_t c = first; c < first + count; ++c)
      for (const codes::StripeRef& s : code.engine().update_stripes(c))
        for (size_t g = s.pos * chunk / kSegmentBytes;
             g <= ((s.pos + 1) * chunk - 1) / kSegmentBytes; ++g)
          segs.emplace(s.block, g);
    size_t want = 0;
    for (const auto& [b, g] : segs) want += segment_size(bbytes, g);

    const Buffer patch = random_buffer(count * chunk, rng);
    const size_t before = fs.read_stats().update_verified_bytes;
    fs.update_range(id, first * chunk, patch);
    std::copy(patch.begin(), patch.end(),
              mirror.begin() + static_cast<ptrdiff_t>(first * chunk));
    EXPECT_EQ(fs.read_stats().update_verified_bytes - before, want)
        << "update " << u;
    EXPECT_LT(want, code.num_blocks() * bbytes) << "update " << u;
  }
  expect_blocks_encode(fs, id, mirror);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// The deliberate semantics: corruption OUTSIDE an update's windows — in a
// block the update does not write, or in a segment of a written block
// that none of its stripes covers — is not the update's business, exactly
// as for reads. The update succeeds; scrub() then reports both blocks, and
// scrub_and_repair() heals the store to the mirror.
TEST(UpdateWindowTest, CorruptionOutsideTheWindowsIsLeftToScrub) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  const size_t chunk = kSegmentBytes;  // one segment per stripe
  Rng rng(61);
  Buffer mirror = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(mirror);

  const size_t c = 5;
  const size_t n = code.num_blocks(), per = code.engine().stripes_per_block();
  std::vector<std::vector<bool>> written(n, std::vector<bool>(per, false));
  for (const codes::StripeRef& s : code.engine().update_stripes(c))
    written[s.block][s.pos] = true;
  size_t untouched = n, partial = n, spare_pos = 0;
  for (size_t b = 0; b < n; ++b) {
    const auto hits = std::count(written[b].begin(), written[b].end(), true);
    if (hits == 0 && untouched == n) untouched = b;
    if (hits > 0 && static_cast<size_t>(hits) < per && partial == n) {
      partial = b;
      spare_pos = static_cast<size_t>(
          std::find(written[b].begin(), written[b].end(), false) -
          written[b].begin());
    }
  }
  ASSERT_LT(untouched, n) << "a one-chunk update leaves some block alone";
  ASSERT_LT(partial, n) << "and some written block has an unwritten stripe";
  fs.corrupt_block(id, untouched, 3);
  fs.corrupt_block(id, partial, spare_pos * chunk + 5);

  const Buffer patch = random_buffer(chunk, rng);
  ASSERT_NO_THROW(fs.update_range(id, c * chunk, patch));
  std::copy(patch.begin(), patch.end(),
            mirror.begin() + static_cast<ptrdiff_t>(c * chunk));
  EXPECT_TRUE(fs.lost_blocks(id).empty());

  std::vector<std::pair<FileId, size_t>> found;
  for (const auto& hit : fs.scrub(/*quarantine=*/false))
    found.emplace_back(hit.file, hit.block);
  std::sort(found.begin(), found.end());
  std::vector<std::pair<FileId, size_t>> want{{id, untouched}, {id, partial}};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(found, want);

  const auto report = fs.scrub_and_repair();
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.unrecoverable, 0u);
  expect_blocks_encode(fs, id, mirror);
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// ReadStats::repair_verified_bytes is what repair CRC-checks: with no
// injector (so no hedge drafts spares), rebuilding block b checks exactly
// its repair_helpers(b), whole — the paper's locality, on stored bytes.
TEST(RepairVerifiedBytes, EqualsTheHelperBlocksOfEverySlot) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  io::AsyncIo repair_io(1);
  io::HedgePolicy unhedged;
  unhedged.enabled = false;
  repair_io.set_hedge_policy(unhedged);
  Rng rng(71);
  const FileId id =
      fs.write(random_buffer(code.engine().num_chunks() * 40000, rng));
  const size_t block_bytes = fs.block_bytes(id);
  ASSERT_GT(segment_count(block_bytes), 1u);
  for (size_t b = 0; b < code.num_blocks(); ++b) {
    fs.fail_server(fs.server_of(b));
    fs.revive_server(fs.server_of(b));
    const size_t before = fs.read_stats().repair_verified_bytes;
    const auto helpers = fs.repair(id, b, &repair_io);
    ASSERT_TRUE(helpers.has_value()) << "block " << b;
    EXPECT_EQ(*helpers, code.repair_helpers(b)) << "block " << b;
    EXPECT_EQ(fs.read_stats().repair_verified_bytes - before,
              code.repair_helpers(b).size() * block_bytes)
        << "block " << b;
  }
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// One flipped bit at each lane edge of the CRC-32C kernel (256 B and 8 KiB
// lanes, three per round, and the tail after the last round) inside one
// full 64 KiB data segment, each in a fresh store: a read over the segment
// decodes around it, an update covering it refuses, and scrub reports it.
TEST(LaneBoundaryCorruption, EveryLaneAndTheTailIsCaught) {
  core::GalloperCode code(4, 2, 2);
  const size_t chunk = kSegmentBytes;  // a data stripe is one segment
  Rng rng(72);
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  for (size_t x : {0u, 255u, 256u, 8191u, 8192u, 16384u, 24575u, 24576u,
                   49151u, 49152u, 65535u}) {
    SCOPED_TRACE("segment offset " + std::to_string(x));
    sim::Simulation simulation;
    sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
    FileStore fs(cluster, code);
    fs.set_block_cache(nullptr);
    const FileId id = fs.write(file);
    // The first original-data run: a whole segment of one data block.
    const core::InputFormat fmt(code, fs.block_bytes(id));
    const core::InputFormat::Split run = fmt.splits().front();
    ASSERT_GE(run.length, kSegmentBytes);
    ASSERT_EQ(run.block_offset % kSegmentBytes, 0u);
    const size_t b = run.block;

    fs.corrupt_block(id, b, run.block_offset + x);
    const FileStore::ReadStats before = fs.read_stats();
    const auto got = fs.read_range(id, run.file_offset, kSegmentBytes);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(std::equal(got->begin(), got->end(),
                           file.begin() + run.file_offset));
    const FileStore::ReadStats after = fs.read_stats();
    EXPECT_EQ(after.crc_failures, before.crc_failures + 1);
    EXPECT_EQ(after.degraded_reads, before.degraded_reads + 1);
    ASSERT_TRUE(fs.block_available(id, b)) << "the read self-heals";

    fs.corrupt_block(id, b, run.block_offset + x);
    EXPECT_THROW(fs.update_range(id, run.file_offset, Buffer(chunk, 0x5A)),
                 CheckError);
    ASSERT_TRUE(fs.repair(id, b).has_value());

    fs.corrupt_block(id, b, run.block_offset + x);
    const auto hits = fs.scrub(/*quarantine=*/false);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].file, id);
    EXPECT_EQ(hits[0].block, b);
  }
}

// ---- Immutable segments ------------------------------------------------------

// The block cache holds the store's own segments, and rot replaces a stored
// segment with a flipped copy: a cached read keeps serving the verified
// bytes, and once the cache is dropped the next read finds the flip,
// decodes around it and heals the block.
TEST(ImmutableSegmentTest, RotAfterCachingServesCachedBytesThenHeals) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  client::BlockCache cache(size_t{16} << 20);
  FileStore fs(cluster, code);
  fs.set_block_cache(&cache);
  const size_t chunk = 256 << 10;
  Rng rng(83);
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(file);

  // File chunk 0 sits verbatim in one data block: find where.
  std::vector<size_t> all(code.num_blocks());
  for (size_t b = 0; b < all.size(); ++b) all[b] = b;
  const auto plan = code.engine().plan_decode_fast(all);
  const codes::CodecPlan::Row& row = plan->row(0);
  ASSERT_GE(row.copy_slot, 0);
  const size_t home = plan->source_blocks()[row.copy_slot];
  const size_t offset = 1000, length = 4096;
  const auto expect_file = [&](const std::optional<Buffer>& got) {
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(std::equal(got->begin(), got->end(), file.begin() + offset));
  };

  expect_file(fs.read_range(id, offset, length));  // fills the cache
  fs.corrupt_block(id, home, row.copy_pos * chunk + offset + 10);
  const FileStore::ReadStats before = fs.read_stats();
  expect_file(fs.read_range(id, offset, length));  // staged from the cache
  EXPECT_EQ(fs.read_stats().verified_reads, before.verified_reads);
  EXPECT_EQ(fs.read_stats().crc_failures, before.crc_failures);

  cache.clear();
  expect_file(fs.read_range(id, offset, length));
  EXPECT_EQ(fs.read_stats().crc_failures, before.crc_failures + 1);
  EXPECT_EQ(fs.read_stats().degraded_reads, before.degraded_reads + 1);
  EXPECT_TRUE(fs.lost_blocks(id).empty());
  EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
}

// An update installs its window by swapping segments, so readers inside
// the chunk it rewrites never see a torn chunk: every read returns the
// chunk as it stood before or after some update. The chunk spans two
// segments and one reader straddles their edge. The cache is off: each
// read is then one fetch of one block under one lock hold.
TEST(ImmutableSegmentTest, ReadsInsideAChunkNeverSeeATornUpdate) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  FileStore fs(cluster, code);
  fs.set_block_cache(nullptr);
  const size_t chunk = 2 * kSegmentBytes;
  Rng rng(89);
  const Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  const FileId id = fs.write(file);
  const size_t c = 1;  // the updated chunk
  std::vector<Buffer> versions;
  versions.emplace_back(file.begin() + c * chunk,
                        file.begin() + (c + 1) * chunk);
  for (size_t v = 0; v < 16; ++v) versions.push_back(random_buffer(chunk, rng));

  // (offset inside the chunk, length) per reader.
  const std::pair<size_t, size_t> reads[] = {{0, chunk},
                                             {kSegmentBytes - 2048, 4096}};
  std::atomic<bool> done{false};
  std::atomic<size_t> torn{0}, completed{0};
  std::vector<std::thread> readers;
  for (const auto& [at, len] : reads) {
    readers.emplace_back([&, at = at, len = len] {
      while (!done.load()) {
        const auto got = fs.read_range(id, c * chunk + at, len);
        if (!got) {
          ++torn;
          continue;
        }
        const bool whole = std::any_of(
            versions.begin(), versions.end(), [&](const Buffer& v) {
              return std::equal(got->begin(), got->end(), v.begin() + at);
            });
        if (!whole) ++torn;
        ++completed;
      }
    });
  }
  // Cycle through the versions until the readers have overlapped many
  // updates (at least one full cycle).
  while (completed.load() < 2) std::this_thread::yield();
  size_t v = 0;
  for (size_t n = 1; n < versions.size() || completed.load() < 400; ++n) {
    v = n % versions.size();
    fs.update_range(id, c * chunk, versions[v]);
  }
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0u);
  Buffer mirror = file;
  std::copy(versions[v].begin(), versions[v].end(),
            mirror.begin() + c * chunk);
  expect_blocks_encode(fs, id, mirror);
}

// Repair rebuilds through decode_staged over the helpers' stored segments.
// Seeded update sequences leave each helper's segments spread over several
// owners (the write's buffer and the update windows, whose edges straddle
// segments); the repair of every slot must still equal encode(mirror)[b]
// and the engine's whole-block repair over contiguous helper copies.
TEST(ImmutableSegmentTest, StagedRepairMatchesWholeBlockRepairAfterUpdates) {
  core::GalloperCode code(4, 2, 2);
  const codes::CodecEngine& engine = code.engine();
  io::AsyncIo repair_io(1);
  for (const uint64_t seed : {3u, 5u, 7u}) {
    sim::Simulation simulation;
    sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
    FileStore fs(cluster, code);
    const size_t chunk = 40000;
    Rng rng(seed);
    Buffer mirror = random_buffer(engine.num_chunks() * chunk, rng);
    const FileId id = fs.write(mirror);
    for (size_t u = 0; u < 12; ++u) {
      const size_t first = rng.next_below(engine.num_chunks());
      const size_t count =
          1 + rng.next_below(std::min<size_t>(3, engine.num_chunks() - first));
      const Buffer patch = random_buffer(count * chunk, rng);
      fs.update_range(id, first * chunk, patch);
      std::copy(patch.begin(), patch.end(), mirror.begin() + first * chunk);
    }
    const std::vector<Buffer> want = code.encode(mirror);
    for (size_t b = 0; b < code.num_blocks(); ++b) {
      fs.fail_server(fs.server_of(b));
      fs.revive_server(fs.server_of(b));
      const auto helpers = fs.repair(id, b, &repair_io);
      ASSERT_TRUE(helpers.has_value()) << "seed " << seed << " block " << b;
      const auto got = fs.block(id, b);
      ASSERT_TRUE(got.has_value());
      EXPECT_TRUE(std::equal(got->begin(), got->end(), want[b].begin(),
                             want[b].end()))
          << "seed " << seed << " block " << b;
      std::map<size_t, ConstByteSpan> copies;
      for (size_t h : *helpers) copies.emplace(h, want[h]);
      const auto whole = engine.repair_block_with_plan(
          *engine.plan_repair(b, *helpers), copies);
      ASSERT_TRUE(whole.has_value());
      EXPECT_TRUE(std::equal(got->begin(), got->end(), whole->begin(),
                             whole->end()))
          << "seed " << seed << " block " << b;
    }
    // The helpers the repairs read were the stored segments: contiguous,
    // they equal the copies the engine repair used.
    expect_blocks_encode(fs, id, mirror);
    EXPECT_TRUE(fs.scrub(/*quarantine=*/false).empty());
  }
}

// A (4,2,2) store with a private block cache and a file whose chunks each
// span two segments, plus the block chunk 0 is copied from verbatim.
struct SnapshotFixture {
  core::GalloperCode code{4, 2, 2};
  sim::Simulation simulation;
  sim::Cluster cluster{simulation, code.num_blocks(), sim::ServerSpec{}};
  client::BlockCache cache{size_t{16} << 20};
  FileStore fs{cluster, code};
  const size_t chunk = 2 * kSegmentBytes;
  Rng rng{97};
  Buffer file = random_buffer(code.engine().num_chunks() * chunk, rng);
  FileId id = 0;
  size_t home = 0;

  SnapshotFixture() {
    fs.set_block_cache(&cache);
    id = fs.write(file);
    std::vector<size_t> all(code.num_blocks());
    for (size_t b = 0; b < all.size(); ++b) all[b] = b;
    const auto plan = code.engine().plan_decode_fast(all);
    home = plan->source_blocks()[plan->row(0).copy_slot];
  }
  bool is_old_chunk0(const std::optional<Buffer>& got) const {
    return got && got->size() == chunk &&
           std::equal(got->begin(), got->end(), file.begin());
  }
};

// A read whose first segment is staged from the cache and whose second is
// fetched after an update of the chunk still returns the chunk as it was
// at its open: the fetch hands out the snapshot's segment, not the
// update's.
TEST(SnapshotReadTest, CachedAndFetchedSegmentsComeFromTheOpenSnapshot) {
  SnapshotFixture t;
  ASSERT_TRUE(t.fs.read_range(t.id, 0, 4096).has_value());  // caches seg 0
  FileStore::RangeRead read = t.fs.open_read(t.id, 0, t.chunk);
  ASSERT_TRUE(read.needs_fetch());
  t.fs.update_range(t.id, 0, random_buffer(t.chunk, t.rng));
  const auto got = t.fs.finish_read(read, 1, 1);
  EXPECT_TRUE(t.is_old_chunk0(got)) << "torn or post-update chunk";
}

// A read that loses its copy source after an update replans into a
// degraded decode over the snapshot's other blocks, so it still returns
// the pre-update chunk.
TEST(SnapshotReadTest, ReplanAfterAnUpdateDecodesTheOpenSnapshot) {
  SnapshotFixture t;
  FileStore::RangeRead read = t.fs.open_read(t.id, 0, t.chunk);
  t.fs.update_range(t.id, 0, random_buffer(t.chunk, t.rng));
  t.fs.fail_server(t.fs.server_of(t.home));
  const auto got = t.fs.finish_read(read, 1, 1);
  EXPECT_TRUE(read.replanned());
  EXPECT_TRUE(t.is_old_chunk0(got)) << "replan mixed in post-update bytes";
}

// Differential check of the read guarantee under load, cache on: readers
// (one-chunk and multi-chunk read_range, multi-batch open_read +
// finish_read) race an updater that rewrites the whole file with one
// constant byte per version and an actor that kills, revives and repairs
// a block. Every read that returns bytes returns one version, no older
// than the last installed before it opened and no newer than the last
// update begun by the time it returned.
TEST(SnapshotReadTest, ConcurrentReadsReturnOneInstalledVersion) {
  core::GalloperCode code(4, 2, 2);
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, code.num_blocks(), sim::ServerSpec{});
  client::BlockCache cache(size_t{8} << 20);
  FileStore fs(cluster, code);
  fs.set_block_cache(&cache);
  const size_t chunk = 40000;  // chunks straddle segment edges
  const size_t nchunks = code.engine().num_chunks();
  const size_t fbytes = nchunks * chunk;
  const FileId id = fs.write(Buffer(fbytes, 0));
  constexpr unsigned kVersions = 80;

  std::atomic<unsigned> begun{0}, installed{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0}, bad{0};
  // (chunks per read, via open_read + finish_read(read, 1, 2)) per reader.
  const std::pair<size_t, bool> kinds[] = {{1, false}, {3, false}, {4, true}};
  std::vector<std::thread> threads;
  for (size_t r = 0; r < std::size(kinds); ++r) {
    threads.emplace_back([&, r] {
      const auto [count, batched] = kinds[r];
      Rng rng(200 + r);
      while (!done.load()) {
        const size_t first = rng.next_below(nchunks - count + 1);
        const unsigned floor = installed.load();
        std::optional<Buffer> got;
        if (batched) {
          FileStore::RangeRead read =
              fs.open_read(id, first * chunk, count * chunk);
          got = fs.finish_read(read, 1, 2);
        } else {
          got = fs.read_range(id, first * chunk, count * chunk);
        }
        const unsigned ceiling = begun.load();
        if (!got) continue;
        const uint8_t v = (*got)[0];
        if (std::any_of(got->begin(), got->end(),
                        [v](uint8_t x) { return x != v; }) ||
            v < floor || v > ceiling)
          ++bad;
        ++reads;
      }
    });
  }
  // One kill/revive/repair cycle per installed version, so the updater,
  // which needs every block, makes progress at any speed.
  threads.emplace_back([&] {
    Rng rng(300);
    for (unsigned seen = 0; !done.load();) {
      if (installed.load() == seen) {
        std::this_thread::yield();
        continue;
      }
      seen = installed.load();
      const size_t b = rng.next_below(code.num_blocks());
      fs.fail_server(fs.server_of(b));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      fs.revive_server(fs.server_of(b));
      fs.repair(id, b);
    }
  });
  for (unsigned v = 1; v <= kVersions; ++v) {
    begun = v;
    const Buffer data(fbytes, static_cast<uint8_t>(v));
    for (;;) {
      try {
        fs.update_range(id, 0, data);
        break;
      } catch (const CheckError&) {  // a block is down: wait for its repair
      } catch (const fault::TransientError&) {
      }
      std::this_thread::yield();
    }
    installed = v;
  }
  while (reads.load() < 30) std::this_thread::yield();
  done = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u) << "of " << reads.load() << " reads";
  for (size_t b = 0; b < code.num_blocks(); ++b) fs.repair(id, b);
  EXPECT_EQ(fs.read(id), Buffer(fbytes, kVersions));
}

}  // namespace
}  // namespace galloper::store
