#include "fault/soak.h"

#include <cstdio>
#include <set>
#include <vector>

#include "core/galloper.h"
#include "fault/fault.h"
#include "sim/cluster.h"
#include "store/file_store.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"

namespace galloper::fault {
namespace {

// Rebuilds lost blocks of every file, retrying repairs that keep drawing
// transient helper-read faults. Used after revives, refused updates, and
// injected crashes — all of which leave blocks lost/quarantined.
//
// Multi-pass: repair() CRC-verifies its helpers and quarantines a silently
// corrupt one, which can make block A unrecoverable until block B (the
// quarantined helper) heals first — so passes repeat while they make
// progress. Mid-run (`strict` false) blocks that still cannot be rebuilt —
// e.g. their helpers sit on dead servers — are simply left lost for a later
// revive/heal to pick up; only the final pass demands everything heals.
size_t heal_lost(store::FileStore& fs, SoakOptions const& opt, bool strict) {
  size_t repaired = 0;
  for (;;) {
    bool progress = false;
    bool remaining = false;
    for (store::FileId id = 0; id < fs.num_files(); ++id) {
      for (size_t b : fs.lost_blocks(id)) {
        // A block on a still-dead server has nowhere to be stored back;
        // it is healed by the revive op (or the final pass) later.
        if (!fs.cluster().server(fs.server_of(b)).alive()) {
          remaining = true;
          continue;
        }
        try {
          const auto helpers = fs.repair(id, b);
          if (helpers.has_value()) {
            ++repaired;
            progress = true;
          } else {
            remaining = true;  // maybe unblocked by a peer healing this pass
          }
        } catch (const TransientError&) {
          // Injected transient faults: the schedule is probabilistic, so a
          // later pass re-rolls and eventually succeeds.
          remaining = true;
          progress = true;
        }
      }
    }
    if (!remaining) break;
    if (!progress) {
      GALLOPER_CHECK_MSG(!strict,
                         "soak seed " + std::to_string(opt.seed) +
                             ": lost block became unrecoverable");
      break;
    }
  }
  return repaired;
}

void check_identical(const Buffer& got, ConstByteSpan want, uint64_t seed,
                     const char* what) {
  GALLOPER_CHECK_MSG(
      got.size() == want.size() &&
          std::equal(got.begin(), got.end(), want.begin()),
      std::string(what) + " not bit-identical (reproduce with --seed=" +
          std::to_string(seed) + ")");
}

}  // namespace

SoakReport run_soak(const SoakOptions& options) {
  GALLOPER_CHECK(options.files >= 1 && options.chunk_bytes >= 1);
  SoakReport report;
  Rng rng(options.seed);

  core::GalloperCode code(options.k, options.l, options.g);
  const size_t num_blocks = code.num_blocks();
  sim::Simulation simulation;
  sim::Cluster cluster(simulation, num_blocks + 2, sim::ServerSpec{});
  store::FileStore fs(cluster, code);

  FaultInjector injector(options.seed ^ 0x5eedfau);
  injector.set_bit_flip_rate(options.bit_flip_rate);
  injector.set_torn_write_rate(options.torn_write_rate);
  injector.set_read_failure_rate(options.read_failure_rate);
  fs.set_fault_injector(&injector);

  // The harness's soundness invariant: at ALL times every file is decodable
  // from its available, non-corrupt blocks — data the code legitimately
  // loses would fail the final bit-identity check BY DESIGN, so the harness
  // must never schedule a fault pattern past the code's tolerance. It
  // enforces this exactly, not probabilistically: `known_bad[id]` is a
  // conservative overapproximation of file id's silently-corrupt blocks
  // (every corruption source inserts immediately — the explicit corrupt op
  // below, and injected write faults via the injector's write gate; heals
  // are only observed at the per-op resync, which re-tightens the set from
  // a non-quarantining scrub). Every kill / corruption / write fault is
  // admitted only if the affected file(s) stay decodable from
  // available ∖ known_bad ∖ {the new casualty}. The store under test stays
  // blind; only the test driver sees the schedule.
  std::vector<std::set<size_t>> known_bad(options.files);

  // Decodable from the available, not-known-bad blocks of `id`, minus `b`?
  // During the initial fs.write the file is not registered yet (its id
  // equals num_files()), so availability falls back to server liveness.
  const auto survives_loss = [&](size_t id, size_t b) {
    std::vector<size_t> avail;
    for (size_t x = 0; x < num_blocks; ++x) {
      if (x == b || known_bad[id].count(x)) continue;
      const bool present = id < fs.num_files()
                               ? fs.block_available(id, x)
                               : cluster.server(fs.server_of(x)).alive();
      if (present) avail.push_back(x);
    }
    return code.decodable(avail);
  };

  injector.set_write_gate([&](size_t id, size_t b) {
    if (!survives_loss(id, b)) return false;
    known_bad[id].insert(b);
    return true;
  });

  // Reference copies: the ground truth every read is compared against.
  // Write-time faults can corrupt stored blocks immediately, so reads may
  // be degraded from op #0 — the harness only requires that the BYTES the
  // store returns match the reference, never that the path was clean.
  std::vector<Buffer> reference;
  for (size_t i = 0; i < options.files; ++i) {
    const size_t chunk = options.chunk_bytes + 32 * (i % 3);
    reference.push_back(
        random_buffer(code.engine().num_chunks() * chunk, rng));
    fs.write(reference.back());
  }

  std::vector<bool> dead(num_blocks, false);
  size_t dead_count = 0;
  const size_t crash_at = options.arm_crash ? options.ops / 2 : SIZE_MAX;

  // Can server `s` be killed — losing block s of EVERY file at once —
  // while the soundness invariant holds?
  const auto killable = [&](size_t s) {
    for (store::FileId id = 0; id < fs.num_files(); ++id)
      if (!survives_loss(id, s)) return false;
    return true;
  };

  // Re-tightens known_bad to the truth between ops: gate insertions are
  // immediate, but heals (read_range auto-repairs, scrubs, repairs) are
  // only observed here, so mid-op the set conservatively overapproximates.
  const auto resync_known_bad = [&] {
    for (auto& bad : known_bad) bad.clear();
    for (const auto& cb : fs.scrub(/*quarantine=*/false))
      known_bad[cb.file].insert(cb.block);
  };

  for (size_t op = 0; op < options.ops; ++op) {
    ++report.ops;

    if (op == crash_at) {
      // Corrupt a block, arm the crash point inside repair, and drive the
      // repair through a degraded read. The CrashError must leave the
      // quarantined block simply lost (NOT half-installed) so a later
      // repair completes it — crash-idempotence of the store's repair.
      const store::FileId id = rng.next_below(options.files);
      size_t b = rng.next_below(num_blocks);
      while (!fs.block_available(id, b)) b = (b + 1) % num_blocks;
      injector.arm_crash("store.repair");
      if (survives_loss(id, b)) {
        known_bad[id].insert(b);
        fs.corrupt_block(id, b, rng.next_below(fs.block_bytes(id)));
        ++report.corruptions;
        try {
          (void)fs.read_range(id, 0, fs.file_bytes(id));
        } catch (const CrashError&) {
          ++report.crashes_survived;
        }
        (void)heal_lost(fs, options, /*strict=*/false);
        // Transient read faults are still firing, so retry the post-crash
        // verification read until it lands (each attempt re-rolls).
        std::optional<Buffer> back;
        for (int t = 0; t < 1000 && !back.has_value(); ++t)
          back = fs.read_range(id, 0, fs.file_bytes(id));
        GALLOPER_CHECK_MSG(back.has_value(),
                           "soak seed " + std::to_string(options.seed) +
                               ": post-crash read kept failing");
        check_identical(*back, reference[id], options.seed,
                        "post-crash repair");
      }
      // If the invariant check refused the corruption, the armed crash
      // simply fires at whatever repair runs next; the op-level handler
      // below absorbs it.
      resync_known_bad();
      continue;
    }

    try {
    switch (rng.next_below(6)) {
      case 0: {  // kill a server (only while the invariant survives it)
        if (dead_count + 1 >= num_blocks) break;
        size_t s = rng.next_below(num_blocks);
        while (dead[s]) s = (s + 1) % num_blocks;
        if (!killable(s)) break;
        fs.fail_server(s);
        dead[s] = true;
        ++dead_count;
        ++report.kills;
        break;
      }
      case 1: {  // revive a dead server and rebuild its blocks
        if (dead_count == 0) break;
        size_t s = rng.next_below(num_blocks);
        while (!dead[s]) s = (s + 1) % num_blocks;
        fs.revive_server(s);
        dead[s] = false;
        --dead_count;
        ++report.revives;
        report.repairs += heal_lost(fs, options, /*strict=*/false);
        break;
      }
      case 2: {  // silent corruption (kept within the code's tolerance)
        const store::FileId id = rng.next_below(options.files);
        const size_t b = rng.next_below(num_blocks);
        if (!fs.block_available(id, b) || !survives_loss(id, b)) break;
        known_bad[id].insert(b);
        fs.corrupt_block(id, b, rng.next_below(fs.block_bytes(id)));
        ++report.corruptions;
        break;
      }
      case 3: {  // verified ranged read (the self-healing path)
        const store::FileId id = rng.next_below(options.files);
        const size_t bytes = fs.file_bytes(id);
        const size_t off = rng.next_below(bytes);
        const size_t len = 1 + rng.next_below(bytes - off);
        const size_t transients_before = fs.read_stats().transient_faults;
        const size_t quarantines_before = fs.read_stats().crc_failures;
        const bool degraded_before = !fs.lost_blocks(id).empty();
        const auto got = fs.read_range(id, off, len);
        if (!got.has_value()) {
          // Acceptable only in a degraded state the schedule explains: a
          // transient-fault storm blinded enough helpers DURING this read,
          // the read itself just quarantined freshly discovered silent
          // corruptions, or the file already had blocks down (lost on dead
          // servers, or quarantined by an earlier read/scrub and not yet
          // healed). A clean store refusing a read is a real bug, and
          // genuine data loss still fails the strict final verify. Heal
          // what can be healed so the run keeps making progress.
          GALLOPER_CHECK_MSG(
              fs.read_stats().transient_faults > transients_before ||
                  fs.read_stats().crc_failures > quarantines_before ||
                  degraded_before,
              "soak seed " + std::to_string(options.seed) +
                  ": read_range failed on recoverable store");
          report.repairs += heal_lost(fs, options, /*strict=*/false);
          break;
        }
        check_identical(*got,
                        ConstByteSpan(reference[id]).subspan(off, len),
                        options.seed, "ranged read");
        ++report.reads;
        break;
      }
      case 4: {  // chunk-aligned in-place update
        if (dead_count > 0) break;  // updates need every block available
        const store::FileId id = rng.next_below(options.files);
        const size_t chunk = fs.file_bytes(id) / code.engine().num_chunks();
        const size_t chunks = code.engine().num_chunks();
        const size_t first = rng.next_below(chunks);
        const size_t count = 1 + rng.next_below(chunks - first);
        Buffer patch = random_buffer(count * chunk, rng);
        try {
          fs.update_range(id, first * chunk, patch);
          std::copy(patch.begin(), patch.end(),
                    reference[id].begin() +
                        static_cast<ptrdiff_t>(first * chunk));
          ++report.updates;
        } catch (const CheckError&) {
          // A segment the update verifies — one covering a stripe it
          // writes — was silently corrupt: the update refused (corruption
          // must not be laundered into fresh parity) and quarantined its
          // block. Corruption elsewhere in the stripe is scrub's job and
          // does not refuse. Heal and move on.
          ++report.updates_refused;
          (void)heal_lost(fs, options, /*strict=*/false);
        }
        break;
      }
      default: {  // scrub-and-repair pass
        // `unrecoverable` here means "still down NOW" — e.g. a corrupt
        // block whose helpers sit on a dead server. The revive ops and the
        // final heal pass pick those up; only the FINAL scrub must come
        // back fully healed.
        const auto sr = fs.scrub_and_repair();
        ++report.scrubs;
        report.scrub_repairs += sr.repaired;
        break;
      }
    }
    } catch (const CrashError&) {
      // An injected crash killed this op mid-repair (armed by the crash
      // phase when the invariant check refused its corruption). The
      // "process" comes back up and heals: repair is idempotent, so
      // re-running it completes what the crash interrupted.
      ++report.crashes_survived;
      (void)heal_lost(fs, options, /*strict=*/false);
    }
    resync_known_bad();
  }

  // Final heal-and-verify: stop injecting, revive and rebuild everything,
  // then every file must read back bit-identical through both the ranged
  // (CRC-verified) and whole-file (decode) paths.
  injector.clear();
  for (size_t s = 0; s < num_blocks; ++s) {
    if (dead[s]) {
      fs.revive_server(s);
      ++report.revives;
    }
  }
  report.repairs += heal_lost(fs, options, /*strict=*/true);
  const auto final_scrub = fs.scrub_and_repair();
  GALLOPER_CHECK_MSG(final_scrub.unrecoverable == 0,
                     "soak seed " + std::to_string(options.seed) +
                         ": final scrub found unrecoverable corruption");
  report.scrub_repairs += final_scrub.repaired;
  for (store::FileId id = 0; id < fs.num_files(); ++id) {
    const auto ranged = fs.read_range(id, 0, fs.file_bytes(id));
    GALLOPER_CHECK(ranged.has_value());
    check_identical(*ranged, reference[id], options.seed, "final ranged read");
    const auto whole = fs.read(id);
    GALLOPER_CHECK(whole.has_value());
    check_identical(*whole, reference[id], options.seed, "final full read");
  }

  report.degraded_reads = fs.read_stats().degraded_reads;
  report.auto_repairs = fs.read_stats().auto_repairs;
  report.transient_faults = fs.read_stats().transient_faults;
  fs.set_fault_injector(nullptr);

  if (options.verbose) {
    std::printf("soak seed=%llu %s\n",
                static_cast<unsigned long long>(options.seed),
                format_report(report).c_str());
  }
  return report;
}

std::string format_report(const SoakReport& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "ops=%zu kills=%zu revives=%zu corruptions=%zu reads=%zu "
                "degraded=%zu auto_repairs=%zu updates=%zu refused=%zu "
                "scrubs=%zu scrub_repairs=%zu repairs=%zu crashes=%zu "
                "transients=%zu",
                r.ops, r.kills, r.revives, r.corruptions, r.reads,
                r.degraded_reads, r.auto_repairs, r.updates,
                r.updates_refused, r.scrubs, r.scrub_repairs, r.repairs,
                r.crashes_survived, r.transient_faults);
  return std::string(buf);
}

}  // namespace galloper::fault
