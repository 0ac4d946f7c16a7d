// StoreRunner: the store-backed parallel MapReduce runtime — the paper's
// headline measured live (Sec. VI/VII, Figs. 8–10).
//
// LocalRunner proves correctness single-threaded over in-memory block
// spans; StoreRunner runs the same job definition as a real parallel data
// path over FileStore:
//  * core::InputFormat splits (capped at max_split_bytes, so parallelism
//    is not quantized to one task per block) become map tasks scheduled
//    over the rt:: work-stealing pool — on a Galloper layout that is
//    original data on ALL k+l+g servers, vs only the k data servers of
//    Pyramid/RS;
//  * each map task is ONE verified read of its split's file range through
//    FileStore's read core (open_read/finish_read), under one admission
//    ticket: with the split's block available the plan copies its chunks
//    verbatim, so the task fetches and CRC-checks only the split's own
//    segments of that block and never decodes or touches parity bytes;
//  * a split whose block is lost — before the job, or gone, unreadable or
//    corrupt under the read, which then replans in the same call — is a
//    degraded split: the same bytes decoded around the hole, so jobs
//    complete bit-identically to LocalRunner::run_plain under fault
//    injection;
//  * the mapper emits views into a per-task sink: a combinable() (sum)
//    reducer's task counts each key in place (in-mapper combining) and
//    partitions one pair per distinct key, any other task each pair, into
//    reduce_tasks hash partitions; shuffle and reduce run one task per
//    partition (each the shared shuffle_reduce group-by, which skips
//    sorting a key's value list that is already sorted), and the sorted
//    per-reducer outputs are merged — replacing LocalRunner's global sort
//    of the whole intermediate with per-partition work that scales with
//    threads.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "client/striped.h"
#include "mr/framework.h"
#include "store/file_store.h"

namespace galloper::mr {

// Process-wide counters across every StoreRunner job, snapshotted by the
// CLI's --stats "mr:" section (same pattern as async-io / block-cache
// stats).
struct MrStats {
  uint64_t jobs = 0;
  uint64_t splits_mapped = 0;    // map tasks executed
  uint64_t degraded_splits = 0;  // splits not served verbatim from their
                                 // block (block lost, or the read replanned)
  uint64_t bytes_original = 0;   // split bytes read clean (no decode)
  uint64_t bytes_decoded = 0;    // bytes of degraded splits
  uint64_t pairs_emitted = 0;    // the mapper's emit() calls
  uint64_t pairs_shuffled = 0;   // pairs partitioned after in-mapper
                                 // combining: what the shuffle moves
  uint64_t map_ns = 0;           // summed per-job phase walls
  uint64_t shuffle_ns = 0;
  uint64_t reduce_ns = 0;
};
MrStats mr_stats();
void reset_mr_stats();

// In-mapper combining for a combinable() (sum) reducer: a map task's sink
// that sums each key's values in place, building a key string only on the
// key's first emit. A value that is not a decimal unsigned 64-bit integer
// throws CheckError.
class CountingSink final : public Emitter {
 public:
  void emit(std::string_view key, std::string_view value) override;
  // Emits one (key, decimal sum) per distinct key, in no particular order.
  void flush(Emitter& out) const;
  uint64_t emitted() const { return emitted_; }  // emit() calls

 private:
  struct ViewHash {
    using is_transparent = void;  // lookups by string_view build no string
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint64_t, ViewHash, std::equal_to<>> sums_;
  uint64_t emitted_ = 0;
};

struct StoreRunnerOptions {
  // Map/shuffle/reduce parallelism (the job's "slots"). 0 →
  // rt::ThreadPool::default_threads() (GALLOPER_THREADS).
  size_t threads = 0;
  // Split-size cap handed to InputFormat::splits(max). 0 → one map task
  // per maximal original-data run.
  size_t max_split_bytes = 0;
  // Hash partitions = shuffle/reduce tasks. 0 → threads.
  size_t reduce_tasks = 0;
  // Gate for the per-split store reads. null → AdmissionControl::global().
  client::AdmissionControl* admission = nullptr;
};

// Per-job result + instrumentation (the same numbers MrStats accumulates).
struct StoreJobReport {
  std::vector<KeyValue> output;
  size_t splits = 0;
  size_t degraded_splits = 0;
  uint64_t bytes_original = 0;
  uint64_t bytes_decoded = 0;
  uint64_t pairs_emitted = 0;
  uint64_t pairs_shuffled = 0;
  uint64_t map_ns = 0;
  uint64_t shuffle_ns = 0;
  uint64_t reduce_ns = 0;
};

class StoreRunner {
 public:
  StoreRunner(const Mapper& mapper, const Reducer& reducer,
              StoreRunnerOptions opt = {})
      : mapper_(mapper), reducer_(reducer), opt_(opt) {}

  // Runs the job over file `id` of `fs`. Output is sorted by (key, value)
  // — bit-identical to LocalRunner::run_plain over the original file.
  // Throws CheckError if a split is unrecoverable even degraded.
  std::vector<KeyValue> run(store::FileStore& fs, store::FileId id) const;
  StoreJobReport run_report(store::FileStore& fs, store::FileId id) const;

 private:
  const Mapper& mapper_;
  const Reducer& reducer_;
  StoreRunnerOptions opt_;
};

}  // namespace galloper::mr
