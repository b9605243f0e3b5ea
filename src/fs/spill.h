// Out-of-core bucket storage: spill runs + the process memory budget.
//
// When a job's intermediate data exceeds RAM, bucket contents are written
// to local disk as *spill runs* — checksummed files in the same mrsk1
// frame format the data plane streams between slaves — and reads become
// merged streams (fs/merge.h) instead of materialized vectors.  The
// MemoryBudget decides when: every producer (map partition accumulation,
// reduce output buffering, dataset row storage) charges it as records
// accumulate and spills once usage crosses the configured limit.
//
// Two run orderings exist, chosen by what the consumer is allowed to
// observe:
//   - sorted runs (map/shuffle output): records within the run are ordered
//     by (key, value).  Shuffle data has multiset semantics — the reduce
//     consumer sort-groups it anyway, and records that compare equal are
//     byte-identical — so a k-way merge of sorted runs reproduces exactly
//     what a stable_sort of the in-memory concatenation would have fed the
//     reduce.  This is what makes spilling invisible to the
//     all-implementations-identical invariant.
//   - FIFO runs (reduce/final output): record order is preserved exactly
//     (runs concatenate in write order), because Job::Collect reads final
//     buckets in raw emit order and per-key reduce emit order is
//     program-defined, not sorted.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ser/value.h"

namespace mrs {

/// Byte-accounting for in-memory bucket data.  Charge/Release are lock-free
/// and safe from any thread (pool workers, slave executor, dataset
/// mutators).  A limit <= 0 means unlimited: ShouldSpill never fires and
/// the runtime behaves exactly as before this tier existed.
///
/// The limit is a soft target with bounded overshoot: producers check
/// ShouldSpill() every few records (not on every append), so usage may
/// exceed the limit by one check interval's worth of records before the
/// spill happens.
class MemoryBudget {
 public:
  MemoryBudget() = default;

  /// The process-wide budget every runner and dataset consults.  Its
  /// initial limit comes from $MRS_MEMORY_BUDGET (parsed once, first use);
  /// --mrs-memory-budget overrides it via set_limit.  Mirrors usage and
  /// high-water into the mrs.spill.budget_* gauges.
  static MemoryBudget& Process();

  /// <= 0: unlimited (the default).
  void set_limit(int64_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }
  bool active() const { return limit() > 0; }

  void Charge(int64_t bytes);
  void Release(int64_t bytes);

  int64_t usage() const { return usage_.load(std::memory_order_relaxed); }
  int64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// True when a producer holding in-memory records should spill them:
  /// the budget is active and current usage (plus `extra` hypothetical
  /// bytes) exceeds the limit.
  bool ShouldSpill(int64_t extra = 0) const {
    int64_t lim = limit();
    return lim > 0 && usage() + extra > lim;
  }

  /// Test hook: zero usage and high-water (limits are the caller's to
  /// restore).  Charges are matched by releases in normal operation, but a
  /// test that aborts a run mid-flight may leak accounting.
  void ResetForTest();

 private:
  friend class ProcessBudgetAccess;
  std::atomic<int64_t> limit_{0};
  std::atomic<int64_t> usage_{0};
  std::atomic<int64_t> high_water_{0};
  bool is_process_ = false;  // set once, before threads exist
};

/// Parse a byte-size string: a plain integer, optionally suffixed with
/// K/M/G (binary: 1024-based, case-insensitive, optional trailing B/iB).
/// "0" and "" mean unlimited.
Result<int64_t> ParseByteSize(const std::string& text);

/// One spill run on local disk.  The file is a single-frame mrsk1 frame
/// set: frame id names the producer ("<dataset>/<source>/<split>[/...]"),
/// frame checksum guards the payload, frame data is EncodeBinaryRecords of
/// the run's records.  Reusing the wire format means a slave can serve a
/// run straight into the batched data plane without re-framing.
struct SpillRun {
  std::string path;
  std::string id;
  std::string checksum;  // ContentChecksum of the encoded record payload
  uint64_t records = 0;
  uint64_t bytes = 0;  // encoded payload size
  bool sorted = false;  // ordered by (key, value); false = FIFO
};

/// Write `records` to `path` as a spill run (atomically: temp + rename).
/// If `sorted`, the caller guarantees the records are already ordered by
/// (key, value).  Updates mrs.spill.runs_written / bytes_spilled.
Result<SpillRun> WriteSpillRun(const std::string& path, const std::string& id,
                               const std::vector<KeyValue>& records,
                               bool sorted);

/// Wrap an already-encoded record payload (e.g. a frame fetched over the
/// data plane) as a spill run file without decoding it.  `checksum` must
/// be ContentChecksum(payload) — verified on read, not here.
Result<SpillRun> WriteEncodedSpillRun(const std::string& path,
                                      const std::string& id,
                                      std::string_view payload,
                                      const std::string& checksum,
                                      bool sorted);

/// Read a whole run back by draining one fs/merge.h SpillRunSource (use
/// the source directly for memory-bounded reads).  A missing file is
/// kNotFound; truncation, a bad frame, or a checksum mismatch is kDataLoss.
Result<std::vector<KeyValue>> ReadSpillRun(const SpillRun& run);

/// Best-effort deletion of a run file (lineage invalidation, discards).
void RemoveSpillRun(const SpillRun& run);

/// Lazily-created process-local directory for spill files that have no
/// natural owner directory (serial/thread runner tasks, dataset row
/// spills).  Removed at process exit.
Result<std::string> SpillRoot();

/// Create a fresh subdirectory of SpillRoot() for one task execution's run
/// files.  Each call returns a distinct directory (monotonic suffix), so a
/// re-executed task never overwrites run files a stale bucket still
/// references.
Result<std::string> NewSpillDir(const std::string& label);

}  // namespace mrs
