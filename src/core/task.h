// Task execution: the one code path that computes a row of a dataset's
// bucket grid.
//
// Every implementation — serial, mock parallel, thread, master/slave —
// runs every task through ExecuteTask, which is how Mrs guarantees that
// all implementations "produce identical answers" (paper §IV-A): a runner
// only builds the task's input (a column of buckets) and decides where the
// output row goes; the span, the spill directory, the broadcast scope, the
// exception guard and the choice between the map kernel and the
// merge-based reduce kernel live here, once (both kernels are private to
// task.cpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "core/program.h"
#include "fs/bucket.h"
#include "fs/spill.h"

namespace mrs {

namespace obs {
class ScopedSpan;
}  // namespace obs

/// Where and whether a task may spill its output buckets (fs/spill.h).
/// ExecuteTask fills one in per task when the process MemoryBudget is
/// active; a null/inactive context reproduces the pre-spill behavior
/// exactly.
struct TaskSpillContext {
  std::string dir;        // existing directory for run files
  std::string id_prefix;  // frame-id prefix, e.g. "<dataset>/<source>"
  MemoryBudget* budget = nullptr;

  bool enabled() const {
    return budget != nullptr && budget->active() && !dir.empty();
  }
};

/// Resolves a URL to raw content ("http://..." across slaves; "file://..."
/// from disk).  Injected so tests can fake remote fetches and inject
/// faults.
using UrlFetcher = std::function<Result<std::string>(const std::string&)>;

/// A fetcher handling file:// and text+file:// URLs only (local).
Result<std::string> LocalFetch(const std::string& url);

/// One input part for a task: either inline records or a URL to fetch.
/// URL schemes: "file://" (binary/text records), "http://" (ditto, remote),
/// "text+file://" (raw text, converted line-by-line to (lineno, line)).
struct TaskInputPart {
  std::vector<KeyValue> records;
  std::string url;
  bool inline_records = false;

  static TaskInputPart Inline(std::vector<KeyValue> recs) {
    TaskInputPart p;
    p.records = std::move(recs);
    p.inline_records = true;
    return p;
  }
  static TaskInputPart Url(std::string url) {
    TaskInputPart p;
    p.url = std::move(url);
    return p;
  }
};

/// Build URL/inline input parts for a remote task (master side).  Buckets
/// that have URLs are passed by reference; in-memory-only buckets are
/// inlined.
Result<std::vector<TaskInputPart>> BuildTaskInputParts(DataSet& input_ds,
                                                       int split);

/// What one task computes: row `source` of dataset `dataset_id`.
struct TaskSpec {
  DataSetKind kind = DataSetKind::kMap;
  DataSetOptions options;
  int dataset_id = 0;
  int source = 0;
  int num_splits = 1;
  int attempt = 1;

  static TaskSpec For(const DataSet& ds, int source);
};

/// A task's input: one bucket per upstream source, in source order.  Each
/// bucket holds in-memory records, spill runs, or a url still to fetch.
struct TaskInput {
  std::vector<Bucket> column;

  /// Column `split` of `in` (a file dataset: the split's text file).
  static TaskInput Column(const DataSet& in, int split);
  /// A remote task's assignment inputs.
  static TaskInput Parts(const std::vector<TaskInputPart>& parts);
  /// Records already in memory.
  static TaskInput Inline(std::vector<KeyValue> records);

  /// Fetch and concatenate every bucket's records, in order.
  Result<std::vector<KeyValue>> Load(const UrlFetcher& fetch) &&;
};

/// Where a task runs.
struct TaskEnv {
  /// Resolves url-backed input buckets.
  UrlFetcher fetch = LocalFetch;
  /// Names the runner in spill directory labels ("serial", "slave3", ...).
  std::string name;
  /// Runs inside the task span once the row is computed; the master/slave
  /// runner publishes the row here, so the span covers the whole attempt.
  std::function<Status(std::vector<Bucket>& row, obs::ScopedSpan& span)>
      finish = nullptr;
};

/// The task-execution funnel: every runner executes every task through
/// here.  Opens the task's "map"/"reduce" span, gives it a spill directory
/// when the process MemoryBudget is active (failing the task if none can
/// be made), and runs the map kernel over the concatenated input or the
/// reduce kernel over one merge source per input bucket, inside
/// RunUserCode.  Input runs staged for the merge are deleted before it
/// returns.
Result<std::vector<Bucket>> ExecuteTask(MapReduce& program,
                                        const TaskSpec& spec, TaskInput input,
                                        const TaskEnv& env);

/// Run user code of the operation `options` describes: installs its
/// broadcast (MapReduce::Broadcast) and turns an exception escaping `body`
/// into an InternalError.  The funnel and the thread runner's per-worker
/// combiners call user code through here.
Status RunUserCode(const DataSetOptions& options,
                   const std::function<Status()>& body);

/// Sort records and collapse runs of equal keys via `fn` (every combiner
/// pass: in-task, combine-before-spill, worker flush).
Result<std::vector<KeyValue>> SortGroupApply(std::vector<KeyValue> records,
                                             const ReduceFn& fn);

/// Resolve the output partition for `key`: calls the program's Partition
/// and range-checks the result.  An out-of-range result from a buggy user
/// partitioner is remapped to split 0 — as every runner has always done —
/// but no longer silently: the first occurrence logs a warning naming the
/// site and every occurrence increments `mrs.partition.out_of_range`, so
/// skewed-but-"valid" output is detectable.  Shared by map emit, reduce
/// emit, and Job::LocalData so all runners treat bad partitions the same.
int ResolvePartition(const MapReduce& program, const Value& key,
                     int num_splits, const char* site);

/// Resolve the combiner configured on a map dataset ("combine" when
/// `options.combine_name` is empty).  Shared by the in-task combine path,
/// combine-before-spill, and the thread runner's per-worker combiners —
/// one lookup rule, so every layer aggregates with the same function.
Result<ReduceFn> FindCombiner(MapReduce& program,
                              const DataSetOptions& options);

}  // namespace mrs
