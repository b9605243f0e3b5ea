#include "core/mock_runner.h"

#include <numeric>
#include <vector>

#include "core/program.h"
#include "fs/file_io.h"
#include "obs/metrics.h"
#include "rng/mt19937_64.h"

namespace mrs {

namespace {

// Distinguishes the task-order stream from any stream user code derives.
constexpr uint64_t kMockOrderTag = 0x6d6f636b6f726472ull;  // "mockordr"

/// The sources of `dataset` in a seeded-shuffled execution order
/// (Fisher-Yates driven by the program's random-stream API, so the order
/// is reproducible for a given seed and dataset but is *not* 0..n-1).
std::vector<int> ShuffledTaskOrder(const MapReduce& program,
                                   const DataSet& dataset) {
  std::vector<int> order(static_cast<size_t>(dataset.num_sources()));
  std::iota(order.begin(), order.end(), 0);
  MT19937_64 rng = program.Random(
      {kMockOrderTag, static_cast<uint64_t>(dataset.id())});
  for (size_t i = order.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

}  // namespace

Status MockParallelRunner::Wait(const DataSetPtr& dataset) {
  return Compute(dataset);
}

Status MockParallelRunner::Compute(const DataSetPtr& dataset) {
  if (dataset->Complete() && !dataset->IsSourceData()) {
    // Already computed (possibly persisted + evicted).
    return Status::Ok();
  }
  if (dataset->IsSourceData()) return Status::Ok();
  MRS_RETURN_IF_ERROR(Compute(dataset->input()));

  std::string ds_dir =
      JoinPath(tmpdir_, "dataset_" + std::to_string(dataset->id()));
  MRS_RETURN_IF_ERROR(EnsureDir(ds_dir));

  static obs::Counter* tasks =
      obs::Registry::Instance().GetCounter("mrs.mock.tasks");
  // Tasks run in a seeded shuffled order: a correct program must not
  // depend on task execution order (in the master/slave and thread
  // implementations it is nondeterministic), and running them shuffled —
  // but reproducibly — flushes out such bugs during debugging.
  for (int source : ShuffledTaskOrder(*program_, *dataset)) {
    // A task that failed in an earlier Wait runs again.
    if (dataset->task_state(source) == TaskState::kFailed) {
      dataset->ResetTask(source);
    }
    if (!dataset->TryClaimTask(source)) continue;
    Result<std::vector<Bucket>> row = ExecuteTask(
        *program_, TaskSpec::For(*dataset, source),
        TaskInput::Column(*dataset->input(), source),
        TaskEnv{.name = "mock"});
    if (!row.ok()) {
      dataset->set_task_state(source, TaskState::kFailed);
      return row.status();
    }
    // Persist each bucket, then drop its records: downstream tasks must
    // read the files, as a distributed fault-tolerant run would.  A
    // spilled bucket is already disk-backed by its runs — persisting it
    // again would defeat the memory bound it exists to honor.
    for (int p = 0; p < dataset->num_splits(); ++p) {
      Bucket& b = (*row)[static_cast<size_t>(p)];
      if (b.spilled()) continue;
      std::string path = JoinPath(
          ds_dir, "source_" + std::to_string(source) + "_split_" +
                      std::to_string(p) + ".mrsb");
      MRS_RETURN_IF_ERROR(b.PersistToFile(path));
      b.Evict();
    }
    dataset->SetRow(source, std::move(row).value());
    tasks->Inc();
  }
  return Status::Ok();
}

void MockParallelRunner::Discard(const DataSetPtr& dataset) {
  RemoveTree(JoinPath(tmpdir_, "dataset_" + std::to_string(dataset->id())));
  Runner::Discard(dataset);
}

}  // namespace mrs
