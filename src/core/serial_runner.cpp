#include "core/serial_runner.h"

#include "core/program.h"
#include "obs/metrics.h"

namespace mrs {

Status SerialRunner::Wait(const DataSetPtr& dataset) {
  return Compute(dataset);
}

Status SerialRunner::Compute(const DataSetPtr& dataset) {
  if (dataset->Complete()) return Status::Ok();
  if (dataset->IsSourceData()) return Status::Ok();  // complete at creation
  MRS_RETURN_IF_ERROR(Compute(dataset->input()));

  static obs::Counter* tasks =
      obs::Registry::Instance().GetCounter("mrs.serial.tasks");
  for (int source = 0; source < dataset->num_sources(); ++source) {
    // A task that failed in an earlier Wait runs again.
    if (dataset->task_state(source) == TaskState::kFailed) {
      dataset->ResetTask(source);
    }
    if (!dataset->TryClaimTask(source)) continue;
    Result<std::vector<Bucket>> row = ExecuteTask(
        *program_, TaskSpec::For(*dataset, source),
        TaskInput::Column(*dataset->input(), source),
        TaskEnv{.name = "serial"});
    if (!row.ok()) {
      dataset->set_task_state(source, TaskState::kFailed);
      return row.status();
    }
    dataset->SetRow(source, std::move(row).value());
    tasks->Inc();
  }
  return Status::Ok();
}

}  // namespace mrs
