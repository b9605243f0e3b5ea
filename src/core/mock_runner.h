// The mock parallel implementation: "splits work into the same tasks as
// would be run in the master/slave implementation but performs all
// computation on a single processor.  Intermediate data between tasks is
// saved to files which can be helpful for debugging" (paper §IV-A).
//
// Every completed task row is persisted into the run's tmpdir and evicted
// from memory, so all downstream reads exercise the file path — exactly
// the data movement a fault-tolerant distributed run performs, minus the
// network.
//
// Tasks within a dataset execute in a seeded shuffled order (derived from
// the program seed and dataset id), approximating the out-of-order
// completion of a real cluster while staying fully reproducible.  For
// actual concurrency, use ThreadRunner.
#pragma once

#include <string>

#include "core/runner.h"

namespace mrs {

class MapReduce;

class MockParallelRunner final : public Runner {
 public:
  /// `tmpdir` must exist; intermediate data goes to
  /// `<tmpdir>/dataset_<id>/source_<s>_split_<p>.mrsb`.
  MockParallelRunner(MapReduce* program, std::string tmpdir)
      : program_(program), tmpdir_(std::move(tmpdir)) {}

  void Submit(const DataSetPtr& dataset) override { (void)dataset; }
  Status Wait(const DataSetPtr& dataset) override;
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override { return "mockparallel"; }
  void Discard(const DataSetPtr& dataset) override;

  const std::string& tmpdir() const { return tmpdir_; }

 private:
  Status Compute(const DataSetPtr& dataset);

  MapReduce* program_;
  std::string tmpdir_;
};

}  // namespace mrs
