// The thread implementation: a true shared-memory parallel runner.
//
// Same task decomposition as every other implementation — one task per
// (dataset, source) — but map and reduce tasks execute concurrently on a
// work-stealing pool of N threads.  Determinism (paper §IV-A: all
// implementations "produce identical answers") is preserved structurally:
//
//  * the computation itself is the shared ExecuteTask funnel, and the
//    `random(...)` streams depend only on argument tuples, never on
//    scheduling;
//  * shuffle output destined for a *map* stage is deposited into
//    per-split buckets under striped locks and merged in *source-index
//    order* before the downstream task reads it, so an order-sensitive
//    map sees its input exactly as the serial runner would produce it;
//  * shuffle output destined for a *reduce* stage only needs the right
//    input multiset (the reduce kernel merges it by (key, value) before
//    grouping), which is what licenses the per-worker combiners below;
//  * a dataset's bucket grid is only written via DataSet::SetRow (one row
//    per task, internally locked).
//
// Scheduling: one countdown per stage edge.  The shuffle board between
// two stages counts the upstream arrivals still outstanding; the arrival
// that takes it to zero submits every downstream task at once.  A task
// arrives right after it deposits, before it publishes its own row, so
// the last upstream task's bookkeeping overlaps the downstream stage.
//
// Per-worker combiners: when a map stage has a combine function and its
// downstream is a reduce (and no memory budget is active), each pool
// worker accumulates the map rows it produced into a worker-local
// per-destination-split buffer and deposits one combined bucket per
// flush instead of one bucket per task — collapsing shuffle-board lock
// traffic and the record volume the reduce must sort.  Sound for the
// same reason combine-before-spill is: a combiner must satisfy
// reduce ∘ partial-combine = reduce.
//
// Map/Reduce/Combine/Partition functions run concurrently on one shared
// program instance; like a Mrs slave's forked workers they must not
// mutate shared program state (the stock workloads — WordCount, π, PSO,
// k-means — are pure).
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/runner.h"
#include "fs/bucket.h"

namespace mrs {

class MapReduce;

class ThreadRunner final : public Runner {
 public:
  /// `num_workers` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadRunner(MapReduce* program, int num_workers = 0);
  ~ThreadRunner() override;

  void Submit(const DataSetPtr& dataset) override { (void)dataset; }
  Status Wait(const DataSetPtr& dataset) override;
  UrlFetcher fetcher() override { return LocalFetch; }
  std::string name() const override { return "thread"; }

  int num_workers() const {
    return static_cast<int>(pool_->num_threads());
  }
  /// Work steals performed by this runner's pool so far (tests/benches).
  int64_t steal_count() const { return pool_->steal_count(); }

 private:
  struct ChainContext;
  struct Stage;
  struct CombineBuffer;

  /// Execute the chain of incomplete computing datasets ending at
  /// `dataset` (deepest first), submitting a stage's tasks the moment the
  /// last upstream shuffle deposit arrives.
  Status RunChain(const DataSetPtr& dataset);
  void SubmitTask(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                  int source);
  void RunTaskBody(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                   int source);
  /// Record a task failure in the dataset and the chain context.
  void FailTask(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                int source, Status status);
  /// Record the chain's first error.
  void FailChain(const std::shared_ptr<ChainContext>& ctx, Status status);
  /// Deliver a finished task's row (deposit downstream or enter a worker
  /// combine buffer, record arrivals, SetRow) and run stage-close
  /// bookkeeping.  `row` is null for failed/skipped tasks.
  void CompleteTask(const std::shared_ptr<ChainContext>& ctx, Stage* stage,
                    int source, std::vector<Bucket>* row);
  /// Record `n` deposit-arrivals on `consumer`'s board; the arrival that
  /// completes its input submits every pending task of the stage.
  void Arrive(const std::shared_ptr<ChainContext>& ctx, Stage* consumer,
              int n);
  /// Combine and deposit a worker buffer's contents, releasing its
  /// withheld arrivals.
  void FlushCombineBuffer(const std::shared_ptr<ChainContext>& ctx,
                          Stage* consumer, CombineBuffer* buf);
  void FinishUnit(const std::shared_ptr<ChainContext>& ctx);

  MapReduce* program_;
  std::unique_ptr<WorkStealingPool> pool_;
};

}  // namespace mrs
