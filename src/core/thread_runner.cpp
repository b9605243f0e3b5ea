#include "core/thread_runner.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/program.h"
#include "core/task.h"
#include "fs/spill.h"
#include "obs/metrics.h"

namespace mrs {

namespace {

/// A worker combine buffer flushes once it holds this many records.  Big
/// enough that a flush amortizes its sort, small enough that a reduce's
/// input does not pool on one worker.
constexpr size_t kCombineFlushRecords = 32768;

obs::Counter* TasksCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.thread.tasks");
  return c;
}
obs::Counter* DepositCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.shuffle.deposits");
  return c;
}
obs::Counter* CombineInCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.shuffle.combine_in");
  return c;
}
obs::Counter* CombineOutCounter() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.shuffle.combine_out");
  return c;
}
obs::Histogram* LockWaitHistogram() {
  static obs::Histogram* h =
      obs::Registry::Instance().GetHistogram("mrs.shuffle.lock_wait_s");
  return h;
}

/// Acquire a stripe lock, recording the wait in the contended case only:
/// the uncontended fast path stays a single try_lock, and the
/// "mrs.shuffle.lock_wait_s" histogram reads as a pure contention signal.
std::unique_lock<std::mutex> LockStripe(std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    if (obs::MetricsEnabled()) {
      Stopwatch watch;
      lock.lock();
      LockWaitHistogram()->Observe(watch.ElapsedSeconds());
    } else {
      lock.lock();
    }
  }
  return lock;
}

/// Sharded, lock-striped shuffle staging area between two adjacent
/// pipeline stages, with one countdown of outstanding upstream arrivals.
/// Upstream tasks Deposit their output buckets as soon as they finish
/// (possibly many at once, hence the stripe locks) and then arrive; once
/// the count reaches zero, every split's input is staged.
/// A downstream task Takes its split merged in source-index order —
/// exactly the order TaskInput::Column produces for the serial runner,
/// which is what keeps order-sensitive (map) consumers byte-identical.
class ShuffleBoard {
 public:
  ShuffleBoard(int num_splits, int expected)
      : pending_(static_cast<size_t>(num_splits)), remaining_(expected) {}

  /// Stage a copy of an upstream output bucket.  Spilled buckets carry
  /// their run metadata instead of records, so staging one costs no
  /// memory — the consumer streams the runs from disk.
  void Deposit(int source, int split, Bucket bucket) {
    Slot slot{source, std::move(bucket)};
    {
      std::unique_lock<std::mutex> lock = LockStripe(stripes_[StripeOf(split)]);
      pending_[static_cast<size_t>(split)].push_back(std::move(slot));
    }
    DepositCounter()->Inc();
  }

  /// Record `n` completed arrivals; true for the one call that takes the
  /// count to zero, after which every split's input is staged.
  bool ArriveAll(int n) {
    return remaining_.fetch_sub(n, std::memory_order_acq_rel) == n;
  }

  /// All staged buckets for `split`, in source order.  Destructive: each
  /// split is taken exactly once, by its consumer task.
  std::vector<Bucket> Take(int split) {
    std::vector<Slot> slots;
    {
      std::unique_lock<std::mutex> lock = LockStripe(stripes_[StripeOf(split)]);
      slots.swap(pending_[static_cast<size_t>(split)]);
    }
    std::sort(slots.begin(), slots.end(),
              [](const Slot& a, const Slot& b) { return a.source < b.source; });
    std::vector<Bucket> out;
    out.reserve(slots.size());
    for (Slot& s : slots) out.push_back(std::move(s.bucket));
    return out;
  }

 private:
  struct Slot {
    int source;
    Bucket bucket;
  };

  static constexpr size_t kStripes = 16;
  size_t StripeOf(int split) const {
    return static_cast<size_t>(split) % kStripes;
  }

  std::vector<std::vector<Slot>> pending_;  // per destination split
  std::atomic<int> remaining_;
  std::array<std::mutex, kStripes> stripes_;
};

}  // namespace

/// Records a worker accumulated from the map rows it produced, waiting to
/// be combined and deposited as one bucket per destination split.  `units`
/// counts the upstream arrivals this buffer withholds until its flush.
struct ThreadRunner::CombineBuffer {
  std::vector<std::vector<KeyValue>> per_split;
  size_t records = 0;
  int units = 0;
};

/// One dataset of the chain under execution.
struct ThreadRunner::Stage {
  explicit Stage(DataSetPtr dataset) : ds(std::move(dataset)) {}

  DataSetPtr ds;
  Stage* downstream = nullptr;
  Stage* upstream = nullptr;
  /// Staged input deposited by the upstream stage (owns the countdown
  /// gating this stage's tasks); null for the first stage, whose tasks
  /// read their (already complete) input directly.
  std::unique_ptr<ShuffleBoard> board;
  /// Sources still to execute (tasks already complete are excluded).
  std::vector<int> pending;
  /// This stage's tasks not yet completed; the body that takes it to zero
  /// closes the stage (flushes downstream combine buffers).
  std::atomic<int> bodies_remaining{0};
  /// Source ids for worker combine flushes, whose deposits do not
  /// correspond to one upstream task row; starts past the real source
  /// range.
  std::atomic<int> next_synth_source{0};
  /// Worker-side combining of this stage's input edge: set when this
  /// stage is a reduce fed by a combiner-equipped map and no memory
  /// budget is active.
  ReduceFn combiner;
  std::vector<std::unique_ptr<CombineBuffer>> buffers;  // one per worker

  bool combining() const { return static_cast<bool>(combiner); }
};

/// Book-keeping shared by every work unit of one Wait call.
struct ThreadRunner::ChainContext {
  std::mutex mu;
  std::condition_variable cv;
  Status error;                    // guarded by mu
  std::atomic<bool> failed{false};
  std::atomic<int> outstanding{0};
  std::vector<std::unique_ptr<Stage>> stages;
};

ThreadRunner::ThreadRunner(MapReduce* program, int num_workers)
    : program_(program) {
  if (num_workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    num_workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  pool_ = std::make_unique<WorkStealingPool>(static_cast<size_t>(num_workers));
}

ThreadRunner::~ThreadRunner() { pool_->Shutdown(); }

Status ThreadRunner::Wait(const DataSetPtr& dataset) {
  if (!dataset) return InvalidArgumentError("null dataset");
  if (dataset->IsSourceData() || dataset->Complete()) return Status::Ok();
  return RunChain(dataset);
}

Status ThreadRunner::RunChain(const DataSetPtr& dataset) {
  // Deepest incomplete dataset first; the first stage's input is complete
  // (or source data) by construction.
  std::vector<DataSetPtr> chain;
  for (DataSetPtr ds = dataset; ds && !ds->IsSourceData() && !ds->Complete();
       ds = ds->input()) {
    chain.push_back(ds);
  }
  if (chain.empty()) return Status::Ok();
  std::reverse(chain.begin(), chain.end());

  auto ctx = std::make_shared<ChainContext>();
  ctx->stages.reserve(chain.size());
  for (DataSetPtr& ds : chain) {
    ctx->stages.push_back(std::make_unique<Stage>(std::move(ds)));
  }

  int total = 0;
  for (const std::unique_ptr<Stage>& stage : ctx->stages) {
    DataSet& ds = *stage->ds;
    for (int s = 0; s < ds.num_sources(); ++s) {
      TaskState state = ds.task_state(s);
      if (state == TaskState::kComplete) continue;
      // Stale kRunning/kFailed states from an earlier failed run.
      if (state != TaskState::kPending) ds.ResetTask(s);
      stage->pending.push_back(s);
    }
    stage->bodies_remaining.store(static_cast<int>(stage->pending.size()),
                                  std::memory_order_relaxed);
    total += static_cast<int>(stage->pending.size());
  }

  for (size_t k = 1; k < ctx->stages.size(); ++k) {
    Stage* stage = ctx->stages[k].get();
    Stage* up = ctx->stages[k - 1].get();
    up->downstream = stage;
    stage->upstream = up;
    DataSet& uds = *up->ds;
    // The chain holds only incomplete datasets, so `up` has at least one
    // pending task and this countdown is never born at zero.
    stage->board = std::make_unique<ShuffleBoard>(
        uds.num_splits(), static_cast<int>(up->pending.size()));
    stage->next_synth_source.store(uds.num_sources(),
                                   std::memory_order_relaxed);
    // Rows the upstream dataset already has (re-runs after a failure)
    // are staged up front; live tasks deposit theirs as they complete.
    for (int s = 0; s < uds.num_sources(); ++s) {
      if (uds.task_state(s) != TaskState::kComplete) continue;
      for (int p = 0; p < uds.num_splits(); ++p) {
        stage->board->Deposit(s, p, uds.bucket(s, p));
      }
    }
    // Worker-side combining of this edge.  Only a reduce consumer may see
    // cross-task-combined input (it sorts by (key, value), so output
    // depends only on the input multiset and the combiner contract
    // reduce ∘ partial-combine = reduce); an order-sensitive map consumer
    // keeps the plain one-deposit-per-task path.  Budgeted runs also keep
    // the plain path: spilled buckets travel as run metadata, which a
    // record buffer cannot absorb.
    if (stage->ds->kind() == DataSetKind::kReduce &&
        uds.kind() == DataSetKind::kMap && uds.options().use_combiner &&
        !MemoryBudget::Process().active()) {
      Result<ReduceFn> combiner = FindCombiner(*program_, uds.options());
      if (combiner.ok()) {
        stage->combiner = *std::move(combiner);
        stage->buffers.reserve(pool_->num_threads());
        for (size_t w = 0; w < pool_->num_threads(); ++w) {
          auto buf = std::make_unique<CombineBuffer>();
          buf->per_split.resize(static_cast<size_t>(uds.num_splits()));
          stage->buffers.push_back(std::move(buf));
        }
      }
    }
  }

  if (total == 0) return Status::Ok();
  ctx->outstanding.store(total, std::memory_order_relaxed);
  Stage* first = ctx->stages.front().get();
  for (int s : first->pending) SubmitTask(ctx, first, s);

  std::unique_lock<std::mutex> lock(ctx->mu);
  ctx->cv.wait(lock, [&] {
    return ctx->outstanding.load(std::memory_order_acquire) == 0;
  });
  return ctx->failed.load(std::memory_order_acquire) ? ctx->error
                                                     : Status::Ok();
}

void ThreadRunner::SubmitTask(const std::shared_ptr<ChainContext>& ctx,
                              Stage* stage, int source) {
  if (!pool_->Submit(
          [this, ctx, stage, source] { RunTaskBody(ctx, stage, source); })) {
    // Pool shut down under us (runner being destroyed): run inline so
    // the chain's counters still drain and Wait cannot hang.
    RunTaskBody(ctx, stage, source);
  }
}

void ThreadRunner::RunTaskBody(const std::shared_ptr<ChainContext>& ctx,
                               Stage* stage, int source) {
  if (!ctx->failed.load(std::memory_order_acquire) &&
      stage->ds->TryClaimTask(source)) {
    DataSet& ds = *stage->ds;
    TaskInput input = stage->board ? TaskInput{stage->board->Take(source)}
                                   : TaskInput::Column(*ds.input(), source);
    Result<std::vector<Bucket>> row =
        ExecuteTask(*program_, TaskSpec::For(ds, source), std::move(input),
                    TaskEnv{.name = "thread"});
    if (row.ok()) {
      CompleteTask(ctx, stage, source, &*row);
    } else {
      FailTask(ctx, stage, source, row.status());
      CompleteTask(ctx, stage, source, nullptr);
    }
  } else {
    // Failure drain (or lost claim): still propagate arrivals and close
    // bookkeeping so downstream tasks get submitted and Wait cannot hang.
    CompleteTask(ctx, stage, source, nullptr);
  }
  FinishUnit(ctx);
}

void ThreadRunner::FailTask(const std::shared_ptr<ChainContext>& ctx,
                            Stage* stage, int source, Status status) {
  stage->ds->set_task_state(source, TaskState::kFailed);
  FailChain(ctx, std::move(status));
}

void ThreadRunner::FailChain(const std::shared_ptr<ChainContext>& ctx,
                             Status status) {
  std::lock_guard<std::mutex> lock(ctx->mu);
  if (!ctx->failed.exchange(true, std::memory_order_acq_rel)) {
    ctx->error = std::move(status);
  }
}

void ThreadRunner::CompleteTask(const std::shared_ptr<ChainContext>& ctx,
                                Stage* stage, int source,
                                std::vector<Bucket>* row) {
  Stage* down = stage->downstream;
  int num_splits = stage->ds->num_splits();
  if (down != nullptr) {
    bool withheld = false;
    if (row != nullptr && down->combining()) {
      int w = pool_->CurrentWorkerIndex();
      if (w >= 0) {
        CombineBuffer& buf = *down->buffers[static_cast<size_t>(w)];
        for (int p = 0; p < num_splits; ++p) {
          const std::vector<KeyValue>& recs =
              (*row)[static_cast<size_t>(p)].records();
          if (recs.empty()) continue;
          std::vector<KeyValue>& dest = buf.per_split[static_cast<size_t>(p)];
          dest.insert(dest.end(), recs.begin(), recs.end());
          buf.records += recs.size();
        }
        ++buf.units;
        withheld = true;
        if (buf.records >= kCombineFlushRecords) {
          FlushCombineBuffer(ctx, down, &buf);
        }
      }
    }
    if (!withheld) {
      if (row != nullptr) {
        // Deposit every split — an empty bucket may still carry spill-run
        // metadata, and an order-sensitive consumer merges by source.
        for (int p = 0; p < num_splits; ++p) {
          down->board->Deposit(source, p, (*row)[static_cast<size_t>(p)]);
        }
      }
      Arrive(ctx, down, 1);
    }
  }
  if (row != nullptr) {
    stage->ds->SetRow(source, std::move(*row));
    TasksCounter()->Inc();
  }
  // Stage close: the body that finishes last flushes every worker's
  // combine buffer so withheld arrivals drain.  fetch_sub's acq_rel
  // ordering makes all workers' buffer writes visible to the closer.
  if (stage->bodies_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      down != nullptr && down->combining()) {
    for (const std::unique_ptr<CombineBuffer>& buf : down->buffers) {
      FlushCombineBuffer(ctx, down, buf.get());
    }
  }
}

void ThreadRunner::Arrive(const std::shared_ptr<ChainContext>& ctx,
                          Stage* consumer, int n) {
  if (!consumer->board->ArriveAll(n)) return;
  for (int s : consumer->pending) SubmitTask(ctx, consumer, s);
}

void ThreadRunner::FlushCombineBuffer(const std::shared_ptr<ChainContext>& ctx,
                                      Stage* consumer, CombineBuffer* buf) {
  if (buf->units == 0) return;
  int held = buf->units;
  buf->units = 0;
  if (buf->records > 0) {
    CombineInCounter()->Inc(static_cast<int64_t>(buf->records));
    buf->records = 0;
    int synth =
        consumer->next_synth_source.fetch_add(1, std::memory_order_relaxed);
    int64_t out_records = 0;
    for (size_t p = 0; p < buf->per_split.size(); ++p) {
      std::vector<KeyValue>& recs = buf->per_split[p];
      if (recs.empty()) continue;
      // The combiner belongs to the upstream map: it runs under that
      // operation's broadcast, exactly as inside the map task.
      Bucket b(synth, static_cast<int>(p));
      Status combined = RunUserCode(
          consumer->upstream->ds->options(), [&]() -> Status {
            MRS_ASSIGN_OR_RETURN(*b.mutable_records(),
                                 SortGroupApply(std::move(recs),
                                                consumer->combiner));
            return Status::Ok();
          });
      recs = std::vector<KeyValue>();
      if (!combined.ok()) {
        FailChain(ctx, std::move(combined));
        continue;
      }
      out_records += static_cast<int64_t>(b.records().size());
      b.MarkLoaded();
      consumer->board->Deposit(synth, static_cast<int>(p), std::move(b));
    }
    CombineOutCounter()->Inc(out_records);
  }
  // Withheld arrivals drain even on a combiner failure so the chain
  // cannot hang.
  Arrive(ctx, consumer, held);
}

void ThreadRunner::FinishUnit(const std::shared_ptr<ChainContext>& ctx) {
  if (ctx->outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->cv.notify_all();
  }
}

}  // namespace mrs
