// Tests for the thread implementation: the work-stealing pool's claim /
// steal / drain semantics, and ThreadRunner's determinism, pipelined
// multi-stage chains, and failure behavior (an exception on a worker must
// surface as a Status; a failed chain must not hang Wait; a re-Wait re-runs
// only the tasks that did not complete).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "budget_override.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "core/thread_runner.h"
#include "obs/metrics.h"
#include "ser/record.h"

namespace mrs {
namespace {

void SpinUntil(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

// ---- WorkStealingPool ----------------------------------------------------

TEST(WorkStealingPool, RunsEverySubmittedTask) {
  WorkStealingPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkStealingPool, ShutdownDrainsQueuedTasksAndRejectsNewOnes) {
  WorkStealingPool pool(2);
  std::atomic<int> ran{0};
  // Tasks slow enough that most are still queued when Shutdown is called
  // mid-job: Shutdown must run them all before joining, not drop them.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }));
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 20);
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 20);
}

TEST(WorkStealingPool, StealsFromABlockedWorker) {
  WorkStealingPool pool(2);
  // Pin both workers on gates (external submits distribute round-robin,
  // so one gate lands on each worker), then queue quick tasks behind
  // them and release only worker 0: the tasks queued on still-blocked
  // worker 1 can complete only by being stolen.
  std::atomic<bool> gate_a_running{false}, gate_b_running{false};
  std::atomic<bool> release_a{false}, release_b{false};
  ASSERT_TRUE(pool.Submit([&] {
    gate_a_running.store(true, std::memory_order_release);
    SpinUntil(release_a);
  }));
  ASSERT_TRUE(pool.Submit([&] {
    gate_b_running.store(true, std::memory_order_release);
    SpinUntil(release_b);
  }));
  SpinUntil(gate_a_running);
  SpinUntil(gate_b_running);

  std::atomic<int> quick{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(pool.Submit([&] { quick.fetch_add(1); }));
  }
  release_a.store(true, std::memory_order_release);
  while (quick.load() < 4) std::this_thread::yield();

  EXPECT_GE(pool.steal_count(), 1);
  release_b.store(true, std::memory_order_release);
  pool.Shutdown();
}

TEST(WorkStealingPool, QueueDepthGaugeTracksOutstandingTasks) {
  // The mrs.pool.queue_depth gauge must count every submitted-but-not-
  // finished task — queued AND executing, own-deque and stolen alike —
  // not just pushes onto a worker's own deque.
  obs::Gauge* gauge =
      obs::Registry::Instance().GetGauge("mrs.pool.queue_depth");
  WorkStealingPool pool(2);
  std::atomic<bool> gate_a_running{false}, gate_b_running{false};
  std::atomic<bool> release{false};
  ASSERT_TRUE(pool.Submit([&] {
    gate_a_running.store(true, std::memory_order_release);
    SpinUntil(release);
  }));
  ASSERT_TRUE(pool.Submit([&] {
    gate_b_running.store(true, std::memory_order_release);
    SpinUntil(release);
  }));
  SpinUntil(gate_a_running);
  SpinUntil(gate_b_running);
  // Both workers are pinned executing a gate, so nothing can finish:
  // outstanding = 2 executing + everything queued behind them.
  EXPECT_EQ(pool.OutstandingTasks(), 2u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pool.Submit([] {}));
  }
  EXPECT_EQ(pool.OutstandingTasks(), 7u);
  EXPECT_EQ(gauge->value(), 7);
  release.store(true, std::memory_order_release);
  pool.Shutdown();
  EXPECT_EQ(pool.OutstandingTasks(), 0u);
  EXPECT_EQ(gauge->value(), 0);
}

TEST(WorkStealingPool, QueueDepthGaugeSumsOverPools) {
  // Every HttpServer owns a pool next to ThreadRunner's, so the process
  // gauge must be the sum over pools, not the last pool to write it.
  obs::Gauge* gauge =
      obs::Registry::Instance().GetGauge("mrs.pool.queue_depth");
  double base = gauge->value();
  std::atomic<bool> release_first{false}, release_second{false};
  std::atomic<int> running{0};
  WorkStealingPool first(1);
  WorkStealingPool second(1);
  ASSERT_TRUE(first.Submit([&] {
    running.fetch_add(1);
    SpinUntil(release_first);
  }));
  ASSERT_TRUE(second.Submit([&] {
    running.fetch_add(1);
    SpinUntil(release_second);
  }));
  while (running.load() < 2) std::this_thread::yield();
  // Each pool's single worker is pinned, so these two stay queued: first
  // holds 1 running + 2 queued, second 1 running.
  ASSERT_TRUE(first.Submit([] {}));
  ASSERT_TRUE(first.Submit([] {}));
  EXPECT_EQ(gauge->value() - base, 4);
  release_first.store(true, std::memory_order_release);
  first.Shutdown();
  EXPECT_EQ(gauge->value() - base, 1);
  release_second.store(true, std::memory_order_release);
  second.Shutdown();
  EXPECT_EQ(gauge->value() - base, 0);
}

TEST(WorkStealingPool, TasksSubmittedFromWorkersRun) {
  WorkStealingPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.Submit([&, i] {
      // Submitted from a worker, so it lands on this worker's own deque;
      // the pool is still open (Shutdown comes after the spin below).
      if (i % 2 == 0) EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
      ran.fetch_add(1);
    }));
  }
  while (ran.load() < 12) std::this_thread::yield();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 12);
}

// ---- ThreadRunner workloads ----------------------------------------------

class ThreadedWordCount : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    for (std::string_view word : SplitWhitespace(value.AsString())) {
      emit(Value(word), Value(int64_t{1}));
    }
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    emit(Value(sum));
  }
};

std::vector<KeyValue> WordInput(int lines) {
  static const char* kWords[] = {"steal", "queue",  "worker", "split",
                                 "merge", "bucket", "deque",  "task"};
  std::vector<KeyValue> records;
  for (int64_t i = 0; i < lines; ++i) {
    std::string line;
    for (int64_t j = 0; j < 5; ++j) {
      if (j) line += ' ';
      line += kWords[(i * 5 + j * 3) % 8];
    }
    records.push_back({Value(i), Value(line)});
  }
  return records;
}

/// Sorted text encoding of a map→reduce run under `runner`.
template <typename RunnerT, typename... Args>
std::string RunWordCount(ThreadedWordCount* program, int parallelism,
                         Args&&... args) {
  Job job(program,
          std::make_unique<RunnerT>(program, std::forward<Args>(args)...));
  job.set_default_parallelism(parallelism);
  DataSetPtr input = job.LocalData(WordInput(60));
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return "<error>";
  std::sort(out->begin(), out->end(), KeyValueLess);
  return EncodeTextRecords(*out);
}

TEST(ThreadRunner, MatchesSerialForEveryWorkerCount) {
  ThreadedWordCount serial_program;
  ASSERT_TRUE(serial_program.Init(Options()).ok());
  std::string expected =
      RunWordCount<SerialRunner>(&serial_program, /*parallelism=*/6);
  for (int workers : {1, 2, 4, 7}) {
    ThreadedWordCount program;
    ASSERT_TRUE(program.Init(Options()).ok());
    EXPECT_EQ(RunWordCount<ThreadRunner>(&program, /*parallelism=*/6, workers),
              expected)
        << "workers=" << workers;
  }
}

TEST(ThreadRunner, MultiStageChainRunsInOneWait) {
  // map → reduce → map, all lazy, resolved by a single Collect: the chain
  // executor must pipeline shuffle deposits across both boundaries.
  ThreadedWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  program.RegisterMap("tag", [](const Value& k, const Value& v,
                                const Emitter& e) {
    e(Value(std::string(k.AsString()) + "!"), v);
  });

  auto run = [&](std::unique_ptr<Runner> runner) {
    Job job(&program, std::move(runner));
    job.set_default_parallelism(5);
    DataSetPtr input = job.LocalData(WordInput(40));
    DataSetPtr mapped = job.MapData(input);
    DataSetPtr reduced = job.ReduceData(mapped);
    DataSetOptions tag;
    tag.op_name = "tag";
    DataSetPtr tagged = job.MapData(reduced, tag);
    auto out = job.Collect(tagged);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    std::sort(out->begin(), out->end(), KeyValueLess);
    return EncodeTextRecords(*out);
  };

  std::string expected = run(std::make_unique<SerialRunner>(&program));
  EXPECT_NE(expected.find("task!"), std::string::npos);
  EXPECT_EQ(run(std::make_unique<ThreadRunner>(&program, 4)), expected);
}

// A map whose cost is wildly skewed: the "blocker" record spins until
// every other map task has finished, so the worker that claims it is
// pinned and the remaining tasks can only proceed on (or be stolen by)
// the other workers.  Completion proves the pool schedules around a
// pinned worker.
class SkewedMap : public MapReduce {
 public:
  std::atomic<int> quick_done{0};
  int num_quick = 0;

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    if (value.AsString() == "blocker") {
      while (quick_done.load(std::memory_order_acquire) < num_quick) {
        std::this_thread::yield();
      }
    } else {
      quick_done.fetch_add(1, std::memory_order_acq_rel);
    }
    emit(value, Value(int64_t{1}));
  }
  // Route key i to split i so each record is its own map task.
  int Partition(const Value& key, int num_splits) const override {
    if (key.is_int()) return static_cast<int>(key.AsInt() % num_splits);
    return MapReduce::Partition(key, num_splits);
  }
};

TEST(ThreadRunner, SkewedTaskCostsDoNotStallTheJob) {
  SkewedMap program;
  ASSERT_TRUE(program.Init(Options()).ok());
  constexpr int kTasks = 8;
  program.num_quick = kTasks - 1;
  std::vector<KeyValue> records;
  for (int64_t i = 0; i < kTasks; ++i) {
    records.push_back({Value(i), Value(i == 3 ? "blocker" : "quick")});
  }
  Job job(&program, std::make_unique<ThreadRunner>(&program, 2));
  DataSetPtr input = job.LocalData(std::move(records), kTasks);
  DataSetPtr mapped = job.MapData(input);
  auto out = job.Collect(mapped);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), static_cast<size_t>(kTasks));
  EXPECT_EQ(program.quick_done.load(), kTasks - 1);
}

// ---- Failure propagation -------------------------------------------------

class ThrowingNonStdMap : public ThreadedWordCount {
 public:
  void Map(const Value&, const Value&, const Emitter&) override {
    throw 42;  // not derived from std::exception
  }
};

TEST(ThreadRunner, NonStandardExceptionAlsoBecomesStatus) {
  ThrowingNonStdMap program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<ThreadRunner>(&program, 2));
  job.set_default_parallelism(2);
  DataSetPtr mapped = job.MapData(job.LocalData(WordInput(4)));
  Status status = job.Wait(mapped);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("non-standard exception"),
            std::string::npos)
      << status.ToString();
}

// ---- Re-running after a partial failure ---------------------------------

// One map task of four throws on its first attempt, after waiting for the
// other three rows to complete, so the failed Wait leaves a partially
// complete map dataset behind.
class FlakyMapWordCount : public ThreadedWordCount {
 public:
  static constexpr int kSources = 4;
  static constexpr int kFlaky = 3;

  std::atomic<bool> armed{true};
  std::atomic<const DataSet*> mapped{nullptr};
  std::array<std::atomic<int>, kSources> calls{};

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    int source = static_cast<int>(key.AsInt() % kSources);
    calls[static_cast<size_t>(source)].fetch_add(1);
    if (source == kFlaky && armed.load(std::memory_order_acquire)) {
      const DataSet& ds = *mapped.load(std::memory_order_acquire);
      auto others_complete = [&] {
        for (int s = 0; s < kSources; ++s) {
          if (s != kFlaky && ds.task_state(s) != TaskState::kComplete) {
            return false;
          }
        }
        return true;
      };
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!others_complete() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      throw std::runtime_error("flaky map task");
    }
    ThreadedWordCount::Map(key, value, emit);
  }
  // Int key i goes to split i % num_splits, so map task s reads exactly
  // the records whose key is s mod kSources.
  int Partition(const Value& key, int num_splits) const override {
    if (key.is_int()) return static_cast<int>(key.AsInt() % num_splits);
    return MapReduce::Partition(key, num_splits);
  }
};

/// input → map (kSources tasks) → reduce on `job`.
DataSetPtr FlakyChain(Job& job, FlakyMapWordCount* program) {
  job.set_default_parallelism(3);
  DataSetPtr input =
      job.LocalData(WordInput(40), FlakyMapWordCount::kSources);
  DataSetPtr mapped = job.MapData(input);
  program->mapped.store(mapped.get(), std::memory_order_release);
  return job.ReduceData(mapped);
}

// The re-Wait stages the three complete map rows on the reduce's board up
// front and counts down only the re-run task: the output matches serial
// byte for byte and no completed map task runs again.
TEST(ThreadRunner, ReWaitAfterPartialMapFailureMatchesSerial) {
  FlakyMapWordCount serial_program;
  serial_program.armed.store(false);
  ASSERT_TRUE(serial_program.Init(Options()).ok());
  Job serial_job(&serial_program,
                 std::make_unique<SerialRunner>(&serial_program));
  auto expected =
      serial_job.Collect(FlakyChain(serial_job, &serial_program));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    FlakyMapWordCount program;
    ASSERT_TRUE(program.Init(Options()).ok());
    Job job(&program, std::make_unique<ThreadRunner>(&program, workers));
    DataSetPtr reduced = FlakyChain(job, &program);
    Status first = job.Wait(reduced);
    ASSERT_FALSE(first.ok());
    EXPECT_NE(first.ToString().find("flaky map task"), std::string::npos)
        << first.ToString();

    const DataSet& mapped = *reduced->input();
    std::array<int, FlakyMapWordCount::kSources> after_failure{};
    for (int s = 0; s < FlakyMapWordCount::kSources; ++s) {
      EXPECT_EQ(mapped.task_state(s) == TaskState::kComplete,
                s != FlakyMapWordCount::kFlaky)
          << "map task " << s;
      after_failure[static_cast<size_t>(s)] =
          program.calls[static_cast<size_t>(s)].load();
    }

    program.armed.store(false, std::memory_order_release);
    auto out = job.Collect(reduced);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(EncodeTextRecords(*out), EncodeTextRecords(*expected));

    for (int s = 0; s < FlakyMapWordCount::kSources; ++s) {
      int once = serial_program.calls[static_cast<size_t>(s)].load();
      int ran = program.calls[static_cast<size_t>(s)].load();
      if (s == FlakyMapWordCount::kFlaky) {
        // One call on the failed attempt (it throws on its first record),
        // then the full re-run.
        EXPECT_EQ(ran, once + 1);
      } else {
        EXPECT_EQ(after_failure[static_cast<size_t>(s)], once);
        EXPECT_EQ(ran, once) << "completed map task " << s << " ran again";
      }
    }
  }
}

// Every map task emits copies of one pair of shared heap payloads (a long
// string and a list), and the identity reduce copies them again, so all
// workers bump and drop the same refcounts at once.  Under TSan this is
// the race check for Value's shared blocks.
class SharedPayloadFanOut : public MapReduce {
 public:
  const Value text{std::string(200, 'p')};
  const Value list{ValueList{Value(std::string(40, 'q')), Value(int64_t{7})}};

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)value;
    for (int i = 0; i < 50; ++i) {
      emit(Value(key.AsInt() % 5), text);
      emit(Value(key.AsInt() % 5), list);
    }
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    for (const Value& v : values) emit(v);
  }
};

TEST(ThreadRunner, SharedPayloadCopiesCrossWorkers) {
  BudgetOverride no_budget(0);  // keep the shuffle in memory
  SharedPayloadFanOut program;
  ASSERT_TRUE(program.Init(Options()).ok());
  std::vector<KeyValue> input;
  for (int64_t i = 0; i < 40; ++i) input.push_back({Value(i), Value(i)});

  Job job(&program, std::make_unique<ThreadRunner>(&program, 4));
  job.set_default_parallelism(8);
  auto out = job.Collect(job.ReduceData(job.MapData(job.LocalData(input))));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 40u * 100u);
  for (const KeyValue& kv : *out) {
    // Never copied on the way: every record still shares the program's
    // blocks.
    if (kv.value.is_list()) {
      EXPECT_EQ(&kv.value.AsList(), &program.list.AsList());
    } else {
      EXPECT_EQ(kv.value.AsString().data(), program.text.AsString().data());
    }
  }
  out->clear();
  EXPECT_EQ(program.text.AsString(), std::string(200, 'p'));
  EXPECT_EQ(program.list.AsList()[0].AsString(), std::string(40, 'q'));
}

}  // namespace
}  // namespace mrs
