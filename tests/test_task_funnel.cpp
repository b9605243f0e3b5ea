// Tests for the task-execution funnel (core/task.h ExecuteTask).  Every
// runner — serial, mock parallel, thread, master/slave — runs its tasks
// through it, so user exceptions, broadcast scopes, spill directories and
// spill-run lifetimes must behave the same on all of them; so must a
// Collect that streams the spilled output the funnel leaves behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/job.h"
#include "core/mock_runner.h"
#include "core/serial_runner.h"
#include "core/thread_runner.h"
#include "fs/file_io.h"
#include "fs/spill.h"
#include "rt/cluster.h"
#include "ser/record.h"

#include "budget_override.h"

namespace mrs {
namespace {

namespace fs = std::filesystem;

class WordCount : public MapReduce {
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
  void Combine(const Value& key, const ValueList& values,
               const ValueEmitter& emit) override {
    Reduce(key, values, emit);
  }
};

std::vector<KeyValue> WordInput(int lines) {
  static const char* kWords[] = {"funnel", "span",  "spill", "scope",
                                 "guard",  "merge", "run",   "task"};
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

/// Builds the runner named by the test parameter; owns the in-process
/// cluster (masterslave) or scratch directory (mockparallel) behind it.
class FunnelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override {
    if (cluster_) cluster_->Shutdown();
    if (!tmpdir_.empty()) RemoveTree(tmpdir_);
  }

  std::unique_ptr<Runner> MakeRunner(MapReduce* program,
                                     const ProgramFactory& factory) {
    const std::string& impl = GetParam();
    if (impl == "serial") return std::make_unique<SerialRunner>(program);
    if (impl == "mockparallel") {
      Result<std::string> dir = MakeTempDir("mrs_funnel_mock_");
      EXPECT_TRUE(dir.ok()) << dir.status().ToString();
      tmpdir_ = *dir;
      return std::make_unique<MockParallelRunner>(program, tmpdir_);
    }
    if (impl == "thread") return std::make_unique<ThreadRunner>(program, 4);
    ClusterLauncher::Config config;
    config.num_slaves = 2;
    auto cluster = ClusterLauncher::Start(factory, Options(), config);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    return std::make_unique<MasterRunner>(&cluster_->master());
  }

  std::unique_ptr<ClusterLauncher> cluster_;
  std::string tmpdir_;
};

std::string ParamName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

// ---- User exceptions -------------------------------------------------------

class ThrowingWordCount : public WordCount {
 public:
  std::atomic<bool> armed{true};

  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    if (armed.load(std::memory_order_acquire)) {
      throw std::runtime_error("map exploded");
    }
    WordCount::Map(key, value, emit);
  }
};

std::string SerialWordCount(int lines) {
  WordCount program;
  EXPECT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<SerialRunner>(&program));
  job.set_default_parallelism(4);
  auto out =
      job.Collect(job.ReduceData(job.MapData(job.LocalData(WordInput(lines)))));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::sort(out->begin(), out->end(), KeyValueLess);
  return EncodeTextRecords(*out);
}

using UserExceptions = FunnelTest;

// An exception escaping user code fails the task on every runner: Wait
// returns it as a Status (the process survives), and on the local runners
// a disarmed re-Wait re-executes the failed tasks.
TEST_P(UserExceptions, FailTheTaskOnEveryRunner) {
  ThrowingWordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program,
          MakeRunner(&program, [] {
            return std::unique_ptr<MapReduce>(new ThrowingWordCount());
          }));
  job.set_default_parallelism(4);
  DataSetPtr mapped = job.MapData(job.LocalData(WordInput(20)));
  // Chain through a reduce: downstream tasks must still drain (not hang)
  // when every upstream map fails.
  DataSetPtr reduced = job.ReduceData(mapped);
  Status status = job.Wait(reduced);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("map exploded"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("uncaught exception"), std::string::npos)
      << status.ToString();
  // The master fails the whole job once a task exhausts its attempts.
  if (GetParam() == "masterslave") return;

  program.armed.store(false, std::memory_order_release);
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::sort(out->begin(), out->end(), KeyValueLess);
  EXPECT_EQ(EncodeTextRecords(*out), SerialWordCount(20));
}

INSTANTIATE_TEST_SUITE_P(AllRunners, UserExceptions,
                         ::testing::Values("serial", "mockparallel", "thread",
                                           "masterslave"),
                         ParamName);

// ---- Broadcast scope around combiners --------------------------------------

/// A combiner that only produces the right count when it sees the map
/// operation's broadcast; without it every combined value is poisoned.
class BroadcastCombineCount : public WordCount {
 public:
  void Combine(const Value& key, const ValueList& values,
               const ValueEmitter& emit) override {
    (void)key;
    int64_t sum = 0;
    for (const Value& v : values) sum += v.AsInt();
    bool scoped = HasBroadcast() && Broadcast().AsInt() == 7;
    emit(Value(scoped ? sum : int64_t{-1000000}));
  }
};

/// WordCount with a broadcast-reading combiner; returns the map output
/// (`map_only`) or the reduce output, in collect order.
std::string RunBroadcastCombine(std::unique_ptr<Runner> (*make)(MapReduce*),
                                bool map_only) {
  BroadcastCombineCount program;
  EXPECT_TRUE(program.Init(Options()).ok());
  Job job(&program, make(&program));
  job.set_default_parallelism(4);
  DataSetOptions options;
  options.use_combiner = true;
  options.broadcast = std::make_shared<const Value>(Value(int64_t{7}));
  DataSetPtr mapped = job.MapData(job.LocalData(WordInput(200)), options);
  auto out = job.Collect(map_only ? mapped : job.ReduceData(mapped));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return EncodeTextRecords(*out);
}

std::unique_ptr<Runner> Serial(MapReduce* p) {
  return std::make_unique<SerialRunner>(p);
}
std::unique_ptr<Runner> ThreadWorkerCombiners(MapReduce* p) {
  return std::make_unique<ThreadRunner>(p, 4);
}

// The thread runner's per-worker combine flush runs the combiner outside
// the map task, and a map-only job combines inside it; both must see the
// map's broadcast and stay byte-identical to serial.
TEST(Funnel, CombinersSeeTheBroadcastOnTheThreadRunner) {
  // Worker combiners only run without a memory budget.
  BudgetOverride unbudgeted(0);
  std::string serial_reduce = RunBroadcastCombine(Serial, false);
  std::string serial_map = RunBroadcastCombine(Serial, true);
  EXPECT_EQ(serial_reduce.find("-1000000"), std::string::npos);
  EXPECT_EQ(serial_map.find("-1000000"), std::string::npos);
  EXPECT_EQ(RunBroadcastCombine(ThreadWorkerCombiners, false), serial_reduce);
  EXPECT_EQ(RunBroadcastCombine(ThreadWorkerCombiners, true), serial_map);
}

// ---- Spill directories and run lifetimes -----------------------------------

// A task whose spill directory cannot be created fails instead of running
// without the memory bound it was given.  Runs in a fresh child process so
// SpillRoot() has not cached a root yet.
TEST(Funnel, UncreatableSpillDirectoryFailsTheTask) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Result<std::string> dir = MakeTempDir("mrs_funnel_tmpdir_");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  std::string not_a_dir = JoinPath(*dir, "regular_file");
  ASSERT_TRUE(WriteFileAtomic(not_a_dir, "x").ok());
  EXPECT_EXIT(
      {
        setenv("TMPDIR", not_a_dir.c_str(), 1);
        MemoryBudget::Process().set_limit(1);
        WordCount program;
        (void)program.Init(Options());
        Job job(&program, std::make_unique<SerialRunner>(&program));
        Status status = job.Wait(
            job.ReduceData(job.MapData(job.LocalData(WordInput(20)))));
        std::fprintf(stderr, "wait: %s\n", status.ToString().c_str());
        std::_Exit(status.ok() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "wait: .*mkdtemp");
  RemoveTree(*dir);
}

std::vector<std::string> RunFiles(const DataSet& ds) {
  std::vector<std::string> paths;
  for (int s = 0; s < ds.num_sources(); ++s) {
    for (int p = 0; p < ds.num_splits(); ++p) {
      for (const SpillRun& run : ds.bucket(s, p).spill_runs()) {
        paths.push_back(run.path);
      }
    }
  }
  return paths;
}

using SpillRunLifetime = FunnelTest;

// Job::Discard deletes a dataset's spill runs on every runner.
TEST_P(SpillRunLifetime, DiscardDeletesRunFiles) {
  BudgetOverride tiny(1);
  WordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, MakeRunner(&program, nullptr));
  job.set_default_parallelism(4);
  DataSetPtr mapped = job.MapData(job.LocalData(WordInput(200)));
  DataSetPtr reduced = job.ReduceData(mapped);
  ASSERT_TRUE(job.Wait(reduced).ok());
  std::vector<std::string> runs = RunFiles(*mapped);
  for (const std::string& path : RunFiles(*reduced)) runs.push_back(path);
  ASSERT_FALSE(runs.empty());
  for (const std::string& path : runs) EXPECT_TRUE(fs::exists(path)) << path;
  job.Discard(mapped);
  job.Discard(reduced);
  for (const std::string& path : runs) EXPECT_FALSE(fs::exists(path)) << path;
}

INSTANTIATE_TEST_SUITE_P(LocalRunners, SpillRunLifetime,
                         ::testing::Values("serial", "mockparallel", "thread"),
                         ParamName);

using StagedInputRuns = FunnelTest;

// Under a budget a reduce stages every fetched input bucket as a sorted
// run before the merge; the funnel deletes those runs once it is done.
TEST_P(StagedInputRuns, AreDeletedAfterTheMerge) {
  BudgetOverride tiny(1);
  WordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, MakeRunner(&program, [] {
            return std::unique_ptr<MapReduce>(new WordCount());
          }));
  job.set_default_parallelism(4);
  auto out =
      job.Collect(job.ReduceData(job.MapData(job.LocalData(WordInput(200)))));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::sort(out->begin(), out->end(), KeyValueLess);
  EXPECT_EQ(EncodeTextRecords(*out), SerialWordCount(200));

  Result<std::string> root = SpillRoot();
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  for (const auto& entry : fs::recursive_directory_iterator(*root)) {
    EXPECT_FALSE(StartsWith(entry.path().filename().string(), "input_run"))
        << entry.path();
  }
}

INSTANTIATE_TEST_SUITE_P(UrlBackedInputs, StagedInputRuns,
                         ::testing::Values("mockparallel", "masterslave"),
                         ParamName);

// ---- Collect streams spilled buckets ---------------------------------------

/// Lines of words that never repeat, so every reduce emits one record per
/// input word: enough output for a tiny budget to spill it.
std::vector<KeyValue> DistinctWordInput(int lines) {
  std::vector<KeyValue> records;
  for (int64_t i = 0; i < lines; ++i) {
    std::string line;
    for (int64_t j = 0; j < 5; ++j) {
      if (j) line += ' ';
      line += "w" + std::to_string(i * 5 + j);
    }
    records.push_back({Value(i), Value(line)});
  }
  return records;
}

using StreamingCollect = FunnelTest;

// Collect appends a spilled reduce output straight from its runs: the
// records equal an unbudgeted run's, byte for byte and in order, the
// buckets stay runs-only, a second Collect re-reads the same records, and
// no budget charge is left behind.
TEST_P(StreamingCollect, ReadsRunsWithoutLoadingTheBuckets) {
  std::string unbudgeted;
  {
    BudgetOverride none(0);
    WordCount program;
    ASSERT_TRUE(program.Init(Options()).ok());
    Job job(&program, MakeRunner(&program, nullptr));
    job.set_default_parallelism(4);
    auto out = job.Collect(
        job.ReduceData(job.MapData(job.LocalData(DistinctWordInput(200)))));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    unbudgeted = EncodeTextRecords(*out);
  }

  BudgetOverride tiny(1);
  WordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, MakeRunner(&program, nullptr));
  job.set_default_parallelism(4);
  DataSetPtr reduced =
      job.ReduceData(job.MapData(job.LocalData(DistinctWordInput(200))));
  auto first = job.Collect(reduced);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(EncodeTextRecords(*first), unbudgeted);

  auto expect_runs_only = [&] {
    int spilled = 0;
    for (int s = 0; s < reduced->num_sources(); ++s) {
      for (int p = 0; p < reduced->num_splits(); ++p) {
        const Bucket& b = reduced->bucket(s, p);
        if (!b.spilled()) continue;
        ++spilled;
        EXPECT_FALSE(b.loaded()) << "bucket " << s << "," << p;
        EXPECT_TRUE(b.records().empty()) << "bucket " << s << "," << p;
      }
    }
    EXPECT_GT(spilled, 0) << "the budget never made the reduce output spill";
  };
  expect_runs_only();
  EXPECT_EQ(MemoryBudget::Process().usage(), 0);

  auto second = job.Collect(reduced);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(*second == *first);
  expect_runs_only();
  EXPECT_EQ(MemoryBudget::Process().usage(), 0);
}

INSTANTIATE_TEST_SUITE_P(LocalRunners, StreamingCollect,
                         ::testing::Values("serial", "thread"), ParamName);

}  // namespace
}  // namespace mrs
