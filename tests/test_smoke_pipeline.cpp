// End-to-end smoke tests: WordCount through every execution
// implementation, checking the paper's equivalence invariant (§IV-A): all
// implementations produce identical answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "core/job.h"
#include "core/mock_runner.h"
#include "core/serial_runner.h"
#include "fs/file_io.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

class WordCount : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    for (std::string_view word : SplitWhitespace(value.AsString())) {
      emit(Value(word), Value(static_cast<int64_t>(1)));
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

std::vector<KeyValue> SampleInput() {
  return LinesToRecords(
      "the quick brown fox\n"
      "jumps over the lazy dog\n"
      "the dog barks\n");
}

std::map<std::string, int64_t> ToCounts(const std::vector<KeyValue>& records) {
  std::map<std::string, int64_t> counts;
  for (const KeyValue& kv : records) {
    counts[std::string(kv.key.AsString())] += kv.value.AsInt();
  }
  return counts;
}

std::map<std::string, int64_t> ExpectedCounts() {
  return {{"the", 3}, {"quick", 1}, {"brown", 1}, {"fox", 1},  {"jumps", 1},
          {"over", 1}, {"lazy", 1},  {"dog", 2},   {"barks", 1}};
}

TEST(SmokePipeline, SerialWordCount) {
  WordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Job job(&program, std::make_unique<SerialRunner>(&program));
  job.set_default_parallelism(3);

  DataSetPtr input = job.LocalData(SampleInput());
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  Result<std::vector<KeyValue>> out = job.Collect(reduced);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(ToCounts(*out), ExpectedCounts());
}

TEST(SmokePipeline, MockParallelMatchesSerial) {
  WordCount program;
  ASSERT_TRUE(program.Init(Options()).ok());
  Result<std::string> tmpdir = MakeTempDir("mrs_test_mock_");
  ASSERT_TRUE(tmpdir.ok());

  Job job(&program, std::make_unique<MockParallelRunner>(&program, *tmpdir));
  job.set_default_parallelism(3);
  DataSetPtr input = job.LocalData(SampleInput());
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  Result<std::vector<KeyValue>> out = job.Collect(reduced);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(ToCounts(*out), ExpectedCounts());
  RemoveTree(*tmpdir);
}

class WordCountFromFiles : public WordCount {
 public:
  explicit WordCountFromFiles(std::string dir) : dir_(std::move(dir)) {}

  Status Run(Job& job) override {
    MRS_ASSIGN_OR_RETURN(DataSetPtr input, job.FileData({dir_}));
    DataSetOptions map_options;
    map_options.use_combiner = true;
    DataSetPtr mapped = job.MapData(input, map_options);
    DataSetPtr reduced = job.ReduceData(mapped);
    MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
    return Status::Ok();
  }

  std::vector<KeyValue> result;

 private:
  std::string dir_;
};

TEST(SmokePipeline, MasterSlaveMatchesSerial) {
  Result<std::string> dir = MakeTempDir("mrs_test_ms_");
  ASSERT_TRUE(dir.ok());
  // Nested directory layout, as in the Gutenberg corpus.
  ASSERT_TRUE(EnsureDir(JoinPath(*dir, "a/b")).ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(*dir, "a/one.txt"),
                              "alpha beta gamma\nalpha\n").ok());
  ASSERT_TRUE(WriteFileAtomic(JoinPath(*dir, "a/b/two.txt"),
                              "beta beta\ngamma alpha delta\n").ok());

  auto run = [&](const std::string& impl) {
    auto factory = [&]() -> std::unique_ptr<MapReduce> {
      return std::make_unique<WordCountFromFiles>(*dir);
    };
    WordCountFromFiles program(*dir);
    Status init = program.Init(Options());
    EXPECT_TRUE(init.ok());
    RunConfig config;
    config.impl = impl;
    config.num_slaves = 2;
    Status status = RunProgram(factory, &program, config);
    EXPECT_TRUE(status.ok()) << impl << ": " << status.ToString();
    return ToCounts(program.result);
  };

  std::map<std::string, int64_t> serial = run("serial");
  std::map<std::string, int64_t> master_slave = run("masterslave");
  EXPECT_EQ(serial, master_slave);
  EXPECT_EQ(serial.at("alpha"), 3);
  EXPECT_EQ(serial.at("beta"), 3);
  RemoveTree(*dir);
}

}  // namespace
}  // namespace mrs
