// Edge-case and property tests across the engine: empty datasets, single
// records, skewed keys, large payloads through the real RPC data plane,
// emit-nothing and emit-many operators, and partition balance.
#include <gtest/gtest.h>

#include <numeric>

#include "common/strings.h"
#include "core/job.h"
#include "core/serial_runner.h"
#include "rng/mt19937_64.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

class Identity : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, value);
  }
};

class Expander : public MapReduce {
 public:
  // Emits `n` records per input; reduce counts.
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    (void)key;
    int64_t n = value.AsInt();
    for (int64_t i = 0; i < n; ++i) {
      emit(Value(i % 7), Value(int64_t{1}));
    }
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    (void)key;
    emit(Value(static_cast<int64_t>(values.size())));
  }
};

class Dropper : public MapReduce {
 public:
  // Emits nothing at all.
  void Map(const Value&, const Value&, const Emitter&) override {}
};

TEST(EdgeCases, EmptyLocalDataFlowsThrough) {
  Identity p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  DataSetPtr input = job.LocalData({});
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(EdgeCases, MapEmittingNothingYieldsEmptyOutput) {
  Dropper p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  DataSetPtr input = job.LocalData({{Value(int64_t{1}), Value("x")}});
  DataSetPtr mapped = job.MapData(input);
  auto out = job.Collect(mapped);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(EdgeCases, SingleRecordSingleSplit) {
  Identity p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  DataSetPtr input = job.LocalData({{Value("k"), Value("v")}}, 1);
  DataSetPtr mapped = job.MapData(input, [] {
    DataSetOptions o;
    o.num_splits = 1;
    return o;
  }());
  auto out = job.Collect(mapped);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].key.AsString(), "k");
}

TEST(EdgeCases, FanOutLargerThanInput) {
  // One input record expands to 10000 outputs spread over 7 keys.
  Expander p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  job.set_default_parallelism(5);
  DataSetPtr input = job.LocalData({{Value(int64_t{0}), Value(int64_t{10000})}});
  DataSetPtr mapped = job.MapData(input);
  DataSetPtr reduced = job.ReduceData(mapped);
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok());
  int64_t total = 0;
  for (const KeyValue& kv : *out) total += kv.value.AsInt();
  EXPECT_EQ(total, 10000);
  EXPECT_EQ(out->size(), 7u);
}

TEST(EdgeCases, AllRecordsSameKeySkew) {
  // Every record hits one reduce key: one partition does all the work but
  // results stay correct at any parallelism.
  class SkewCount : public MapReduce {
   public:
    void Map(const Value&, const Value& v, const Emitter& emit) override {
      emit(Value("hot"), v);
    }
    void Reduce(const Value&, const ValueList& values,
                const ValueEmitter& emit) override {
      int64_t sum = 0;
      for (const Value& v : values) sum += v.AsInt();
      emit(Value(sum));
    }
  };
  SkewCount p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  job.set_default_parallelism(8);
  std::vector<KeyValue> input;
  for (int64_t i = 1; i <= 200; ++i) {
    input.push_back({Value(i), Value(i)});
  }
  DataSetPtr data = job.LocalData(std::move(input));
  DataSetPtr reduced = job.ReduceData(job.MapData(data));
  auto out = job.Collect(reduced);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value.AsInt(), 200 * 201 / 2);
}

TEST(EdgeCases, LargeValuesThroughRealRpcDataPlane) {
  // A ~1 MiB value must survive the full masterslave path: inline RPC
  // transport for local data, HTTP bucket fetches between slaves, and
  // Collect on the master.
  class BigValue : public MapReduce {
   public:
    void Map(const Value& key, const Value& value,
             const Emitter& emit) override {
      emit(key, Value(std::string(value.AsString()) + "!"));
    }
    Status Run(Job& job) override {
      std::string big(1 << 20, 'x');
      DataSetPtr input =
          job.LocalData({{Value(int64_t{0}), Value(big)}}, 2);
      DataSetPtr mapped = job.MapData(input);
      DataSetPtr reduced = job.ReduceData(mapped);
      MRS_ASSIGN_OR_RETURN(result, job.Collect(reduced));
      return Status::Ok();
    }
    std::vector<KeyValue> result;
  };

  BigValue program;
  ASSERT_TRUE(program.Init(Options()).ok());
  RunConfig config;
  config.impl = "masterslave";
  config.num_slaves = 2;
  Status status = RunProgram(
      [] { return std::unique_ptr<MapReduce>(new BigValue()); }, &program,
      config);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(program.result.size(), 1u);
  EXPECT_EQ(program.result[0].value.AsString().size(), (1u << 20) + 1);
  EXPECT_EQ(program.result[0].value.AsString().back(), '!');
}

TEST(EdgeCases, PartitionBalanceIsReasonable) {
  // Hash partitioning over random string keys should be roughly uniform:
  // no partition more than 2x the expected share at n=10000, p=16.
  Identity p;
  const int kParts = 16;
  const int kKeys = 10000;
  std::vector<int> histogram(kParts, 0);
  MT19937_64 rng(33);
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "user-" + std::to_string(rng.NextU64());
    ++histogram[static_cast<size_t>(p.Partition(Value(key), kParts))];
  }
  int expected = kKeys / kParts;
  for (int count : histogram) {
    EXPECT_GT(count, expected / 2);
    EXPECT_LT(count, expected * 2);
  }
}

TEST(EdgeCases, NumericKeysPartitionLikeEqualDoubles) {
  // 2 and 2.0 compare equal, hash equal, and therefore land in the same
  // partition — required for correct grouping of mixed numeric keys.
  Identity p;
  for (int parts : {2, 7, 16}) {
    EXPECT_EQ(p.Partition(Value(int64_t{2}), parts),
              p.Partition(Value(2.0), parts));
  }
}

TEST(EdgeCases, ChainedMapsWithoutReduce) {
  Identity p;
  ASSERT_TRUE(p.Init(Options()).ok());
  p.RegisterMap("inc", [](const Value& k, const Value& v, const Emitter& e) {
    e(k, Value(v.AsInt() + 1));
  });
  Job job(&p, std::make_unique<SerialRunner>(&p));
  job.set_default_parallelism(3);
  DataSetPtr data = job.LocalData({{Value(int64_t{0}), Value(int64_t{0})}});
  DataSetOptions options;
  options.op_name = "inc";
  for (int i = 0; i < 10; ++i) {
    data = job.MapData(data, options);
  }
  auto out = job.Collect(data);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].value.AsInt(), 10);
}

TEST(EdgeCases, UnicodeAndBinaryKeysSurvive) {
  Identity p;
  ASSERT_TRUE(p.Init(Options()).ok());
  Job job(&p, std::make_unique<SerialRunner>(&p));
  std::vector<KeyValue> input = {
      {Value("żółć"), Value("unicode")},
      {Value::BytesValue(std::string("\x00\xff\x01", 3)), Value("binary")},
      {Value(""), Value("empty-key")},
  };
  DataSetPtr data = job.LocalData(input);
  DataSetPtr mapped = job.MapData(data);
  auto out = job.Collect(mapped);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

}  // namespace
}  // namespace mrs
