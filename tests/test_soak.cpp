// Liveness soak: a long masterslave run of many short rounds.
//
// Each round maps, reduces and collects over five slaves, so every slave's
// data server holds keep-alive connections from its peers' fetchers and
// from the job's Collect — more pooled peers than a data server has
// handler threads.  A server that dedicates a thread to each connection
// stops answering partway through; ctest's per-test TIMEOUT turns that
// hang into a named failure.
#include <gtest/gtest.h>

#include "core/job.h"
#include "rt/cluster.h"

namespace mrs {
namespace {

constexpr int kSlaves = 5;
constexpr int kRounds = 1000;

// map: (k, v) -> (k, v + 1); reduce: pass the single value through.
class CountUp : public MapReduce {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    emit(key, Value(value.AsInt() + 1));
  }
};

TEST(Soak, ThousandRoundsOnFiveSlavesStayLive) {
  CountUp program;
  ASSERT_TRUE(program.Init(Options()).ok());
  ClusterLauncher::Config config;
  config.num_slaves = kSlaves;
  auto cluster = ClusterLauncher::Start(
      [] { return std::unique_ptr<MapReduce>(new CountUp()); }, Options(),
      config);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  Job job(&program, std::make_unique<MasterRunner>(&(*cluster)->master()));

  std::vector<KeyValue> input;
  for (int64_t i = 0; i < 2 * kSlaves; ++i) {
    input.push_back(KeyValue{Value(i), Value(int64_t{0})});
  }
  DataSetOptions options;
  options.num_splits = kSlaves;
  DataSetPtr data = job.LocalData(std::move(input), kSlaves);
  for (int round = 1; round <= kRounds; ++round) {
    DataSetPtr mapped = job.MapData(data, options);
    DataSetPtr reduced = job.ReduceData(mapped, options);
    auto out = job.Collect(reduced);
    ASSERT_TRUE(out.ok()) << "round " << round << ": "
                          << out.status().ToString();
    ASSERT_EQ(out->size(), 2u * kSlaves) << "round " << round;
    for (const KeyValue& kv : *out) {
      ASSERT_EQ(kv.value.AsInt(), round) << "round " << round;
    }
    job.Discard(data);
    job.Discard(mapped);
    data = reduced;
  }
  (*cluster)->Shutdown();
}

}  // namespace
}  // namespace mrs
