// Micro-benchmarks (google-benchmark) for the substrate hot paths: value
// serialization and hashing, the record format, sort+group, spill-run
// reads, the content checksum, XML-RPC framing, Halton generation, the
// MiniPy engines (the per-sample rates behind Fig 3) and random draws.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "fs/file_io.h"
#include "fs/merge.h"
#include "fs/spill.h"
#include "halton/halton.h"
#include "halton/pi_kernel.h"
#include "http/message.h"
#include "interp/treewalk.h"
#include "interp/vm.h"
#include "rng/mt19937_64.h"
#include "core/task.h"
#include "ser/record.h"
#include "xmlrpc/protocol.h"

namespace mrs {
namespace {

std::vector<KeyValue> MakeRecords(int n) {
  std::vector<KeyValue> records;
  records.reserve(n);
  MT19937_64 rng(7);
  for (int i = 0; i < n; ++i) {
    records.push_back(KeyValue{
        Value("key" + std::to_string(rng.NextBounded(100))),
        Value(static_cast<int64_t>(rng.NextU64()))});
  }
  return records;
}

void BM_EncodeBinaryRecords(benchmark::State& state) {
  auto records = MakeRecords(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeBinaryRecords(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeBinaryRecords)->Arg(100)->Arg(10000);

void BM_DecodeBinaryRecords(benchmark::State& state) {
  std::string encoded =
      EncodeBinaryRecords(MakeRecords(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeBinaryRecords(encoded));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeBinaryRecords)->Arg(100)->Arg(10000);

void BM_SortGroup(benchmark::State& state) {
  auto records = MakeRecords(static_cast<int>(state.range(0)));
  ReduceFn sum = [](const Value&, const ValueList& values,
                    const ValueEmitter& emit) {
    int64_t s = 0;
    for (const Value& v : values) s += v.AsInt();
    emit(Value(s));
  };
  for (auto _ : state) {
    auto copy = records;
    benchmark::DoNotOptimize(SortGroupApply(std::move(copy), sum));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortGroup)->Arg(1000)->Arg(100000);

// The default partitioner's per-record cost: one Hash per emitted key.
void BM_ValueHash(benchmark::State& state) {
  auto records = MakeRecords(1000);
  for (auto _ : state) {
    uint64_t h = 0;
    for (const KeyValue& kv : records) h ^= kv.key.Hash();
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_ValueHash);

// Streams one spill run through SpillRunSource (checksum pass included).
// Items/s must stay flat from 1k to 100k records: a per-record cost that
// grows with the read window would show up here first.
void BM_SpillRunSourceRead(benchmark::State& state) {
  Result<std::string> dir = MakeTempDir("mrs_bench_spill_");
  if (!dir.ok()) {
    state.SkipWithError("no temp dir");
    return;
  }
  Result<SpillRun> run =
      WriteSpillRun(JoinPath(*dir, "run.mrsk"), "bench/0/0",
                    MakeRecords(static_cast<int>(state.range(0))),
                    /*sorted=*/false);
  if (!run.ok()) {
    state.SkipWithError("spill run write failed");
    RemoveTree(*dir);
    return;
  }
  for (auto _ : state) {
    SpillRunSource source(*run);
    KeyValue kv;
    while (true) {
      Result<bool> more = source.Next(&kv);
      if (!more.ok()) {
        state.SkipWithError("spill run read failed");
        break;
      }
      if (!*more) break;
      benchmark::DoNotOptimize(kv);
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  RemoveTree(*dir);
}
BENCHMARK(BM_SpillRunSourceRead)->Arg(1000)->Arg(100000);

void BM_XmlRpcCallRoundTrip(benchmark::State& state) {
  xmlrpc::MethodCall call;
  call.method = "task_done";
  call.params = {XmlRpcValue(int64_t{1}), XmlRpcValue(int64_t{42}),
                 XmlRpcValue("http://127.0.0.1:1234/bucket/1/2/3")};
  for (auto _ : state) {
    std::string wire = xmlrpc::BuildCall(call);
    benchmark::DoNotOptimize(xmlrpc::ParseCall(wire));
  }
}
BENCHMARK(BM_XmlRpcCallRoundTrip);

void BM_HaltonNext(benchmark::State& state) {
  Halton2D points;
  double x, y;
  for (auto _ : state) {
    points.Next(&x, &y);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HaltonNext);

void BM_PiKernel(benchmark::State& state, PiEngine engine) {
  auto kernel = PiKernel::Create(engine);
  if (!kernel.ok()) {
    state.SkipWithError("kernel creation failed");
    return;
  }
  uint64_t start = 0;
  const uint64_t chunk = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize((*kernel)->CountInside(start, chunk));
    start += chunk;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(chunk));
}
BENCHMARK_CAPTURE(BM_PiKernel, native, PiEngine::kNative)->Arg(10000);
BENCHMARK_CAPTURE(BM_PiKernel, vm_pypy, PiEngine::kVm)->Arg(1000);
BENCHMARK_CAPTURE(BM_PiKernel, treewalk_python, PiEngine::kTreeWalk)
    ->Arg(1000);

void BM_MiniPyFib(benchmark::State& state, bool use_vm) {
  const char* src =
      "def fib(n):\n    if n < 2:\n        return n\n"
      "    return fib(n - 1) + fib(n - 2)\n";
  minipy::TreeWalker walker;
  minipy::Vm vm;
  if (use_vm) {
    if (!vm.LoadSource(src).ok()) {
      state.SkipWithError("load failed");
      return;
    }
  } else if (!walker.LoadSource(src).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::vector<minipy::PyValue> args = {minipy::PyValue(int64_t{15})};
  for (auto _ : state) {
    if (use_vm) {
      benchmark::DoNotOptimize(vm.Call("fib", args));
    } else {
      benchmark::DoNotOptimize(walker.Call("fib", args));
    }
  }
}
BENCHMARK_CAPTURE(BM_MiniPyFib, vm, true);
BENCHMARK_CAPTURE(BM_MiniPyFib, treewalk, false);

void BM_MT19937_64(benchmark::State& state) {
  MT19937_64 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MT19937_64);

// One DistSort character: a draw reduced to the 62-letter alphabet.
void BM_MT19937_64_NextBounded62(benchmark::State& state) {
  MT19937_64 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextBounded(62));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MT19937_64_NextBounded62);

// The wire and spill-run checksum over one bucket body.
void BM_ContentChecksum(benchmark::State& state) {
  std::string body(static_cast<size_t>(state.range(0)), '\0');
  MT19937_64 rng(9);
  for (char& c : body) c = static_cast<char>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ContentChecksum(body));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContentChecksum)->Arg(4096)->Arg(1 << 20);

}  // namespace
}  // namespace mrs

// BENCHMARK_MAIN() expanded so the bench can emit its machine-readable
// result line after the google-benchmark run.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mrs::bench::EmitBenchJson(
      "bench_micro", {{"benchmarks_run", static_cast<double>(ran)}});
  return 0;
}
