// E4 + E5 (paper Fig 3a / 3b): π-estimation run time vs sample count.
//
// Series, matching the paper's:
//   hadoop     — the hadoopsim DES (10 map tasks, Java-speed inner loop
//                modelled as measured-native-rate x 1.3); *simulated*
//                seconds — this is the ~30 s floor on the left of Fig 3.
//   python     — Mrs masterslave, MiniPy tree-walk inner loop (Fig 3a).
//   pypy       — Mrs masterslave, MiniPy bytecode VM (Fig 3a).
//   c          — Mrs masterslave, native inner loop (Fig 3b, "ctypes C").
//
// Slow interpreter cells whose projected run time exceeds the per-cell
// budget are extrapolated from the engine's measured per-sample rate and
// marked with '*'.  Absolute numbers differ from 2012 hardware; the
// *shape* — Mrs's flat low overhead on the left, the Hadoop floor, the
// language-speed separation and crossover on the right — is the result.
//
// Usage: bench_pi [max_exponent=7] [cell_budget_seconds=15]
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include <thread>

#include "common/clock.h"
#include "halton/pi_program.h"
#include "hadoopsim/cluster.h"
#include "rt/mrs_main.h"

namespace mrs {
namespace {

constexpr int kNumSlaves = 4;
constexpr int kMapTasks = 10;  // Hadoop PiEstimator's default
constexpr int64_t kScalingSamples = 5000000;  // thread-scaling cell size
constexpr int kCalibrationRuns = 5;

/// Real speedup available to the in-process cluster (slaves are threads).
double EffectiveParallelism() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<double>(std::min<unsigned>(kNumSlaves, hw));
}

/// Measured per-sample seconds for an engine: `samples` split over
/// kCalibrationRuns runs, and the fastest run's rate.  One run's time
/// spreads by more than the regression gate's bound on a shared machine;
/// the minimum is what the engine costs when nothing else gets in its way.
double CalibrateRate(PiEngine engine, uint64_t samples) {
  auto kernel = PiKernel::Create(engine);
  if (!kernel.ok()) return -1;
  const uint64_t per_run = samples / kCalibrationRuns;
  double best = -1;
  for (int run = 0; run < kCalibrationRuns; ++run) {
    Stopwatch watch;
    (void)(*kernel)->CountInside(0, per_run);
    double seconds = watch.ElapsedSeconds();
    if (best < 0 || seconds < best) best = seconds;
  }
  return best / static_cast<double>(per_run);
}

/// One real Mrs run (masterslave by default); returns wall seconds.
double RunMrsPi(PiEngine engine, int64_t samples,
                const std::string& impl = "masterslave",
                int num_workers = 0) {
  PiEstimatorProgram program;
  program.samples = samples;
  program.tasks = kMapTasks;
  program.engine = engine;
  if (!program.Init(Options()).ok()) return -1;
  RunConfig config;
  config.impl = impl;
  config.num_slaves = kNumSlaves;
  config.num_workers = num_workers;
  Stopwatch watch;
  Status status = RunProgram(
      [&]() -> std::unique_ptr<MapReduce> {
        auto p = std::make_unique<PiEstimatorProgram>();
        p->samples = samples;
        p->tasks = kMapTasks;
        p->engine = engine;
        return p;
      },
      &program, config);
  if (!status.ok()) {
    std::fprintf(stderr, "pi run failed: %s\n", status.ToString().c_str());
    return -1;
  }
  return watch.ElapsedSeconds();
}

double SimulateHadoopPi(int64_t samples, double java_per_sample) {
  hadoopsim::HadoopCluster cluster{hadoopsim::ClusterConfig{}};
  hadoopsim::JobSpec spec;
  spec.num_map_tasks = kMapTasks;
  spec.num_reduce_tasks = 1;
  spec.map_compute_seconds =
      static_cast<double>(samples) / kMapTasks * java_per_sample;
  // Hadoop's PiEstimator writes one small input file per map into HDFS.
  spec.num_input_files = kMapTasks;
  spec.num_input_dirs = 1;
  spec.stage_in_bytes = kMapTasks * 1024;
  spec.map_output_bytes = kMapTasks * 64;
  spec.reduce_output_bytes = 64;
  auto result = cluster.RunJob(spec);
  return result.ok() ? result->total : -1;
}

}  // namespace
}  // namespace mrs

int main(int argc, char** argv) {
  using namespace mrs;
  int max_exp = argc > 1 ? std::atoi(argv[1]) : 7;
  double budget = argc > 2 ? std::atof(argv[2]) : 15.0;

  std::printf("bench_pi: E4/E5, Fig 3a + 3b (pi run time vs samples)\n");
  std::printf("mrs runs: masterslave, %d slaves, %d map tasks; hadoop: DES\n",
              kNumSlaves, kMapTasks);

  // Calibrate engine rates (seconds per sample).
  double native_rate = CalibrateRate(PiEngine::kNative, 2000000);
  double vm_rate = CalibrateRate(PiEngine::kVm, 100000);
  double vm_typed_rate = CalibrateRate(PiEngine::kVmTyped, 1000000);
  double tw_rate = CalibrateRate(PiEngine::kTreeWalk, 30000);
  double java_rate = native_rate * 1.3;  // the paper-era Java JIT penalty
  std::printf(
      "per-sample rates: native=%.3gs  vm(pypy)=%.3gs  vm-typed=%.3gs  "
      "treewalk(python)=%.3gs  java(model)=%.3gs\n",
      native_rate, vm_rate, vm_typed_rate, tw_rate, java_rate);
  std::printf("typed tier speedup over generic vm: %.2fx\n",
              vm_typed_rate > 0 ? vm_rate / vm_typed_rate : 0);

  struct Series {
    const char* name;
    PiEngine engine;
    double rate;
  };
  const Series series[] = {
      {"mrs python", PiEngine::kTreeWalk, tw_rate},
      {"mrs pypy", PiEngine::kVm, vm_rate},
      {"mrs pypy-typed", PiEngine::kVmTyped, vm_typed_rate},
      {"mrs c", PiEngine::kNative, native_rate},
  };

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"samples", "hadoop sim (s)", "mrs python (s)",
                  "mrs pypy (s)", "mrs pypy-typed (s)", "mrs c (s)"});

  for (int exp = 2; exp <= max_exp; ++exp) {
    int64_t samples = 1;
    for (int i = 0; i < exp; ++i) samples *= 10;

    std::vector<std::string> row;
    row.push_back("1e" + std::to_string(exp));
    row.push_back(bench::Fmt("%.1f", SimulateHadoopPi(samples, java_rate)));
    for (const Series& s : series) {
      double projected =
          s.rate * static_cast<double>(samples) / EffectiveParallelism();
      if (projected > budget) {
        row.push_back(bench::Fmt("%.1f", projected) + "*");
      } else {
        row.push_back(bench::Fmt("%.2f", RunMrsPi(s.engine, samples)));
      }
    }
    rows.push_back(row);
  }
  bench::PrintTable(
      "Fig 3a/3b: run time vs samples ('*' = extrapolated from measured "
      "per-sample rate)",
      rows);

  // Crossover analysis (the right-hand side of Fig 3a): where does the
  // Hadoop/Java series overtake each Mrs engine?
  std::vector<std::vector<std::string>> cross;
  cross.push_back({"series", "per-sample (s)", "crossover vs hadoop (samples)"});
  for (const Series& s : series) {
    double effective = s.rate / EffectiveParallelism();  // Mrs parallel rate
    double java_eff = java_rate / (21.0 * 6);   // full paper cluster
    double overhead = SimulateHadoopPi(1, java_rate);  // ~the fixed floor
    std::string crossover = "never (mrs faster at all sizes)";
    if (effective > java_eff) {
      double n = overhead / (effective - java_eff);
      crossover = bench::Fmt("%.3g", n);
    }
    cross.push_back({s.name, bench::Fmt("%.3g", s.rate), crossover});
  }
  bench::PrintTable("Fig 3a crossover estimate", cross);
  std::printf(
      "(paper: Mrs wins below ~32s task times — extended to ~40s with the\n"
      " C inner loop; in Fig 3b the C loop beats the Java model everywhere\n"
      " except the far right where both are compute-bound)\n");

  // Thread-runner scaling on the native inner loop: the shared-memory
  // implementation has no cluster bring-up at all, so this curve isolates
  // pure compute scaling across 1/2/4 pool workers.  The cell is a fixed
  // 5 x 10^6 samples whatever max_exponent is, about 0.5 s at one worker
  // on a 4-vCPU box: at 10^6 (~0.1 s) the w4 speedup wandered from run to
  // run by more than its margin over the 2.5x floor, and smaller cells
  // time well under a millisecond, where fixed costs swamp the speedup.
  std::vector<bench::BenchMetric> json_metrics = {
      {"max_exponent", static_cast<double>(max_exp)},
      {"native_s_per_sample", native_rate},
      {"vm_s_per_sample", vm_rate},
      {"vm_typed_s_per_sample", vm_typed_rate},
      // µs-scale keys for the regression gate (tools/compare_bench.py
      // gates *_us_per_sample with a µs-appropriate noise floor; the
      // seconds-scale keys above would fall under its 5ms exemption).
      {"vm_us_per_sample", vm_rate * 1e6},
      {"vm_typed_us_per_sample", vm_typed_rate * 1e6},
      {"treewalk_us_per_sample", tw_rate * 1e6},
      {"vm_typed_speedup",
       vm_typed_rate > 0 ? vm_rate / vm_typed_rate : 0},
      {"treewalk_s_per_sample", tw_rate},
      {"java_model_s_per_sample", java_rate},
      {"hadoop_sim_floor_s", SimulateHadoopPi(1, java_rate)}};
  {
    json_metrics.push_back(
        {"thread_hw_concurrency",
         static_cast<double>(std::thread::hardware_concurrency())});
    std::vector<std::vector<std::string>> scaling;
    scaling.push_back({"workers", "seconds", "speedup vs 1 worker"});
    double base = -1;
    for (int workers : bench::ScalingWorkerCounts()) {
      std::vector<int64_t> before = bench::SnapshotThreadCounters();
      double t =
          RunMrsPi(PiEngine::kNative, kScalingSamples, "thread", workers);
      if (workers == 1) base = t;
      double speedup = (t > 0 && base > 0) ? base / t : 0;
      scaling.push_back({std::to_string(workers), bench::Fmt("%.3f", t),
                         bench::Fmt("%.2fx", speedup)});
      std::string w = std::to_string(workers);
      json_metrics.push_back({"thread_w" + w + "_s", t});
      json_metrics.push_back({"thread_speedup_w" + w, speedup});
      bench::AppendCounterDeltas("thread_w" + w, before, &json_metrics);
    }
    bench::PrintTable("Thread runner scaling (native engine, " +
                          std::to_string(kScalingSamples) + " samples)",
                      scaling);
  }

  bench::EmitBenchJson("bench_pi", json_metrics);
  return 0;
}
