// perfbench_job: one operation of the Mrs job benchmark, run in its own
// process so that a hang can be killed and CPU and peak RSS are per-run.
//
//   perfbench_job prepare <workload> <seed> <dir>
//       Generate the workload's inputs under <dir> and write the oracle
//       (expected-output digest and work count) to <dir>/oracle.txt.
//   perfbench_job run <workload> <seed> <dir> <trace 0|1>
//       Set up the runner, run the job once, tear down, check the output
//       against the oracle and print one JSON line on stdout.
//
// Everything is measured from outside src/: timestamps around the calls
// the benchmark makes into each layer (Program::Init, ClusterLauncher::
// Start/Shutdown, ThreadRunner construction/destruction, MapReduce::Run),
// a timing Runner decorator around Submit/Wait/fetcher(), timing of the
// framework's calls back into the benchmark's program callbacks, and the
// program's own obs::Registry deltas and obs::TraceBuffer task spans.
// Arithmetic on these (rounds, percentiles, interval unions, self time)
// is done by ledger.py.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "core/job.h"
#include "core/program.h"
#include "core/thread_runner.h"
#include "corpus/corpus.h"
#include "fs/file_io.h"
#include "fs/spill.h"
#include "halton/pi_kernel.h"
#include "halton/pi_program.h"
#include "kmeans/kmeans.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/cluster.h"
#include "sort/distsort.h"

namespace mrs {
namespace perfbench {
namespace {

// ---- Workload sizes (fixed: the benchmark's yardstick) --------------------

constexpr int kCorpusFiles = 3000;
constexpr int kCorpusWordsPerFile = 800;
constexpr int kCorpusVocabulary = 20000;
constexpr int kCorpusFilesPerDir = 25;

constexpr int kKMeansPoints = 4000;
constexpr int kKMeansDims = 8;
constexpr int kKMeansChunks = 8;
constexpr int kKMeansRounds = 1200;

constexpr int kSortTasks = 8;
constexpr int64_t kSortRecordsPerTask = 25000;
constexpr int kSortBudgetDivisor = 8;  // dataset = 8x MemoryBudget

constexpr int64_t kPiSamples = 8000000;
constexpr int kPiTasks = 16;
// Sample windows start at a seed-derived Halton index below this, so the
// seed varies the input without changing the digits per sample much.
constexpr uint64_t kPiOffsetRange = uint64_t{1} << 20;

double Now() { return obs::TraceNowSeconds(); }

/// Task slots: half the cores, so the master, the driver and the HTTP
/// threads keep cores of their own.
int TaskSlots() {
  unsigned n = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(n / 2));
}

// ---- Output digests (the oracles compare these) ---------------------------

/// FNV-1a over a stream of byte strings and integers.
class Digest {
 public:
  void Add(std::string_view s) {
    AddInt(s.size());
    for (unsigned char c : s) Mix(c);
  }
  void AddInt(uint64_t v) {
    for (int i = 0; i < 8; ++i) Mix(static_cast<unsigned char>(v >> (8 * i)));
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    AddInt(bits);
  }
  std::string Hex() const { return StrPrintf("%016" PRIx64, h_); }

 private:
  void Mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string WordCountDigest(std::vector<std::pair<std::string, int64_t>> wc) {
  std::sort(wc.begin(), wc.end());
  Digest d;
  for (const auto& [word, count] : wc) {
    d.Add(word);
    d.AddInt(static_cast<uint64_t>(count));
  }
  return d.Hex();
}

std::string CentroidDigest(const std::vector<std::vector<double>>& cents) {
  Digest d;
  for (const auto& c : cents) {
    for (double x : c) d.AddDouble(x);
  }
  return d.Hex();
}

std::string RecordsDigest(const std::vector<KeyValue>& records) {
  Digest d;
  for (const KeyValue& kv : records) {
    d.Add(kv.key.AsString());
    d.Add(kv.value.AsString());
  }
  return d.Hex();
}

// ---- Callback timing (the "user" layer) -----------------------------------

struct CallbackStat {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> ns{0};
};
CallbackStat g_map, g_reduce, g_combine;
std::atomic<bool> g_time_callbacks{false};
/// Only the outermost callback on a thread is timed: the default Combine
/// delegates to Reduce, which must not count twice.
thread_local int t_callback_depth = 0;

class CallbackTimer {
 public:
  explicit CallbackTimer(CallbackStat* stat)
      : stat_(g_time_callbacks.load(std::memory_order_relaxed) &&
                      t_callback_depth == 0
                  ? stat
                  : nullptr) {
    ++t_callback_depth;
    if (stat_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~CallbackTimer() {
    --t_callback_depth;
    if (stat_ == nullptr) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    stat_->calls.fetch_add(1, std::memory_order_relaxed);
    stat_->ns.fetch_add(ns, std::memory_order_relaxed);
  }
  CallbackTimer(const CallbackTimer&) = delete;
  CallbackTimer& operator=(const CallbackTimer&) = delete;

 private:
  CallbackStat* stat_;
  std::chrono::steady_clock::time_point start_;
};

/// Wraps a program's default and named operations with callback timing.
template <typename Base>
class Timed : public Base {
 public:
  void Map(const Value& key, const Value& value,
           const Emitter& emit) override {
    CallbackTimer timer(&g_map);
    Base::Map(key, value, emit);
  }
  void Reduce(const Value& key, const ValueList& values,
              const ValueEmitter& emit) override {
    CallbackTimer timer(&g_reduce);
    Base::Reduce(key, values, emit);
  }
  void Combine(const Value& key, const ValueList& values,
               const ValueEmitter& emit) override {
    CallbackTimer timer(&g_combine);
    Base::Combine(key, values, emit);
  }

 protected:
  /// Re-register a named operation behind a timer.
  void TimeNamedMap(const std::string& name) {
    MapFn fn = this->FindMap(name).value();
    this->RegisterMap(name, [fn](const Value& k, const Value& v,
                                 const Emitter& e) {
      CallbackTimer timer(&g_map);
      fn(k, v, e);
    });
  }
  void TimeNamedReduce(const std::string& name) {
    ReduceFn fn = this->FindReduce(name).value();
    this->RegisterReduce(name, [fn](const Value& k, const ValueList& vs,
                                    const ValueEmitter& e) {
      CallbackTimer timer(&g_reduce);
      fn(k, vs, e);
    });
  }
};

// ---- Driver lane: the timing Runner decorator -----------------------------

struct DriverSpan {
  const char* kind;  // submit | wait | fetch | discard
  double start;
  double end;
  int64_t bytes;
};

class DriverLane {
 public:
  void Add(const char* kind, double start, double end, int64_t bytes = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({kind, start, end, bytes});
  }
  std::vector<DriverSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<DriverSpan> spans_;
};

/// Records a driver-lane span around every call the job makes into the
/// runner.  A few clock reads per call, so it stays on in untraced runs:
/// the per-round times come from it.
class TimingRunner final : public Runner {
 public:
  TimingRunner(std::unique_ptr<Runner> inner, DriverLane* lane)
      : inner_(std::move(inner)), lane_(lane) {}

  void Submit(const DataSetPtr& dataset) override {
    double t = Now();
    inner_->Submit(dataset);
    lane_->Add("submit", t, Now());
  }
  Status Wait(const DataSetPtr& dataset) override {
    double t = Now();
    Status status = inner_->Wait(dataset);
    lane_->Add("wait", t, Now());
    return status;
  }
  UrlFetcher fetcher() override {
    UrlFetcher fetch = inner_->fetcher();
    DriverLane* lane = lane_;
    return [fetch, lane](const std::string& url) -> Result<std::string> {
      double t = Now();
      Result<std::string> got = fetch(url);
      lane->Add("fetch", t, Now(),
                got.ok() ? static_cast<int64_t>(got->size()) : 0);
      return got;
    };
  }
  std::string name() const override { return inner_->name(); }
  void Discard(const DataSetPtr& dataset) override {
    double t = Now();
    inner_->Discard(dataset);
    lane_->Add("discard", t, Now());
  }

 private:
  std::unique_ptr<Runner> inner_;
  DriverLane* lane_;
};

// ---- The four workloads' programs -----------------------------------------

class WordCount : public MapReduce {
 public:
  std::string input_dir;
  std::vector<KeyValue> output;

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
  Status Run(Job& job) override {
    MRS_ASSIGN_OR_RETURN(DataSetPtr input, job.FileData({input_dir}));
    DataSetOptions map_options;
    map_options.use_combiner = true;
    DataSetPtr mapped = job.MapData(input, map_options);
    DataSetPtr reduced = job.ReduceData(mapped);
    MRS_ASSIGN_OR_RETURN(output, job.Collect(reduced));
    return Status::Ok();
  }
};

class TimedKMeans : public Timed<kmeans::KMeansProgram> {
 public:
  TimedKMeans() {
    config.num_points = kKMeansPoints;
    config.dims = kKMeansDims;
    config.chunks = kKMeansChunks;
    config.max_rounds = kKMeansRounds;
    config.tolerance = 0;  // fixed round count: every round does the work
    config.iterative = true;
    TimeNamedMap("iassign");
    TimeNamedReduce("irecenter");
  }
};

class TimedDistSort : public Timed<sort::DistSortProgram> {
 public:
  TimedDistSort() {
    config.tasks = kSortTasks;
    config.records_per_task = kSortRecordsPerTask;
  }
};

uint64_t PiOffset(uint64_t seed) {
  return (seed * 0x9e3779b97f4a7c15ull >> 20) % kPiOffsetRange;
}

class TimedPi : public Timed<PiEstimatorProgram> {
 public:
  uint64_t offset = 0;
  TimedPi() {
    samples = kPiSamples;
    tasks = kPiTasks;
    engine = PiEngine::kVmTyped;
  }
  /// The stock ranges, shifted to the seed's window of the sequence.
  Status InputData(Job& job, DataSetPtr* out) override {
    std::vector<KeyValue> ranges;
    int64_t start = static_cast<int64_t>(offset);
    for (int t = 0; t < tasks; ++t) {
      int64_t count = samples / tasks + (t < samples % tasks ? 1 : 0);
      ranges.push_back(KeyValue{Value(static_cast<int64_t>(t)),
                                Value(ValueList{Value(start), Value(count)})});
      start += count;
    }
    *out = job.LocalData(std::move(ranges), tasks);
    return Status::Ok();
  }
};

// ---- Workload descriptions --------------------------------------------------

struct Workload {
  std::string name;
  bool masterslave = true;
  std::string work_unit;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"wordcount", true, "words"},
      {"kmeans_bsp", true, "point-rounds"},
      {"distsort_spill", false, "records"},
      {"pi_typed", true, "samples"},
  };
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Options SeedOptions(uint64_t seed) {
  Options opts;
  opts.Set("mrs-seed", std::to_string(seed));
  return opts;
}

std::string CorpusDir(const std::string& dir) { return JoinPath(dir, "corpus"); }

int64_t SortBudget() {
  sort::DistSortProgram p;
  p.config.tasks = kSortTasks;
  p.config.records_per_task = kSortRecordsPerTask;
  return p.ApproxDatasetBytes() / kSortBudgetDivisor;
}

// ---- prepare ----------------------------------------------------------------

Status WriteOracle(const std::string& dir, const std::string& digest,
                   uint64_t work) {
  return WriteFileAtomic(JoinPath(dir, "oracle.txt"),
                         digest + " " + std::to_string(work) + "\n");
}

Status Prepare(const Workload& w, uint64_t seed, const std::string& dir) {
  MRS_RETURN_IF_ERROR(EnsureDir(dir));
  if (w.name == "wordcount") {
    CorpusSpec spec;
    spec.num_files = kCorpusFiles;
    spec.words_per_file = kCorpusWordsPerFile;
    spec.vocabulary = kCorpusVocabulary;
    spec.files_per_dir = kCorpusFilesPerDir;
    spec.seed = seed;
    std::vector<uint64_t> counts;
    CorpusStats stats;
    MRS_RETURN_IF_ERROR(
        GenerateCorpusWithCounts(CorpusDir(dir), spec, &counts, &stats)
            .status());
    std::vector<std::pair<std::string, int64_t>> expected;
    for (size_t rank = 0; rank < counts.size(); ++rank) {
      if (counts[rank] == 0) continue;
      expected.emplace_back(VocabularyWord(static_cast<int>(rank)),
                            static_cast<int64_t>(counts[rank]));
    }
    return WriteOracle(dir, WordCountDigest(std::move(expected)),
                       stats.total_words);
  }
  if (w.name == "kmeans_bsp") {
    TimedKMeans program;
    MRS_RETURN_IF_ERROR(program.Init(SeedOptions(seed)));
    MRS_RETURN_IF_ERROR(program.Bypass());
    return WriteOracle(dir, CentroidDigest(program.centroids),
                       static_cast<uint64_t>(kKMeansPoints) *
                           static_cast<uint64_t>(program.rounds_run));
  }
  if (w.name == "distsort_spill") {
    TimedDistSort program;
    MRS_RETURN_IF_ERROR(program.Init(SeedOptions(seed)));
    std::vector<KeyValue> expected = program.ExpectedOutput();
    return WriteOracle(dir, RecordsDigest(expected), expected.size());
  }
  // pi_typed: the plain serial loop over the same window.  Every engine
  // must count identically, so the native kernel is the oracle.
  MRS_ASSIGN_OR_RETURN(std::unique_ptr<PiKernel> kernel,
                       PiKernel::Create(PiEngine::kNative));
  MRS_ASSIGN_OR_RETURN(uint64_t inside,
                       kernel->CountInside(PiOffset(seed),
                                           static_cast<uint64_t>(kPiSamples)));
  return WriteOracle(dir, std::to_string(inside),
                     static_cast<uint64_t>(kPiSamples));
}

// ---- run --------------------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Timings {
  double setup_start = 0, setup_end = 0;
  double job_start = 0, job_end = 0;
  double teardown_end = 0;
  double cpu_s = 0;
};

/// The program-specific parts of one run.
struct Instance {
  std::unique_ptr<MapReduce> program;
  ProgramFactory factory;
  std::function<std::string()> digest;
};

Instance MakeInstance(const Workload& w, uint64_t seed, const std::string& dir) {
  Instance in;
  if (w.name == "wordcount") {
    std::string corpus = CorpusDir(dir);
    in.factory = [corpus]() -> std::unique_ptr<MapReduce> {
      auto p = std::make_unique<Timed<WordCount>>();
      p->input_dir = corpus;
      return p;
    };
    in.program = in.factory();
    auto* p = static_cast<WordCount*>(in.program.get());
    in.digest = [p] {
      std::vector<std::pair<std::string, int64_t>> wc;
      wc.reserve(p->output.size());
      for (const KeyValue& kv : p->output) {
        wc.emplace_back(kv.key.AsString(), kv.value.AsInt());
      }
      return WordCountDigest(std::move(wc));
    };
  } else if (w.name == "kmeans_bsp") {
    in.factory = [] { return std::make_unique<TimedKMeans>(); };
    in.program = in.factory();
    auto* p = static_cast<TimedKMeans*>(in.program.get());
    in.digest = [p] { return CentroidDigest(p->centroids); };
  } else if (w.name == "distsort_spill") {
    in.factory = [] { return std::make_unique<TimedDistSort>(); };
    in.program = in.factory();
    auto* p = static_cast<TimedDistSort*>(in.program.get());
    in.digest = [p] { return RecordsDigest(p->result); };
  } else {
    uint64_t offset = PiOffset(seed);
    in.factory = [offset]() -> std::unique_ptr<MapReduce> {
      auto p = std::make_unique<TimedPi>();
      p->offset = offset;
      return p;
    };
    in.program = in.factory();
    auto* p = static_cast<TimedPi*>(in.program.get());
    in.digest = [p] { return std::to_string(p->inside); };
  }
  return in;
}

/// Set up, run and tear down one job.  Every timestamp is taken here, in
/// the benchmark, around a public call into the layer it names.
Status RunOnce(const Workload& w, uint64_t seed, Instance* in,
               DriverLane* lane, Timings* t) {
  const Options opts = SeedOptions(seed);
  const int slots = TaskSlots();
  const double cpu0 = CpuSeconds();
  Status status;

  t->setup_start = Now();
  MRS_RETURN_IF_ERROR(in->program->Init(opts));
  if (w.masterslave) {
    ClusterLauncher::Config config;
    config.num_slaves = slots;
    MRS_ASSIGN_OR_RETURN(std::unique_ptr<ClusterLauncher> cluster,
                         ClusterLauncher::Start(in->factory, opts, config));
    auto job = std::make_unique<Job>(
        in->program.get(),
        std::make_unique<TimingRunner>(
            std::make_unique<MasterRunner>(&cluster->master()), lane));
    job->set_default_parallelism(slots * 2);
    t->setup_end = t->job_start = Now();
    status = in->program->Run(*job);
    t->job_end = Now();
    cluster->Shutdown();
    job.reset();
    cluster.reset();
  } else {
    MemoryBudget::Process().set_limit(SortBudget());
    auto job = std::make_unique<Job>(
        in->program.get(),
        std::make_unique<TimingRunner>(
            std::make_unique<ThreadRunner>(in->program.get(), slots), lane));
    job->set_default_parallelism(slots * 2);
    t->setup_end = t->job_start = Now();
    status = in->program->Run(*job);
    t->job_end = Now();
    job.reset();
  }
  t->teardown_end = Now();
  t->cpu_s = CpuSeconds() - cpu0;
  return status;
}

/// Extra set-ups without a job, for the thread runner only: its set-up
/// takes about a millisecond, so one job's alone is too few samples for a
/// steady median.  A masterslave cycle costs 0.3 s of teardown and gets
/// none; its run has several jobs' set-ups instead.  Tear-down is not
/// sampled this way: a runner torn down without a job behind it skips
/// the clean-up of the job's state, which is what users wait for.
constexpr int kExtraThreadSetups = 20;

/// Times `count` more Program::Init + ThreadRunner construction calls.
Status ExtraThreadSetups(uint64_t seed, Instance* in, int count,
                         std::vector<double>* setup) {
  const Options opts = SeedOptions(seed);
  for (int i = 0; i < count; ++i) {
    std::unique_ptr<MapReduce> program = in->factory();
    double t0 = Now();
    MRS_RETURN_IF_ERROR(program->Init(opts));
    auto runner = std::make_unique<ThreadRunner>(program.get(), TaskSlots());
    setup->push_back(Now() - t0);
  }
  return Status::Ok();
}

// ---- JSON output --------------------------------------------------------------

std::string Num(double v) { return StrPrintf("%.9g", v); }
/// Absolute steady-clock timestamps need microsecond digits.
std::string Stamp(double t) { return StrPrintf("%.9f", t); }

std::string Quote(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

int Run(const Workload& w, uint64_t seed, const std::string& dir, bool trace) {
  auto oracle_text = ReadFileToString(JoinPath(dir, "oracle.txt"));
  if (!oracle_text.ok()) {
    std::fprintf(stderr, "perfbench_job: no oracle in %s (run prepare)\n",
                 dir.c_str());
    return 2;
  }
  std::vector<std::string_view> oracle = SplitWhitespace(*oracle_text);
  if (oracle.size() != 2) {
    std::fprintf(stderr, "perfbench_job: malformed oracle\n");
    return 2;
  }
  const std::string expected_digest(oracle[0]);
  const double work = std::strtod(std::string(oracle[1]).c_str(), nullptr);

  g_time_callbacks.store(trace);
  obs::TraceBuffer::Instance().Clear();
  const std::map<std::string, int64_t> counters0 =
      obs::Registry::Instance().CounterValues();
  auto& registry = obs::Registry::Instance();
  const char* kHistograms[] = {"mrs.http.client.request_seconds",
                               "mrs.http.server.handle_seconds",
                               "mrs.shuffle.lock_wait_s",
                               "mrs.spill.merge_fan_in"};
  std::map<std::string, std::pair<double, int64_t>> hist0;
  for (const char* h : kHistograms) {
    obs::Histogram* hist =
        registry.GetHistogram(h, std::strcmp(h, "mrs.spill.merge_fan_in") == 0
                                     ? 1.0
                                     : obs::Histogram::kDefaultBase);
    hist0[h] = {hist->sum(), hist->count()};
  }

  Instance in = MakeInstance(w, seed, dir);
  DriverLane lane;
  Timings t;
  Status status = RunOnce(w, seed, &in, &lane, &t);
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> setup_samples = {t.setup_end - t.setup_start};
  if (status.ok() && !w.masterslave) {
    status = ExtraThreadSetups(seed, &in, kExtraThreadSetups, &setup_samples);
  }

  std::map<std::string, int64_t> counters;
  for (const auto& [name, value] : registry.CounterValues()) {
    auto before = counters0.find(name);
    counters[name] =
        value - (before == counters0.end() ? 0 : before->second);
  }

  std::string got_digest = status.ok() ? in.digest() : "";
  bool correct = status.ok() && got_digest == expected_digest;
  std::string error = status.ok() ? "" : status.ToString();
  if (status.ok() && !correct) {
    error = "output digest " + got_digest + " != oracle " + expected_digest;
  }
  if (correct && w.name == "distsort_spill" &&
      counters["mrs.spill.bytes_spilled"] <= 0) {
    correct = false;
    error = "memory budget never bit: nothing spilled";
  }

  std::string out = "{";
  out += "\"workload\":" + Quote(w.name);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"slots\":" + std::to_string(TaskSlots());
  out += ",\"runner\":" + Quote(w.masterslave ? "masterslave" : "thread");
  out += ",\"ok\":" + std::string(status.ok() ? "true" : "false");
  out += ",\"correct\":" + std::string(correct ? "true" : "false");
  out += ",\"error\":" + Quote(error);
  out += ",\"work\":" + Num(work);
  out += ",\"work_unit\":" + Quote(w.work_unit);
  out += ",\"setup_start\":" + Stamp(t.setup_start);
  out += ",\"setup_end\":" + Stamp(t.setup_end);
  out += ",\"job_start\":" + Stamp(t.job_start);
  out += ",\"job_end\":" + Stamp(t.job_end);
  out += ",\"teardown_end\":" + Stamp(t.teardown_end);
  out += ",\"cpu_s\":" + Num(t.cpu_s);
  out += ",\"peak_rss_mb\":" + Num(peak_rss_mb);
  auto list = [](const std::vector<double>& values) {
    std::string text = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      text += (i > 0 ? "," : "") + Num(values[i]);
    }
    return text + "]";
  };
  out += ",\"setup_samples\":" + list(setup_samples);

  out += ",\"driver\":[";
  bool first = true;
  for (const DriverSpan& s : lane.spans()) {
    if (!first) out += ",";
    first = false;
    out += "[" + Quote(s.kind) + "," + Stamp(s.start) + "," + Stamp(s.end) +
           "," + std::to_string(s.bytes) + "]";
  }
  out += "]";

  out += ",\"counters\":{";
  first = true;
  for (const auto& [name, delta] : counters) {
    if (!first) out += ",";
    first = false;
    out += Quote(name) + ":" + std::to_string(delta);
  }
  out += "}";

  out += ",\"histograms\":{";
  first = true;
  for (const char* h : kHistograms) {
    obs::Histogram* hist = registry.GetHistogram(h);
    if (!first) out += ",";
    first = false;
    out += Quote(h) + ":[" + std::to_string(hist->count() - hist0[h].second) +
           "," + Num(hist->sum() - hist0[h].first) + "]";
  }
  out += "}";
  out += ",\"budget_high_water\":" +
         Num(registry.GetGauge("mrs.spill.budget_high_water")->value());

  if (trace) {
    out += ",\"user\":{";
    const std::pair<const char*, CallbackStat*> stats[] = {
        {"map", &g_map}, {"reduce", &g_reduce}, {"combine", &g_combine}};
    first = true;
    for (const auto& [name, stat] : stats) {
      if (!first) out += ",";
      first = false;
      out += Quote(name) + ":[" + std::to_string(stat->calls.load()) + "," +
             Num(static_cast<double>(stat->ns.load()) / 1e9) + "]";
    }
    out += "}";

    const obs::TraceBuffer& ring = obs::TraceBuffer::Instance();
    out += ",\"spans_recorded\":" + std::to_string(ring.total_recorded());
    out += ",\"tasks\":[";
    first = true;
    for (const obs::TraceSpan& s : ring.Snapshot()) {
      if (!first) out += ",";
      first = false;
      out += "[" + Quote(s.name) + "," + Quote(s.cat) + "," +
             Stamp(s.start_seconds) + "," +
             Stamp(s.start_seconds + s.wall_seconds) + "," +
             Num(s.cpu_seconds) + "," + std::to_string(s.bytes_in) + "," +
             std::to_string(s.bytes_out) + "," + std::to_string(s.tid) + "]";
    }
    out += "]";
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_job prepare <workload> <seed> <dir>\n"
               "       perfbench_job run <workload> <seed> <dir> <trace 0|1>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace mrs

int main(int argc, char** argv) {
  using namespace mrs::perfbench;
  if (argc < 5) return Usage();
  const std::string command = argv[1];
  const Workload* w = FindWorkload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench_job: unknown workload %s\n", argv[2]);
    return 2;
  }
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const std::string dir = argv[4];
  if (command == "prepare" && argc == 5) {
    mrs::Status status = Prepare(*w, seed, dir);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench_job: prepare failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command == "run" && argc == 6) {
    return Run(*w, seed, dir, std::strcmp(argv[5], "1") == 0);
  }
  return Usage();
}
