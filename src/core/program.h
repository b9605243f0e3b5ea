// The Mrs programming model (paper §IV-A), in C++.
//
// A program derives from mrs::MapReduce and overrides Map and Reduce (and
// optionally Combine, Partition, InputData, Run, Bypass).  The simplest
// program is WordCount:
//
//   class WordCount : public mrs::MapReduce {
//    public:
//     void Map(const Value& key, const Value& value, const Emitter& emit) override {
//       // AsString() is a std::string_view into the Value: no copy.
//       for (std::string_view word : SplitWhitespace(value.AsString())) {
//         emit(Value(word), Value(1));
//       }
//     }
//     void Reduce(const Value& key, const ValueList& values, const ValueEmitter& emit) override {
//       int64_t sum = 0;
//       for (const Value& v : values) sum += v.AsInt();
//       emit(Value(sum));
//     }
//   };
//   int main(int argc, char** argv) { return mrs::Main<WordCount>(argc, argv); }
//
// Iterative programs (like PSO) override Run(job) and queue several map /
// reduce operations per iteration; named operations registered with
// RegisterMap / RegisterReduce let one program carry multiple map or reduce
// functions.  Operations are addressed by *name* rather than function
// pointer so that a separate-process slave, constructing its own program
// instance from the same binary, resolves the identical function.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/options.h"
#include "common/status.h"
#include "rng/streams.h"
#include "ser/value.h"

namespace mrs {

class Job;
enum class DataSetKind;
struct DataSetOptions;

/// Emit one (key, value) pair from a map function.
using Emitter = std::function<void(Value, Value)>;
/// Emit one value from a reduce function (the key is implicit).
using ValueEmitter = std::function<void(Value)>;

/// map: (K1, V1) -> list((K2, V2)), expressed in emit style.
using MapFn = std::function<void(const Value& key, const Value& value,
                                 const Emitter& emit)>;
/// reduce: (K2, list(V2)) -> list(V2).
using ReduceFn = std::function<void(const Value& key, const ValueList& values,
                                    const ValueEmitter& emit)>;

/// Base class for MapReduce programs.
class MapReduce {
 public:
  MapReduce();
  virtual ~MapReduce() = default;

  /// Declare program-specific command-line options (called before
  /// parsing).  Default: none.
  virtual void AddOptions(OptionParser* parser) { (void)parser; }

  /// Framework entry: called once after option parsing, before Run.
  /// Default stores opts and seeds the random-stream source from
  /// --mrs-seed.  Override to parse program-specific options (call the
  /// base first).
  virtual Status Init(const Options& opts);

  // ---- The MapReduce operations -------------------------------------

  /// The default map function (operation name "map").
  virtual void Map(const Value& key, const Value& value, const Emitter& emit);

  /// The default reduce function (operation name "reduce").
  virtual void Reduce(const Value& key, const ValueList& values,
                      const ValueEmitter& emit);

  /// Combiner for map-side local reduction (operation name "combine").
  /// The default delegates to Reduce, which is correct whenever the reduce
  /// function is associative and emits a single value per key (as in
  /// WordCount, where "the reduce function can function as a combiner
  /// without any modifications").  Programs with non-combinable reduces
  /// must not enable the combiner.
  virtual void Combine(const Value& key, const ValueList& values,
                       const ValueEmitter& emit);

  /// Partition function: maps a key to one of num_splits output buckets.
  /// Default: deterministic hash partitioning.
  virtual int Partition(const Value& key, int num_splits) const;

  /// Submit-time validation hook, called by Job::MapData / Job::ReduceData
  /// before the operation reaches any runner.  A non-Ok status rejects the
  /// dataset: no tasks are dispatched on any runner, and the status is
  /// returned from Job::Wait / Job::Collect.  The default checks that
  /// options.op_name (and the combiner, when enabled) resolves to a
  /// registered operation; programs with analyzable kernels (e.g.
  /// analysis::MiniPyProgram) override this to run full static analysis.
  virtual Status ValidateOperation(DataSetKind kind,
                                   const DataSetOptions& options);

  // ---- Program structure ---------------------------------------------

  /// Produce the input dataset.  Default: treat positional command-line
  /// arguments as files or directories (read recursively) of text, one
  /// record per line.
  virtual Status InputData(Job& job, std::shared_ptr<class DataSet>* out);

  /// Drive the computation.  Default: input -> map -> reduce, then print
  /// the result as text records to stdout (or --mrs-output file).
  virtual Status Run(Job& job);

  /// The bypass implementation: a plain serial version of the program that
  /// avoids almost all of the framework, for debugging.  Default:
  /// unimplemented.
  virtual Status Bypass();

  // ---- Iterative/BSP broadcast (paper §IV-A, iterative programs) ------

  /// True while the currently executing operation carries a broadcast
  /// delta (DataSetOptions::broadcast).  Valid only inside map / reduce /
  /// combine functions.
  static bool HasBroadcast();

  /// The broadcast value for the currently executing operation.  Returns
  /// a None value when no broadcast is attached.  The value is installed
  /// per-thread around each task invocation, so it is correct on every
  /// runner — including out-of-process slaves, which receive the value
  /// with the task assignment over the binary data plane.
  static const Value& Broadcast();

  // ---- Independent random streams (paper §IV-A) ----------------------

  /// Returns a generator unique to the argument tuple (plus the program
  /// seed).  Use e.g. Random({kIterTag, iteration, task}) so every task in
  /// every iteration gets an independent, reproducible stream.
  MT19937_64 Random(std::initializer_list<uint64_t> args) const {
    return streams_.Get(
        std::span<const uint64_t>(args.begin(), args.size()));
  }
  MT19937_64 Random(std::span<const uint64_t> args) const {
    return streams_.Get(args);
  }

  // ---- Named-operation registry --------------------------------------

  void RegisterMap(const std::string& name, MapFn fn);
  void RegisterReduce(const std::string& name, ReduceFn fn);
  /// Lookup a registered map/reduce function; "map"/"reduce"/"combine"
  /// resolve to the virtual methods.
  Result<MapFn> FindMap(const std::string& name) const;
  Result<ReduceFn> FindReduce(const std::string& name) const;

  const Options& opts() const { return opts_; }
  uint64_t seed() const { return streams_.program_seed(); }

 private:
  Options opts_;
  RandomStreams streams_;
  std::map<std::string, MapFn> map_fns_;
  std::map<std::string, ReduceFn> reduce_fns_;
};

/// Factory signature used by Main<Program> and by slave processes to build
/// their own program instance.
using ProgramFactory = std::function<std::unique_ptr<MapReduce>()>;

/// RAII guard installing the per-thread broadcast value read by
/// MapReduce::Broadcast().  Only RunUserCode (core/task.h) constructs one,
/// around every call into user code — a task's map or reduce, and the
/// thread runner's per-worker combines; user code never constructs it
/// directly.
class BroadcastScope {
 public:
  explicit BroadcastScope(const Value* broadcast);
  ~BroadcastScope();
  BroadcastScope(const BroadcastScope&) = delete;
  BroadcastScope& operator=(const BroadcastScope&) = delete;

 private:
  const Value* prev_;
};

}  // namespace mrs
