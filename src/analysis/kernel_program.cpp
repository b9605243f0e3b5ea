#include "analysis/kernel_program.h"

#include <utility>
#include <vector>

#include "common/log.h"
#include "core/dataset.h"
#include "fs/file_io.h"
#include "interp/vm.h"
#include "obs/metrics.h"

namespace mrs {
namespace analysis {
namespace {

using minipy::PyList;
using minipy::PyValue;

PyValue ToPy(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNone:
      return PyValue();
    case Value::Type::kInt:
      return PyValue(v.AsInt());
    case Value::Type::kDouble:
      return PyValue(v.AsDouble());
    case Value::Type::kString:
    case Value::Type::kBytes:
      return PyValue(std::string(v.AsString()));
    case Value::Type::kList: {
      PyList items;
      items.reserve(v.AsList().size());
      for (const Value& item : v.AsList()) items.push_back(ToPy(item));
      return PyValue(std::move(items));
    }
  }
  return PyValue();
}

Value FromPy(const PyValue& v) {
  switch (v.type()) {
    case PyValue::Type::kNone:
      return Value();
    case PyValue::Type::kBool:
    case PyValue::Type::kInt:
      return Value(v.AsInt());
    case PyValue::Type::kFloat:
      return Value(v.AsFloat());
    case PyValue::Type::kString:
      return Value(v.AsString());
    case PyValue::Type::kList: {
      ValueList items;
      items.reserve(v.AsList().size());
      for (const PyValue& item : v.AsList()) items.push_back(FromPy(item));
      return Value(std::move(items));
    }
  }
  return Value();
}

obs::Counter* RuntimeErrors() {
  static obs::Counter* c =
      obs::Registry::Instance().GetCounter("mrs.analysis.kernel_runtime_errors");
  return c;
}

}  // namespace

/// Per-(thread, program) execution state.  The active emitter pointers are
/// only set for the duration of one Map/Reduce/Combine call on the owning
/// thread, so `emit` dispatches without any synchronization.
struct MiniPyProgram::KernelVm {
  const MiniPyProgram* owner = nullptr;
  std::shared_ptr<minipy::CompiledModule> module;
  minipy::Vm vm;
  bool load_failed = false;
  const Emitter* pair_emit = nullptr;
  const ValueEmitter* value_emit = nullptr;
};

MiniPyProgram::MiniPyProgram(std::string source, std::string name)
    : source_(std::move(source)), name_(std::move(name)) {
  AnalysisOptions options;
  options.kernel_profile = true;
  analysis_ = AnalyzeKernelSource(source_, options);
}

Result<std::unique_ptr<MiniPyProgram>> MiniPyProgram::FromFile(
    const std::string& path) {
  MRS_ASSIGN_OR_RETURN(std::string source, ReadFileToString(path));
  return std::make_unique<MiniPyProgram>(std::move(source), path);
}

bool MiniPyProgram::HasKernelCombine() const {
  return analysis_.module != nullptr &&
         analysis_.module->FunctionIndex("combine") >= 0;
}

Status MiniPyProgram::ValidateOperation(DataSetKind kind,
                                        const DataSetOptions& options) {
  if (!analysis_.ok()) {
    return DiagnosticsToStatus(analysis_.diagnostics, name_);
  }
  return MapReduce::ValidateOperation(kind, options);
}

MiniPyProgram::KernelVm* MiniPyProgram::VmForThisThread() const {
  if (analysis_.module == nullptr) return nullptr;
  // Entries hold their module alive, so an entry whose module pointer
  // matches ours is genuinely ours (a dead program's address could be
  // reused, but its still-referenced module's cannot).
  thread_local std::vector<std::unique_ptr<KernelVm>> cache;
  for (const auto& entry : cache) {
    if (entry->owner == this && entry->module == analysis_.module) {
      return entry->load_failed ? nullptr : entry.get();
    }
  }
  auto entry = std::make_unique<KernelVm>();
  KernelVm* kvm = entry.get();
  kvm->owner = this;
  kvm->module = analysis_.module;
  kvm->vm.RegisterHost("emit", [kvm](std::vector<PyValue>& args)
                                   -> Result<PyValue> {
    if (kvm->pair_emit != nullptr) {
      if (args.size() != 2) {
        return InvalidArgumentError("map emit() takes emit(key, value)");
      }
      (*kvm->pair_emit)(FromPy(args[0]), FromPy(args[1]));
      return PyValue();
    }
    if (kvm->value_emit != nullptr) {
      if (args.size() != 1) {
        return InvalidArgumentError("reduce emit() takes emit(value)");
      }
      (*kvm->value_emit)(FromPy(args[0]));
      return PyValue();
    }
    return FailedPreconditionError("emit() called outside an operation");
  });
  Status loaded = kvm->vm.LoadModule(analysis_.module);
  if (!loaded.ok()) {
    kvm->load_failed = true;
    RuntimeErrors()->Inc();
    MRS_LOG(kError, "kernel") << name_ << ": module init failed: "
                              << loaded.message();
  }
  cache.push_back(std::move(entry));
  return kvm->load_failed ? nullptr : kvm;
}

void MiniPyProgram::Map(const Value& key, const Value& value,
                        const Emitter& emit) {
  KernelVm* kvm = VmForThisThread();
  if (kvm == nullptr) return;
  kvm->pair_emit = &emit;
  kvm->value_emit = nullptr;
  Result<PyValue> out = kvm->vm.Call("map", {ToPy(key), ToPy(value)});
  kvm->pair_emit = nullptr;
  if (!out.ok()) {
    RuntimeErrors()->Inc();
    MRS_LOG(kError, "kernel")
        << name_ << ": map(" << key.Repr() << ", ...): "
        << out.status().message();
  }
}

void MiniPyProgram::Reduce(const Value& key, const ValueList& values,
                           const ValueEmitter& emit) {
  KernelVm* kvm = VmForThisThread();
  if (kvm == nullptr) return;
  PyList pyvalues;
  pyvalues.reserve(values.size());
  for (const Value& v : values) pyvalues.push_back(ToPy(v));
  kvm->value_emit = &emit;
  kvm->pair_emit = nullptr;
  Result<PyValue> out =
      kvm->vm.Call("reduce", {ToPy(key), PyValue(std::move(pyvalues))});
  kvm->value_emit = nullptr;
  if (!out.ok()) {
    RuntimeErrors()->Inc();
    MRS_LOG(kError, "kernel")
        << name_ << ": reduce(" << key.Repr() << ", ...): "
        << out.status().message();
  }
}

void MiniPyProgram::Combine(const Value& key, const ValueList& values,
                            const ValueEmitter& emit) {
  if (!HasKernelCombine()) {
    // Same default as the base class: an associative single-value reduce
    // doubles as the combiner.
    MiniPyProgram::Reduce(key, values, emit);
    return;
  }
  KernelVm* kvm = VmForThisThread();
  if (kvm == nullptr) return;
  PyList pyvalues;
  pyvalues.reserve(values.size());
  for (const Value& v : values) pyvalues.push_back(ToPy(v));
  kvm->value_emit = &emit;
  kvm->pair_emit = nullptr;
  Result<PyValue> out =
      kvm->vm.Call("combine", {ToPy(key), PyValue(std::move(pyvalues))});
  kvm->value_emit = nullptr;
  if (!out.ok()) {
    RuntimeErrors()->Inc();
    MRS_LOG(kError, "kernel")
        << name_ << ": combine(" << key.Repr() << ", ...): "
        << out.status().message();
  }
}

}  // namespace analysis
}  // namespace mrs
