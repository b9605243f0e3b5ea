// Type inference and the typed VM tier: lattice algebra, inferred
// signatures (call-site guards, int speculation, demotion), the shared
// definite-assignment entry rule, fact-table serialization, and — the
// adversarial core — a mutated fact-table corpus plus a seeded
// differential fuzzer proving TreeWalker, the generic VM, and the typed
// tier bit-identical (including every deopt path, every zero-divisor
// and integer-overflow error, and the fused kDivModI), plus shape tests
// pinning the loop code the typed tier emits for the π kernel.
//
// The corpus protocol mirrors the bytecode-mutant one in
// test_analysis.cpp: a mutated table is either rejected by
// CheckTypeFacts (and the VM, which re-checks, falls back to
// generic-only) or it is accepted — in which case running through it
// must still produce exactly the generic results.  Either way the
// process survives and no wrong answer escapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "halton/halton.h"
#include "interp/compiler.h"
#include "interp/treewalk.h"
#include "interp/typedtier.h"
#include "interp/typefacts.h"
#include "interp/vm.h"
#include "obs/metrics.h"

namespace mrs {
namespace analysis {
namespace {

using minipy::CompiledModule;
using minipy::FunctionFacts;
using minipy::PyValue;
using minipy::TInstr;
using minipy::TOp;
using minipy::TypedFunction;
using minipy::TypedModule;
using minipy::TypeFactTable;
using minipy::ValueType;

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kTwoTo40 = int64_t{1} << 40;

AnalysisOptions PlainModule() {
  AnalysisOptions options;
  options.kernel_profile = false;  // plain functions, not a map/reduce kernel
  return options;
}

/// Analyzes `source` as a plain module and requires a checkable table.
AnalysisResult AnalyzeOrDie(const std::string& source) {
  AnalysisResult result = AnalyzeKernelSource(source, PlainModule());
  EXPECT_TRUE(result.ok()) << source;
  EXPECT_NE(result.module, nullptr);
  if (result.module) {
    EXPECT_NE(result.module->type_facts, nullptr);
  }
  return result;
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::string& name) {
  auto after = obs::Registry::Instance().CounterValues();
  auto b = before.find(name);
  auto a = after.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

const InferredSignature* FindSig(const AnalysisResult& result,
                                 const std::string& name) {
  for (const InferredSignature& sig : result.signatures) {
    if (sig.name == name) return &sig;
  }
  return nullptr;
}

// ---- Lattice algebra ---------------------------------------------------

TEST(TypeLattice, JoinIsFlatAndCommutative) {
  using minipy::JoinType;
  const ValueType all[] = {ValueType::kBottom, ValueType::kNone,
                           ValueType::kBool,   ValueType::kInt,
                           ValueType::kFloat,  ValueType::kStr,
                           ValueType::kList,   ValueType::kTop};
  for (ValueType a : all) {
    EXPECT_EQ(JoinType(a, a), a);
    EXPECT_EQ(JoinType(a, ValueType::kBottom), a);
    EXPECT_EQ(JoinType(a, ValueType::kTop), ValueType::kTop);
    for (ValueType b : all) {
      EXPECT_EQ(JoinType(a, b), JoinType(b, a));
      // The join is the least upper bound: both operands are below it.
      EXPECT_TRUE(minipy::TypeLe(a, JoinType(a, b)));
    }
  }
  // Distinct concrete types have no common concrete bound (flat lattice).
  EXPECT_EQ(JoinType(ValueType::kInt, ValueType::kFloat), ValueType::kTop);
  EXPECT_EQ(JoinType(ValueType::kStr, ValueType::kList), ValueType::kTop);
}

TEST(TypeLattice, CharCodesRoundTrip) {
  const ValueType all[] = {ValueType::kBottom, ValueType::kNone,
                           ValueType::kBool,   ValueType::kInt,
                           ValueType::kFloat,  ValueType::kStr,
                           ValueType::kList,   ValueType::kTop};
  for (ValueType t : all) {
    ValueType back;
    ASSERT_TRUE(minipy::TypeFromChar(minipy::TypeChar(t), &back));
    EXPECT_EQ(back, t);
  }
  ValueType ignored;
  EXPECT_FALSE(minipy::TypeFromChar('x', &ignored));
  EXPECT_FALSE(minipy::TypeFromChar(' ', &ignored));
}

// ---- Definite assignment (the shared entry rule) -----------------------

TEST(DefiniteAssignment, LoopCarriedLocalsAreNeverReadUnassigned) {
  auto module = minipy::CompileSource(
      "def f(n):\n"
      "    i = 0\n"
      "    while i < n:\n"
      "        x = i * 2\n"
      "        i = i + x\n"
      "    return i\n");
  ASSERT_TRUE(module.ok());
  int fi = (*module)->FunctionIndex("f");
  ASSERT_GE(fi, 0);
  const minipy::CompiledFunction& fn = (*module)->functions[fi];
  std::vector<bool> maybe = minipy::LocalsReadBeforeAssign(fn);
  ASSERT_EQ(maybe.size(), static_cast<size_t>(fn.num_locals));
  for (size_t slot = 0; slot < maybe.size(); ++slot) {
    EXPECT_FALSE(maybe[slot]) << "local '" << fn.local_names[slot]
                              << "' is assigned on every path to a read";
  }
}

TEST(DefiniteAssignment, ConditionallyAssignedLocalIsFlagged) {
  auto module = minipy::CompileSource(
      "def g(n):\n"
      "    if n > 0:\n"
      "        y = 1\n"
      "    return y\n");
  ASSERT_TRUE(module.ok());
  int fi = (*module)->FunctionIndex("g");
  ASSERT_GE(fi, 0);
  const minipy::CompiledFunction& fn = (*module)->functions[fi];
  std::vector<bool> maybe = minipy::LocalsReadBeforeAssign(fn);
  bool found_y = false;
  for (size_t slot = 0; slot < fn.local_names.size(); ++slot) {
    if (fn.local_names[slot] == "y") {
      found_y = true;
      EXPECT_TRUE(maybe[slot]) << "'y' can be read unassigned when n <= 0";
    }
  }
  EXPECT_TRUE(found_y);
}

// ---- Inferred signatures ------------------------------------------------

TEST(Signatures, CallSitesPinTheGuardExactly) {
  AnalysisResult result = AnalyzeOrDie(
      "def mul(a, b):\n"
      "    return a * b\n"
      "def use():\n"
      "    return mul(2, 3) + mul(4, 5)\n");
  const InferredSignature* mul = FindSig(result, "mul");
  ASSERT_NE(mul, nullptr);
  ASSERT_EQ(mul->params.size(), 2u);
  // Every static call site passes int literals, so the guard is pinned
  // by evidence and nothing about it is speculative.
  EXPECT_EQ(mul->params[0], ValueType::kInt);
  EXPECT_EQ(mul->params[1], ValueType::kInt);
  EXPECT_EQ(mul->ret, ValueType::kInt);
  EXPECT_FALSE(mul->speculative);
}

TEST(Signatures, HostCalledFunctionsSpeculateInt) {
  AnalysisResult result = AnalyzeOrDie(
      "def add(a, b):\n"
      "    return a + b\n");
  const InferredSignature* add = FindSig(result, "add");
  ASSERT_NE(add, nullptr);
  ASSERT_EQ(add->params.size(), 2u);
  EXPECT_EQ(add->params[0], ValueType::kInt);
  EXPECT_EQ(add->params[1], ValueType::kInt);
  EXPECT_EQ(add->ret, ValueType::kInt);
  EXPECT_TRUE(add->speculative);
}

TEST(Signatures, WrongSpeculationIsDemotedNotShippedAsUnreachable) {
  // Int speculation on a list-taking function makes the whole body a
  // guaranteed TypeError; the demotion loop must widen the guard to any
  // rather than publish a signature with an unreachable return.
  AnalysisResult result = AnalyzeOrDie(
      "def first(xs):\n"
      "    return xs[0] + len(xs)\n");
  const InferredSignature* first = FindSig(result, "first");
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(first->params.size(), 1u);
  EXPECT_EQ(first->params[0], ValueType::kTop);
  EXPECT_FALSE(first->speculative);
  EXPECT_NE(first->ret, ValueType::kBottom);
}

TEST(Signatures, GlobalsAreTypedFromTopLevelStores) {
  AnalysisResult result = AnalyzeOrDie(
      "scale = 2.5\n"
      "def f(x):\n"
      "    return x * scale\n");
  const InferredSignature* f = FindSig(result, "f");
  ASSERT_NE(f, nullptr);
  // x speculated int, scale proven float at the guard: int * float = float.
  EXPECT_EQ(f->ret, ValueType::kFloat);

  int fi = result.module->FunctionIndex("f");
  ASSERT_GE(fi, 0);
  const FunctionFacts& facts = result.module->type_facts->functions[fi];
  ASSERT_EQ(facts.global_reads.size(), 1u);
  EXPECT_EQ(facts.global_reads[0].second, ValueType::kFloat);

  // And the float-global guard is good enough for the typed tier.
  minipy::Vm typed;
  ASSERT_TRUE(typed.LoadModule(result.module).ok());
  EXPECT_TRUE(typed.HasTypedFunction("f"));
  minipy::Vm generic;
  generic.set_typed_tier_enabled(false);
  ASSERT_TRUE(generic.LoadModule(result.module).ok());
  auto a = typed.Call("f", {PyValue(int64_t{4})});
  auto b = generic.Call("f", {PyValue(int64_t{4})});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Repr(), b->Repr());
  EXPECT_EQ(a->Repr(), "10.0");
}

// ---- Serialization ------------------------------------------------------

TEST(TypeFactsSerialization, RoundTripsThroughTheChecker) {
  AnalysisResult result = AnalyzeOrDie(
      "base = 10\n"
      "def helper(x):\n"
      "    return x * 2 + base\n"
      "def f(a, b):\n"
      "    s = 0\n"
      "    i = 0\n"
      "    while i < a:\n"
      "        s = s + helper(i) + b\n"
      "        i = i + 1\n"
      "    return s\n");
  const TypeFactTable& table = *result.module->type_facts;
  std::string text = SerializeTypeFacts(table);
  EXPECT_EQ(text.rfind("mrstf1", 0), 0u) << "serialized header";

  auto parsed = minipy::ParseTypeFacts(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(minipy::CheckTypeFacts(*result.module, *parsed).ok());
  // Serialization is canonical: a round trip is byte-stable.
  EXPECT_EQ(SerializeTypeFacts(*parsed), text);
}

// ---- The mutated fact-table corpus -------------------------------------

struct MutantStats {
  int mutants = 0;
  int rejected = 0;
};

/// Runs one mutated table through the full consume path.  The table is
/// either rejected (checker says no; the VM must then count the
/// rejection and run generic-only) or accepted — and then executing
/// through it must reproduce `expected` exactly (a lying-but-checkable
/// table can only ever cause deopts, never wrong answers).
void RunTableMutant(const std::shared_ptr<CompiledModule>& base,
                    const TypeFactTable& mutant,
                    const std::vector<PyValue>& args,
                    const std::string& expected, MutantStats* stats) {
  ++stats->mutants;
  bool checker_ok = minipy::CheckTypeFacts(*base, mutant).ok();
  if (!checker_ok) ++stats->rejected;

  auto module = std::make_shared<CompiledModule>(*base);
  module->type_facts = std::make_shared<TypeFactTable>(mutant);
  auto before = obs::Registry::Instance().CounterValues();
  minipy::Vm vm;
  ASSERT_TRUE(vm.LoadModule(module).ok())
      << "a bad table must never fail the load — generic-only fallback";
  if (!checker_ok) {
    EXPECT_GE(Delta(before, "mrs.vm.type_facts_rejected"), 1);
    EXPECT_FALSE(vm.HasTypedFunction("f"));
  }
  auto got = vm.Call("f", args);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->Repr(), expected);
}

TEST(TypeFactsMutants, MutatedTablesAreRejectedNotCrashed) {
  AnalysisResult result = AnalyzeOrDie(
      "offset = 3\n"
      "def helper(x):\n"
      "    return x * 2 + offset\n"
      "def f(a, b):\n"
      "    s = 0\n"
      "    i = 0\n"
      "    while i < a:\n"
      "        s = s + helper(i) + b\n"
      "        i = i + 1\n"
      "    return s\n");
  std::shared_ptr<CompiledModule> base = result.module;
  const TypeFactTable& good = *base->type_facts;
  ASSERT_TRUE(minipy::CheckTypeFacts(*base, good).ok());

  const std::vector<PyValue> args = {PyValue(int64_t{6}), PyValue(int64_t{5})};
  minipy::Vm reference;
  reference.set_typed_tier_enabled(false);
  ASSERT_TRUE(reference.LoadModule(base).ok());
  auto expected = reference.Call("f", args);
  ASSERT_TRUE(expected.ok());
  const std::string want = expected->Repr();

  MutantStats stats;
  auto run = [&](const TypeFactTable& mutant) {
    RunTableMutant(base, mutant, args, want, &stats);
  };

  const ValueType kFlips[] = {ValueType::kStr, ValueType::kList,
                              ValueType::kBottom};
  for (size_t fi = 0; fi < good.functions.size(); ++fi) {
    const FunctionFacts& facts = good.functions[fi];
    // Per-slot row corruption: every reachable row, every slot, flipped
    // to types the flow cannot actually produce there.
    for (size_t pc = 0; pc < facts.rows.size(); ++pc) {
      if (!facts.rows[pc].reachable) continue;
      for (size_t slot = 0; slot < facts.rows[pc].locals.size(); ++slot) {
        for (ValueType flip : kFlips) {
          if (facts.rows[pc].locals[slot] == flip) continue;
          TypeFactTable m = good;
          m.functions[fi].rows[pc].locals[slot] = flip;
          run(m);
        }
      }
      for (size_t slot = 0; slot < facts.rows[pc].stack.size(); ++slot) {
        TypeFactTable m = good;
        m.functions[fi].rows[pc].stack[slot] = ValueType::kStr;
        run(m);
      }
    }
    // Guard and shape corruption.
    {
      TypeFactTable m = good;
      m.functions[fi].ret = ValueType::kBottom;  // "never returns"
      run(m);
    }
    {
      TypeFactTable m = good;
      m.functions[fi].ret = ValueType::kStr;
      run(m);
    }
    {
      TypeFactTable m = good;
      m.functions[fi].params.push_back(ValueType::kInt);  // arity lie
      run(m);
    }
    if (!facts.params.empty()) {
      TypeFactTable m = good;
      m.functions[fi].params.pop_back();
      run(m);
      m = good;
      m.functions[fi].params[0] = ValueType::kStr;  // different guard
      run(m);
    }
    {
      TypeFactTable m = good;
      m.functions[fi].global_reads.push_back({999, ValueType::kInt});
      run(m);
    }
    if (!facts.global_reads.empty()) {
      TypeFactTable m = good;
      m.functions[fi].global_reads[0].second = ValueType::kStr;
      run(m);
      m = good;
      m.functions[fi].global_reads.clear();  // drop the guard the rows use
      run(m);
    }
    if (!facts.rows.empty()) {
      TypeFactTable m = good;
      m.functions[fi].rows.resize(facts.rows.size() / 2);  // truncated
      run(m);
      m = good;
      m.functions[fi].rows[0] = minipy::TypeRow{};  // entry "unreachable"
      run(m);
    }
  }
  {
    TypeFactTable m = good;
    m.functions.pop_back();  // table/function-count mismatch
    run(m);
  }
  {
    TypeFactTable m = good;
    m.functions.emplace_back();
    run(m);
  }

  // The hand-edited-text attack: corrupt the serialized form and require
  // parse-or-check rejection (or harmless acceptance), never a crash.
  const std::string text = SerializeTypeFacts(good);
  auto run_text = [&](const std::string& mutated) {
    ++stats.mutants;
    auto parsed = minipy::ParseTypeFacts(mutated);
    if (!parsed.ok() || !minipy::CheckTypeFacts(*base, *parsed).ok()) {
      ++stats.rejected;
      return;
    }
    RunTableMutant(base, *parsed, args, want, &stats);
    --stats.mutants;  // RunTableMutant counted it again
  };
  for (size_t i = 0; i < text.size(); i += 7) {
    std::string m = text;
    m[i] = 'x';
    run_text(m);
  }
  for (size_t i = 0; i < text.size(); i += 23) {
    run_text(text.substr(0, i));  // truncations
  }
  run_text("mrstf9\n" + text.substr(7));  // wrong header version

  EXPECT_GT(stats.mutants, 100) << "corpus unexpectedly small";
  EXPECT_GT(stats.rejected * 2, stats.mutants)
      << stats.rejected << "/" << stats.mutants << " rejected";
}

// ---- The typed tier end to end -----------------------------------------

TEST(TypedTier, GuardFailureDeoptsAndStaysCorrect) {
  AnalysisResult result = AnalyzeOrDie(
      "def add(a, b):\n"
      "    return a + b\n");
  minipy::Vm vm;
  ASSERT_TRUE(vm.LoadModule(result.module).ok());
  ASSERT_TRUE(vm.HasTypedFunction("add"));

  auto before = obs::Registry::Instance().CounterValues();
  auto ints = vm.Call("add", {PyValue(int64_t{2}), PyValue(int64_t{3})});
  ASSERT_TRUE(ints.ok());
  EXPECT_EQ(ints->Repr(), "5");
  EXPECT_GE(Delta(before, "mrs.vm.typed_calls"), 1);
  EXPECT_EQ(Delta(before, "mrs.vm.deopts"), 0);

  // The guard speculated (int, int); float arguments must deopt to the
  // generic loop and still produce the exact Python answer.
  before = obs::Registry::Instance().CounterValues();
  auto floats = vm.Call("add", {PyValue(2.5), PyValue(3.25)});
  ASSERT_TRUE(floats.ok());
  EXPECT_EQ(floats->Repr(), "5.75");
  EXPECT_GE(Delta(before, "mrs.vm.deopts"), 1);

  // Deopt is per-call, not a permanent tier exit: ints are fast again.
  before = obs::Registry::Instance().CounterValues();
  auto again = vm.Call("add", {PyValue(int64_t{40}), PyValue(int64_t{2})});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Repr(), "42");
  EXPECT_GE(Delta(before, "mrs.vm.typed_calls"), 1);
  EXPECT_EQ(Delta(before, "mrs.vm.deopts"), 0);
}

TEST(TypedTier, EnvAndSetterDisableTheTier) {
  AnalysisResult result = AnalyzeOrDie(
      "def add(a, b):\n"
      "    return a + b\n");
  minipy::Vm vm;
  vm.set_typed_tier_enabled(false);
  ASSERT_TRUE(vm.LoadModule(result.module).ok());
  EXPECT_FALSE(vm.HasTypedFunction("add"));
  auto got = vm.Call("add", {PyValue(int64_t{2}), PyValue(int64_t{3})});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->Repr(), "5");
}

/// The part of an engine error after its location prefix ("line 3: " in
/// the tree walker, "in f: " in both VMs), e.g. "modulo by zero".
std::string ErrorKind(const Status& status) {
  const std::string& m = status.message();
  const size_t at = m.rfind(": ");
  return at == std::string::npos ? m : m.substr(at + 2);
}

const TypedFunction& TypedNamed(const TypedModule& typed,
                                const CompiledModule& module,
                                const std::string& name) {
  const int index = module.FunctionIndex(name);
  EXPECT_GE(index, 0) << name;
  return typed.functions[static_cast<size_t>(std::max(index, 0))];
}

size_t CountOps(const std::vector<TInstr>& code, TOp op) {
  return static_cast<size_t>(
      std::count_if(code.begin(), code.end(),
                    [op](const TInstr& t) { return t.op == op; }));
}

bool IsRotatedBranch(TOp op) {
  return op == TOp::kBrCmpTrueI || op == TOp::kBrCmpTrueF ||
         op == TOp::kBrCmpTrueIC || op == TOp::kBrCmpTrueFC;
}

/// The instructions of a function's only loop: from the target of its
/// one backward branch through that branch.
std::vector<TInstr> LoopBody(const TypedFunction& fn) {
  std::vector<TInstr> body;
  int back_edges = 0;
  for (size_t j = 0; j < fn.code.size(); ++j) {
    const TInstr& t = fn.code[j];
    const bool branch = t.op == TOp::kJump || IsRotatedBranch(t.op) ||
                        t.op == TOp::kBrTrueI || t.op == TOp::kBrTrueF;
    if (branch && t.a >= 0 && static_cast<size_t>(t.a) <= j) {
      ++back_edges;
      body.assign(fn.code.begin() + t.a, fn.code.begin() + j + 1);
    }
  }
  EXPECT_EQ(back_edges, 1) << fn.name;
  return body;
}

// Paper Fig 3's inner loop: each radical_inverse iteration is one fused
// divide, the float update, and one rotated compare-branch; `base` is
// converted to double once at entry, not per use.  A translator change
// that loses any of this shows up here before it shows up in perfbench.
TEST(TypedTier, PiKernelLoopsAreFusedRotatedAndHoisted) {
  AnalysisResult result = AnalyzeOrDie(HaltonPiMiniPySource());
  ASSERT_NE(result.module, nullptr);
  const TypedModule typed =
      minipy::BuildTypedModule(*result.module, *result.module->type_facts);

  const TypedFunction& ri =
      TypedNamed(typed, *result.module, "radical_inverse");
  ASSERT_TRUE(ri.eligible);
  EXPECT_EQ(CountOps(ri.code, TOp::kJump), 0u);
  const std::vector<TInstr> body = LoopBody(ri);
  ASSERT_FALSE(body.empty());
  EXPECT_LE(body.size(), 7u);
  EXPECT_EQ(CountOps(body, TOp::kDivModI), 1u);
  EXPECT_EQ(CountOps(body, TOp::kFloorDivI), 0u);
  EXPECT_EQ(CountOps(body, TOp::kModI), 0u);
  EXPECT_TRUE(IsRotatedBranch(body.back().op));
  for (const TInstr& t : body) {
    const bool converts_base = t.op == TOp::kCvtIF && t.b == 0;  // param 0
    EXPECT_FALSE(converts_base) << "kCvtIF of base inside the loop";
  }
  EXPECT_EQ(CountOps(ri.code, TOp::kCvtIF),
            CountOps(body, TOp::kCvtIF) + 1)  // + base's, at entry
      << "base is converted more than once";

  const TypedFunction& ci = TypedNamed(typed, *result.module, "count_inside");
  ASSERT_TRUE(ci.eligible);
  EXPECT_EQ(CountOps(ci.code, TOp::kJump), 0u);
  const std::vector<TInstr> outer = LoopBody(ci);
  ASSERT_FALSE(outer.empty());
  EXPECT_TRUE(IsRotatedBranch(outer.back().op));

  // And the code is still the π kernel: same count as the native loop.
  minipy::Vm vm;
  ASSERT_TRUE(vm.LoadModule(result.module).ok());
  auto before = obs::Registry::Instance().CounterValues();
  auto got = vm.Call("count_inside",
                     {PyValue(int64_t{100}), PyValue(int64_t{2000})});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(static_cast<uint64_t>(got->AsInt()),
            CountInsideNative(100, 2000));
  EXPECT_GE(Delta(before, "mrs.vm.typed_calls"), 1);
  EXPECT_EQ(Delta(before, "mrs.vm.deopts"), 0);
}

// Rotated float loops, slot/slot and slot/const, one over a NaN (every
// compare with NaN is false, so that loop never runs): the inverted
// back-edge must branch exactly as the loop-head test it replaces.  The
// int parameter x, compared as a float, reads its hoisted conversion.
TEST(TypedTier, RotatedFloatLoopsMatchTheOtherEngines) {
  const char* src =
      "def f(x):\n"
      "    n = 0\n"
      "    v = 0.0\n"
      "    while v < x:\n"
      "        v = v + 0.75\n"
      "        n = n + 1\n"
      "    while v > 1.5:\n"
      "        v = v - 0.5\n"
      "        n = n + 10\n"
      "    w = 1e308 * 10.0 - 1e308 * 10.0\n"
      "    while w < 3.5:\n"
      "        w = w + 1.0\n"
      "        n = n + 100\n"
      "    return n\n";
  AnalysisResult analyzed = AnalyzeOrDie(src);
  const TypedModule tm =
      minipy::BuildTypedModule(*analyzed.module, *analyzed.module->type_facts);
  const TypedFunction& f = TypedNamed(tm, *analyzed.module, "f");
  ASSERT_TRUE(f.eligible);
  EXPECT_EQ(CountOps(f.code, TOp::kJump), 0u);
  EXPECT_EQ(CountOps(f.code, TOp::kBrCmpTrueF), 1u);
  EXPECT_EQ(CountOps(f.code, TOp::kBrCmpTrueFC), 2u);

  minipy::TreeWalker walker;
  ASSERT_TRUE(walker.LoadSource(src).ok());
  minipy::Vm generic;
  generic.set_typed_tier_enabled(false);
  ASSERT_TRUE(generic.LoadSource(src).ok());
  minipy::Vm typed;
  ASSERT_TRUE(typed.LoadModule(analyzed.module).ok());
  auto before = obs::Registry::Instance().CounterValues();
  for (int64_t x : {int64_t{-3}, int64_t{0}, int64_t{2}, int64_t{7}}) {
    const std::vector<PyValue> args = {PyValue(x)};
    auto tw = walker.Call("f", args);
    auto gv = generic.Call("f", args);
    auto tv = typed.Call("f", args);
    ASSERT_TRUE(tw.ok() && gv.ok() && tv.ok()) << x;
    EXPECT_EQ(tw->Repr(), gv->Repr()) << x;
    EXPECT_EQ(gv->Repr(), tv->Repr()) << x;
    if (x == 7) {
      EXPECT_EQ(tv->Repr(), "130");  // 10 steps up, 12 down, none on NaN
    }
  }
  EXPECT_EQ(Delta(before, "mrs.vm.typed_calls"), 4);
}

// INT64_MIN // -1 and INT64_MIN % -1 reach the typed tier's register
// forms, the fused kDivModI, and (through a constant patched to -1, which
// no source literal can produce) the constant-divisor forms: // reports
// "integer overflow", % returns 0, exactly as the other two engines do.
TEST(TypedTier, Int64MinByMinusOneMatchesTheOtherEngines) {
  struct Case {
    const char* source;
    const char* want;  // Repr() of the result, or the error kind
  };
  const Case cases[] = {
      {"def f(a, b):\n    return a // b\n", "integer overflow"},
      {"def f(a, b):\n    return a % b\n", "0"},
      {"def f(a, b):\n    q = a // b\n    r = a % b\n    return q + r\n",
       "integer overflow"},
      {"def f(a, b):\n    r = a % b\n    q = a // b\n    return q + r\n",
       "integer overflow"},
      {"def f(a, b):\n    return a % b + b\n", "-1"},
  };
  const std::vector<PyValue> args = {PyValue(kInt64Min), PyValue(int64_t{-1})};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.source);
    minipy::TreeWalker walker;
    ASSERT_TRUE(walker.LoadSource(c.source).ok());
    minipy::Vm generic;
    generic.set_typed_tier_enabled(false);
    ASSERT_TRUE(generic.LoadSource(c.source).ok());
    AnalysisResult analyzed = AnalyzeOrDie(c.source);
    minipy::Vm typed;
    ASSERT_TRUE(typed.LoadModule(analyzed.module).ok());
    ASSERT_TRUE(typed.HasTypedFunction("f"));

    auto before = obs::Registry::Instance().CounterValues();
    auto tw = walker.Call("f", args);
    auto gv = generic.Call("f", args);
    auto tv = typed.Call("f", args);
    EXPECT_EQ(Delta(before, "mrs.vm.typed_calls"), 1);
    for (const auto* r : {&tw, &gv, &tv}) {
      EXPECT_EQ(r->ok() ? (*r)->Repr() : ErrorKind(r->status()), c.want);
    }
    if (!gv.ok() && !tv.ok()) {
      EXPECT_EQ(gv.status().message(), tv.status().message());
    }
  }

  // Constant divisors: a -1 constant must not reach kFloorDivIC, whose
  // handler has no overflow check; kModIC with -1 is total.
  for (const char* op : {"//", "%"}) {
    const std::string src = std::string("def f(a):\n    return a ") + op +
                            " 7\n";
    SCOPED_TRACE(src);
    AnalysisResult analyzed = AnalyzeOrDie(src);
    for (minipy::CompiledFunction& fn : analyzed.module->functions) {
      for (PyValue& k : fn.constants) {
        if (k.is_int() && k.AsInt() == 7) k = PyValue(int64_t{-1});
      }
    }
    const TypedModule tm = minipy::BuildTypedModule(
        *analyzed.module, *analyzed.module->type_facts);
    const TypedFunction& f = TypedNamed(tm, *analyzed.module, "f");
    ASSERT_TRUE(f.eligible);
    EXPECT_EQ(CountOps(f.code, TOp::kFloorDivIC), 0u);

    minipy::Vm typed;
    ASSERT_TRUE(typed.LoadModule(analyzed.module).ok());
    ASSERT_TRUE(typed.HasTypedFunction("f"));
    auto min_case = typed.Call("f", {PyValue(kInt64Min)});
    auto plain = typed.Call("f", {PyValue(int64_t{-9})});
    ASSERT_TRUE(plain.ok());
    if (op[0] == '/') {
      ASSERT_FALSE(min_case.ok());
      EXPECT_EQ(min_case.status().message(), "in f: integer overflow");
      EXPECT_EQ(plain->Repr(), "9");
    } else {
      ASSERT_TRUE(min_case.ok());
      EXPECT_EQ(min_case->Repr(), "0");
      EXPECT_EQ(plain->Repr(), "0");
    }
  }
}

// ---- Differential fuzz: treewalk vs generic VM vs typed tier ------------

/// Deterministic split-mix style generator; no global randomness so every
/// failure reproduces from its seed alone.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint32_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(state >> 33);
  }
  uint32_t Below(uint32_t n) { return Next() % n; }
};

std::string Leaf(Rng& rng) {
  switch (rng.Below(6)) {
    case 0: return "a";
    case 1: return "b";
    case 2: return "i";
    case 3: return std::to_string(rng.Below(9) + 1);
    case 4:
      return std::to_string(rng.Below(9)) + "." +
             std::to_string(rng.Below(10));
    default: return std::to_string(rng.Below(20));
  }
}

/// Random arithmetic over a, b, i and small literals.  Divisor operands
/// take the form (r * r + 1), which is >= 1 for every int and float, so
/// no generated program can divide by zero — the three engines are then
/// compared on values, not on error strings.
std::string Expr(Rng& rng, int depth) {
  if (depth == 0) return Leaf(rng);
  static const char* kOps[] = {"+", "-", "*", "//", "%", "/"};
  const char* op = kOps[rng.Below(6)];
  std::string lhs = Expr(rng, depth - 1);
  if (op[0] == '/' || op[0] == '%') {
    std::string r = Leaf(rng);
    return "(" + lhs + " " + op + " (" + r + " * " + r + " + 1))";
  }
  return "(" + lhs + " " + op + " " + Expr(rng, depth - 1) + ")";
}

std::string FuzzProgram(Rng& rng) {
  std::string src = "def f(a, b):\n";
  src += "    s = ";
  src += rng.Below(2) ? "0" : "0.0";
  src += "\n    i = 0\n";
  src += "    while i < 8:\n";
  if (rng.Below(2)) {
    src += "        if i % 2 == 0:\n";
    src += "            s = s + " + Expr(rng, 2) + "\n";
    src += "        else:\n";
    src += "            s = s - " + Expr(rng, 2) + "\n";
  } else {
    src += "        s = s + " + Expr(rng, 2) + "\n";
  }
  src += "        i = i + 1\n";
  src += "    return s\n";
  return src;
}

TEST(DifferentialFuzz, AllThreeTiersAgreeBitForBitIncludingDeopts) {
  const std::vector<std::vector<PyValue>> arg_sets = {
      {PyValue(int64_t{3}), PyValue(int64_t{7})},
      {PyValue(int64_t{-5}), PyValue(int64_t{9})},
      {PyValue(int64_t{-7}), PyValue(int64_t{-3})},
      {PyValue(int64_t{4}), PyValue(int64_t{-6})},
      // Floats where the guard speculated ints: the typed tier must
      // deopt and the deopted path must still match bit for bit.
      {PyValue(2.5), PyValue(4.0)},
      {PyValue(int64_t{11}), PyValue(0.125)},
  };

  int typed_functions = 0;
  auto before = obs::Registry::Instance().CounterValues();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const std::string src = FuzzProgram(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);

    minipy::TreeWalker walker;
    ASSERT_TRUE(walker.LoadSource(src).ok());

    minipy::Vm generic;
    generic.set_typed_tier_enabled(false);
    ASSERT_TRUE(generic.LoadSource(src).ok());

    AnalysisResult analyzed = AnalyzeKernelSource(src, PlainModule());
    ASSERT_TRUE(analyzed.ok());
    ASSERT_NE(analyzed.module, nullptr);
    minipy::Vm typed;
    ASSERT_TRUE(typed.LoadModule(analyzed.module).ok());
    if (typed.HasTypedFunction("f")) ++typed_functions;

    for (const std::vector<PyValue>& args : arg_sets) {
      auto tw = walker.Call("f", args);
      auto gv = generic.Call("f", args);
      auto tv = typed.Call("f", args);
      ASSERT_EQ(tw.ok(), gv.ok());
      ASSERT_EQ(gv.ok(), tv.ok());
      if (!tw.ok()) continue;  // divisors are nonzero by construction
      EXPECT_EQ(tw->Repr(), gv->Repr());
      EXPECT_EQ(gv->Repr(), tv->Repr());
    }
  }
  // The fuzz run must actually have exercised the tier, both fast paths
  // and guard failures — otherwise the equality above proves nothing.
  EXPECT_GT(typed_functions, 0);
  EXPECT_GT(Delta(before, "mrs.vm.typed_calls"), 0);
  EXPECT_GT(Delta(before, "mrs.vm.deopts"), 0);
}

/// A div/mod operand: a parameter, a parameter plus i, i - 4 (zero at
/// i == 4) or a small literal (0 included).  No product appears, so the
/// ±2^40 and INT64_MIN argument sets cannot overflow int64, which the
/// UBSan leg would trap.
std::string DivOperand(Rng& rng) {
  switch (rng.Below(6)) {
    case 0: return "a";
    case 1: return "b";
    case 2: return "a + i";
    case 3: return "b + i";
    case 4: return "i - 4";
    default: return std::to_string(rng.Below(9));
  }
}

/// A loop computing x // y and x % y on the same locals: adjacent, in
/// either order, with simple code between them, and in the three shapes
/// that must not fuse (x rewritten by the first op or between them; the
/// moved result read between them).  Float accumulators also read `a` as a float, which
/// exercises the hoisted entry conversion.
std::string DivModProgram(Rng& rng) {
  const bool float_sum = rng.Below(3) == 0;
  std::string src = "def f(a, b):\n";
  src += float_sum ? "    s = 0.0\n" : "    s = 0\n";
  src += "    q = 0\n    r = 0\n    i = 0\n    while i < 6:\n";
  src += "        x = " + DivOperand(rng) + "\n";
  src += "        y = " + DivOperand(rng) + "\n";
  switch (rng.Below(7)) {
    case 0:
      src += "        q = x // y\n        r = x % y\n";
      break;
    case 1:
      src += "        r = x % y\n        q = x // y\n";
      break;
    case 2:  // fused across simple code reading the first result
      src += "        q = x // y\n        s = s + q % 3\n"
             "        r = x % y\n";
      break;
    case 3:  // one expression: two temps, fused
      src += "        s = s + x % y - x // y % 1019\n";
      break;
    case 4:  // x changes between the two: must not fuse
      src += "        q = x // y\n        x = x + 1\n        r = x % y\n";
      break;
    case 5:  // the first op overwrites x: must not fuse
      src += "        x = x // y\n        r = x % y\n        q = x\n";
      break;
    default:  // the old r is read between the two: must not fuse
      src += "        q = x // y\n        s = s + r % 1013\n"
             "        r = x % y\n";
      break;
  }
  src += "        s = s + q % 1009 + r % 1013\n";
  if (float_sum) src += "        s = s + a * 0.5\n";
  src += "        i = i + 1\n    return s\n";
  return src;
}

TEST(DifferentialFuzz, DivModPairsWideNegativeAndErrorOperands) {
  const std::vector<std::vector<PyValue>> arg_sets = {
      {PyValue(int64_t{3}), PyValue(int64_t{7})},
      {PyValue(int64_t{-5}), PyValue(int64_t{9})},
      {PyValue(int64_t{-7}), PyValue(int64_t{-3})},
      {PyValue(int64_t{4}), PyValue(int64_t{-6})},
      {PyValue(kTwoTo40), PyValue(int64_t{-3})},
      {PyValue(-kTwoTo40), PyValue(int64_t{7})},
      {PyValue(int64_t{7}), PyValue(kTwoTo40)},
      {PyValue(kTwoTo40 + 5), PyValue(-kTwoTo40)},
      // Either side of the 32-bit divide path's [0, 2^32) bound.
      {PyValue(int64_t{4294967299}), PyValue(int64_t{4294967295})},
      {PyValue(int64_t{0}), PyValue(int64_t{0})},  // zero divisors
      {PyValue(kInt64Min), PyValue(int64_t{-1})},  // integer overflow
      {PyValue(2.5), PyValue(-4.0)},               // deopt: float paths
  };

  int typed_functions = 0;
  int fused = 0;
  int rotated = 0;
  std::map<std::string, int> errors;  // error kind -> count
  int values = 0;
  auto before = obs::Registry::Instance().CounterValues();
  for (uint64_t seed = 1; seed <= 80; ++seed) {
    Rng rng(seed);
    const std::string src = DivModProgram(rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + src);

    minipy::TreeWalker walker;
    ASSERT_TRUE(walker.LoadSource(src).ok());
    minipy::Vm generic;
    generic.set_typed_tier_enabled(false);
    ASSERT_TRUE(generic.LoadSource(src).ok());
    AnalysisResult analyzed = AnalyzeKernelSource(src, PlainModule());
    ASSERT_TRUE(analyzed.ok());
    ASSERT_NE(analyzed.module, nullptr);
    minipy::Vm typed;
    ASSERT_TRUE(typed.LoadModule(analyzed.module).ok());
    if (typed.HasTypedFunction("f")) {
      ++typed_functions;
      const TypedModule tm = minipy::BuildTypedModule(
          *analyzed.module, *analyzed.module->type_facts);
      const TypedFunction& f = TypedNamed(tm, *analyzed.module, "f");
      if (CountOps(f.code, TOp::kDivModI) > 0) ++fused;
      if (std::any_of(f.code.begin(), f.code.end(), [](const TInstr& t) {
            return IsRotatedBranch(t.op);
          })) {
        ++rotated;
      }
    }

    for (const std::vector<PyValue>& args : arg_sets) {
      auto tw = walker.Call("f", args);
      auto gv = generic.Call("f", args);
      auto tv = typed.Call("f", args);
      ASSERT_EQ(tw.ok(), gv.ok()) << (tw.ok() ? gv : tw).status().message();
      ASSERT_EQ(gv.ok(), tv.ok()) << (gv.ok() ? tv : gv).status().message();
      if (tw.ok()) {
        ++values;
        EXPECT_EQ(tw->Repr(), gv->Repr());
        EXPECT_EQ(gv->Repr(), tv->Repr());
      } else {
        ++errors[ErrorKind(gv.status())];
        EXPECT_EQ(ErrorKind(tw.status()), ErrorKind(gv.status()));
        EXPECT_EQ(gv.status().message(), tv.status().message());
      }
    }
  }
  // Every path the comparison above is meant to cover was taken.
  EXPECT_GT(typed_functions, 0);
  EXPECT_GT(fused, 0);
  EXPECT_GT(rotated, 0);
  EXPECT_GT(values, 0);
  EXPECT_GT(errors["division by zero"], 0);
  EXPECT_GT(errors["modulo by zero"], 0);
  EXPECT_GT(errors["integer overflow"], 0);
  EXPECT_GT(Delta(before, "mrs.vm.typed_calls"), 0);
  EXPECT_GT(Delta(before, "mrs.vm.deopts"), 0);
}

}  // namespace
}  // namespace analysis
}  // namespace mrs
