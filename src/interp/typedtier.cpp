#include "interp/typedtier.h"

#include <cstdint>
#include <limits>

namespace mrs {
namespace minipy {

namespace {

bool IsIntLike(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kBool;
}

/// Types an eligible function may carry in its rows: concrete unboxed
/// numerics, None (a typed hole whose value is never computed with), and
/// bottom (claimed-unreachable data).  Str/list/⊤ end eligibility.
bool SlotTypeOk(ValueType t) {
  return t == ValueType::kBottom || t == ValueType::kNone || IsIntLike(t) ||
         t == ValueType::kFloat;
}

bool IsReturnableType(ValueType t) {
  return t == ValueType::kNone || IsIntLike(t) || t == ValueType::kFloat;
}

BinOp MirrorCompare(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

bool IsCompare(BinOp op) {
  return op == BinOp::kLt || op == BinOp::kLe || op == BinOp::kGt ||
         op == BinOp::kGe || op == BinOp::kEq || op == BinOp::kNe;
}

struct Desc {
  enum class Kind { kSlot, kConstI, kConstF };
  Kind kind = Kind::kSlot;
  int slot = 0;       // kSlot: local slot or canonical stack slot
  int64_t ival = 0;   // kConstI (bools are 0/1, None is 0)
  double fval = 0.0;  // kConstF
  ValueType type = ValueType::kNone;
};

class Translator {
 public:
  Translator(const CompiledModule& module, const TypeFactTable& table,
             int fn_index)
      : module_(module),
        table_(table),
        fn_(module.functions[static_cast<size_t>(fn_index)]),
        facts_(table.functions[static_cast<size_t>(fn_index)]) {}

  bool Translate(TypedFunction* out) {
    out->eligible = false;
    out->name = fn_.name;
    out->num_params = fn_.num_params;
    out->num_locals = fn_.num_locals;
    out->num_slots = fn_.num_locals + fn_.max_stack;
    out->ret = facts_.ret;
    out->param_types = facts_.params;
    out->global_guard = facts_.global_reads;

    if (!IsReturnableType(facts_.ret)) return false;
    for (ValueType t : facts_.params) {
      if (!IsIntLike(t) && t != ValueType::kFloat) return false;
    }
    for (const auto& [slot, t] : facts_.global_reads) {
      (void)slot;
      if (!IsIntLike(t) && t != ValueType::kFloat) return false;
    }
    if (fn_.code.empty()) return false;
    for (const TypeRow& row : facts_.rows) {
      if (!row.reachable) continue;
      for (ValueType t : row.locals) {
        if (!SlotTypeOk(t)) return false;
      }
      for (ValueType t : row.stack) {
        if (!SlotTypeOk(t)) return false;
      }
    }

    ComputeLabels();
    param_stored_.assign(static_cast<size_t>(fn_.num_params), false);
    hoisted_.assign(static_cast<size_t>(fn_.num_params), -1);
    for (const Instruction& ins : fn_.code) {
      if (ins.op == Op::kStoreLocal && ins.a >= 0 && ins.a < fn_.num_params) {
        param_stored_[static_cast<size_t>(ins.a)] = true;
      }
    }

    const int n = static_cast<int>(fn_.code.size());
    tpc_of_.assign(static_cast<size_t>(n), -1);
    bool falls_through = true;  // into pc 0 from entry
    for (int pc = 0; pc < n; ++pc) {
      const TypeRow& row = facts_.rows[static_cast<size_t>(pc)];
      if (!row.reachable) {
        falls_through = false;
        continue;
      }
      if (is_label_[static_cast<size_t>(pc)]) {
        if (falls_through) FlushAll();
        tpc_of_[static_cast<size_t>(pc)] = Here();
        ResetFromRow(row);
        last_write_ = -1;
      } else {
        tpc_of_[static_cast<size_t>(pc)] = Here();
      }
      if (!TranslateOne(pc, row, &falls_through)) return false;
    }
    if (falls_through) {
      // Execution can run off the end: the generic loop returns None.
      if (facts_.ret != ValueType::kNone) return false;
      Emit(TOp::kRetNone, 0, 0, 0);
    }

    // Hoisted conversions run once, ahead of everything translated above.
    std::vector<TInstr> entry;
    for (int p = 0; p < fn_.num_params; ++p) {
      const int slot = hoisted_[static_cast<size_t>(p)];
      if (slot < 0) continue;
      TInstr cvt;
      cvt.op = TOp::kCvtIF;
      cvt.a = slot;
      cvt.b = p;
      entry.push_back(cvt);
    }
    code_.insert(code_.begin(), entry.begin(), entry.end());
    const int shift = num_hoisted_;
    out->num_slots += shift;

    for (const auto& [instr, target_pc] : patches_) {
      int tpc = tpc_of_[static_cast<size_t>(target_pc)];
      if (tpc < 0) return false;  // jump into claimed-unreachable code
      code_[static_cast<size_t>(instr + shift)].a = tpc + shift;
    }

    out->code = std::move(code_);
    out->generic_calls = std::move(generic_calls_);
    out->eligible = true;
    return true;
  }

 private:
  int canon(size_t pos) const {
    return fn_.num_locals + static_cast<int>(pos);
  }
  int Here() const { return static_cast<int>(code_.size()); }

  int Emit(TOp op, int32_t a, int32_t b, int32_t c) {
    TInstr t;
    t.op = op;
    t.a = a;
    t.b = b;
    t.c = c;
    code_.push_back(t);
    last_write_ = Here() - 1;
    return last_write_;
  }
  int EmitImm(TOp op, int32_t a, int32_t b, Slot imm) {
    int at = Emit(op, a, b, 0);
    code_[static_cast<size_t>(at)].imm = imm;
    return at;
  }
  int EmitCmp(TOp op, BinOp cmp, int32_t a, int32_t b, int32_t c, Slot imm) {
    int at = Emit(op, a, b, c);
    code_[static_cast<size_t>(at)].cmp = cmp;
    code_[static_cast<size_t>(at)].imm = imm;
    return at;
  }

  void ComputeLabels() {
    is_label_.assign(fn_.code.size(), false);
    for (size_t pc = 0; pc < fn_.code.size(); ++pc) {
      if (!facts_.rows[pc].reachable) continue;
      const Instruction& ins = fn_.code[pc];
      switch (ins.op) {
        case Op::kJump:
        case Op::kJumpIfFalse:
        case Op::kJumpIfFalsePeek:
        case Op::kJumpIfTruePeek:
          if (ins.a >= 0 && static_cast<size_t>(ins.a) < is_label_.size()) {
            is_label_[static_cast<size_t>(ins.a)] = true;
          }
          break;
        default:
          break;
      }
    }
  }

  void ResetFromRow(const TypeRow& row) {
    descs_.clear();
    for (size_t k = 0; k < row.stack.size(); ++k) {
      Desc d;
      d.kind = Desc::Kind::kSlot;
      d.slot = canon(k);
      d.type = row.stack[k];
      descs_.push_back(d);
    }
  }

  /// Materialize the descriptor at stack position `pos` into its
  /// canonical slot.
  void Materialize(size_t pos) {
    Desc& d = descs_[pos];
    const int target = canon(pos);
    switch (d.kind) {
      case Desc::Kind::kConstI:
        EmitImm(TOp::kLoadI, target, 0, Slot{.i = d.ival});
        break;
      case Desc::Kind::kConstF: {
        Slot s;
        s.d = d.fval;
        EmitImm(TOp::kLoadF, target, 0, s);
        break;
      }
      case Desc::Kind::kSlot:
        if (d.slot == target) return;
        Emit(TOp::kMov, target, d.slot, 0);
        break;
    }
    d.kind = Desc::Kind::kSlot;
    d.slot = target;
  }

  void FlushAll() {
    for (size_t i = 0; i < descs_.size(); ++i) Materialize(i);
  }

  bool AllCanonical() const {
    for (size_t i = 0; i < descs_.size(); ++i) {
      if (descs_[i].kind != Desc::Kind::kSlot ||
          descs_[i].slot != canon(i)) {
        return false;
      }
    }
    return true;
  }

  Desc Pop() {
    Desc d = descs_.back();
    descs_.pop_back();
    return d;
  }

  /// Materialize a popped descriptor at the first free position (the one
  /// it just vacated) and return the slot holding it.
  int HomeSlot(Desc* d) {
    if (d->kind == Desc::Kind::kSlot) return d->slot;
    const int target = canon(descs_.size());
    if (d->kind == Desc::Kind::kConstI) {
      EmitImm(TOp::kLoadI, target, 0, Slot{.i = d->ival});
    } else {
      Slot s;
      s.d = d->fval;
      EmitImm(TOp::kLoadF, target, 0, s);
    }
    d->kind = Desc::Kind::kSlot;
    d->slot = target;
    return target;
  }

  /// Slot holding `d` as a double, emitting kCvtIF for int-likes.  The
  /// scratch slot is the canonical slot of stack position `scratch_pos`.
  /// An int parameter that is never stored to reads the slot its entry
  /// conversion fills instead.
  int FloatSlot(Desc* d, size_t scratch_pos) {
    if (d->type == ValueType::kFloat) return HomeSlot(d);
    if (d->kind == Desc::Kind::kSlot && d->slot < fn_.num_params &&
        !param_stored_[static_cast<size_t>(d->slot)] &&
        IsIntLike(facts_.params[static_cast<size_t>(d->slot)])) {
      int& slot = hoisted_[static_cast<size_t>(d->slot)];
      if (slot < 0) slot = fn_.num_locals + fn_.max_stack + num_hoisted_++;
      return slot;
    }
    const int src = HomeSlot(d);
    const int target = canon(scratch_pos);
    Emit(TOp::kCvtIF, target, src, 0);
    return target;
  }

  bool TranslateOne(int pc, const TypeRow& row, bool* falls_through) {
    const Instruction& ins = fn_.code[static_cast<size_t>(pc)];
    *falls_through = true;
    switch (ins.op) {
      case Op::kLoadConst: {
        const PyValue& v = fn_.constants[static_cast<size_t>(ins.a)];
        Desc d;
        switch (v.type()) {
          case PyValue::Type::kInt:
            d.kind = Desc::Kind::kConstI;
            d.ival = v.AsInt();
            d.type = ValueType::kInt;
            break;
          case PyValue::Type::kBool:
            d.kind = Desc::Kind::kConstI;
            d.ival = v.AsInt();
            d.type = ValueType::kBool;
            break;
          case PyValue::Type::kFloat:
            d.kind = Desc::Kind::kConstF;
            d.fval = v.AsFloat();
            d.type = ValueType::kFloat;
            break;
          case PyValue::Type::kNone:
            d.kind = Desc::Kind::kConstI;
            d.ival = 0;
            d.type = ValueType::kNone;
            break;
          default:
            return false;  // str/list constants stay generic
        }
        descs_.push_back(d);
        return true;
      }
      case Op::kLoadLocal: {
        Desc d;
        d.kind = Desc::Kind::kSlot;
        d.slot = ins.a;
        d.type = row.locals[static_cast<size_t>(ins.a)];
        descs_.push_back(d);
        return true;
      }
      case Op::kStoreLocal:
        return TranslateStoreLocal(ins.a);
      case Op::kLoadGlobal: {
        const ValueType t = facts_.GlobalType(ins.a);
        if (!IsIntLike(t) && t != ValueType::kFloat) return false;
        const int dst = canon(descs_.size());
        Emit(t == ValueType::kFloat ? TOp::kLoadGF : TOp::kLoadGI, dst,
             ins.a, 0);
        Desc d;
        d.kind = Desc::Kind::kSlot;
        d.slot = dst;
        d.type = t;
        descs_.push_back(d);
        return true;
      }
      case Op::kStoreGlobal:
        return false;  // only top-level code stores globals; stay generic
      case Op::kBinary:
        return TranslateBinary(static_cast<BinOp>(ins.a));
      case Op::kUnary:
        return TranslateUnary(static_cast<UnOp>(ins.a));
      case Op::kJump:
        FlushAll();
        patches_.emplace_back(Emit(TOp::kJump, 0, 0, 0), ins.a);
        *falls_through = false;
        return true;
      case Op::kJumpIfFalse:
        return TranslateBranch(ins.a);
      case Op::kJumpIfFalsePeek:
      case Op::kJumpIfTruePeek: {
        // Branch path keeps the value (it is in its canonical slot after
        // the flush); fall-through pops it.
        Desc& top = descs_.back();
        if (!IsIntLike(top.type) && top.type != ValueType::kFloat) {
          return false;
        }
        FlushAll();
        const int cond_slot = canon(descs_.size() - 1);
        const bool is_float = top.type == ValueType::kFloat;
        TOp op;
        if (ins.op == Op::kJumpIfFalsePeek) {
          op = is_float ? TOp::kBrFalseF : TOp::kBrFalseI;
        } else {
          op = is_float ? TOp::kBrTrueF : TOp::kBrTrueI;
        }
        patches_.emplace_back(Emit(op, 0, cond_slot, 0), ins.a);
        last_write_ = -1;
        descs_.pop_back();
        return true;
      }
      case Op::kPop:
        Pop();
        return true;
      case Op::kCallUser:
        return TranslateCall(ins.a, ins.b);
      case Op::kCallBuiltin:
        return false;  // builtins/host functions stay generic
      case Op::kReturn: {
        Desc d = Pop();
        if (d.kind == Desc::Kind::kConstI) {
          EmitImm(TOp::kRetImm, 0, 0, Slot{.i = d.ival});
        } else if (d.kind == Desc::Kind::kConstF) {
          Slot s;
          s.d = d.fval;
          EmitImm(TOp::kRetImm, 0, 0, s);
        } else {
          Emit(TOp::kRet, 0, d.slot, 0);
        }
        *falls_through = false;
        return true;
      }
      case Op::kReturnNone:
        Emit(TOp::kRetNone, 0, 0, 0);
        *falls_through = false;
        return true;
      case Op::kBuildList:
      case Op::kIndex:
      case Op::kStoreIndex:
      case Op::kLen:
        return false;  // list/str machinery stays generic
    }
    return false;
  }

  bool TranslateStoreLocal(int32_t local) {
    Desc d = Pop();
    // A deeper descriptor still reading this local would observe the new
    // value; give such descriptors their own copy first.
    for (size_t i = 0; i < descs_.size(); ++i) {
      if (descs_[i].kind == Desc::Kind::kSlot && descs_[i].slot == local) {
        Materialize(i);
      }
    }
    switch (d.kind) {
      case Desc::Kind::kConstI:
        EmitImm(TOp::kLoadI, local, 0, Slot{.i = d.ival});
        return true;
      case Desc::Kind::kConstF: {
        Slot s;
        s.d = d.fval;
        EmitImm(TOp::kLoadF, local, 0, s);
        return true;
      }
      case Desc::Kind::kSlot:
        break;
    }
    if (d.slot == local) return true;  // x = x
    // Retarget the producer when the value lives in a dead temp the last
    // emitted instruction just wrote — the classic store-elimination
    // peephole (a = b + c instead of t = b + c; a = t).
    if (d.slot >= fn_.num_locals && last_write_ == Here() - 1 &&
        code_[static_cast<size_t>(last_write_)].a == d.slot) {
      code_[static_cast<size_t>(last_write_)].a = local;
      last_write_ = -1;
      return true;
    }
    Emit(TOp::kMov, local, d.slot, 0);
    return true;
  }

  bool TranslateBinary(BinOp op) {
    if (op == BinOp::kPow || op == BinOp::kAnd || op == BinOp::kOr) {
      return false;
    }
    Desc b = Pop();
    Desc a = Pop();
    if (!IsIntLike(a.type) && a.type != ValueType::kFloat) return false;
    if (!IsIntLike(b.type) && b.type != ValueType::kFloat) return false;
    const int dst = canon(descs_.size());
    const ValueType result = BinaryResultType(op, a.type, b.type);

    if (IsCompare(op)) {
      if (!TranslateCompare(op, &a, &b, dst)) return false;
    } else if (IsIntLike(a.type) && IsIntLike(b.type)) {
      if (!TranslateIntArith(op, &a, &b, dst)) return false;
    } else {
      if (!TranslateFloatArith(op, &a, &b, dst)) return false;
    }

    Desc r;
    r.kind = Desc::Kind::kSlot;
    r.slot = dst;
    r.type = result;
    descs_.push_back(r);
    return true;
  }

  // The generic VM compares through int64 only when both operands are
  // ints; bool/bool also lands on an exact path (0/1 through doubles),
  // but int/bool mixes go through doubles — mirror that split so huge
  // ints compare identically in both tiers.
  bool CompareAsInt(ValueType ta, ValueType tb) const {
    return (ta == ValueType::kInt && tb == ValueType::kInt) ||
           (ta == ValueType::kBool && tb == ValueType::kBool);
  }

  bool TranslateCompare(BinOp op, Desc* a, Desc* b, int dst) {
    if (CompareAsInt(a->type, b->type)) {
      if (b->kind == Desc::Kind::kConstI) {
        EmitCmp(TOp::kCmpIC, op, dst, HomeSlot(a), 0, Slot{.i = b->ival});
      } else if (a->kind == Desc::Kind::kConstI) {
        EmitCmp(TOp::kCmpIC, MirrorCompare(op), dst, HomeSlot(b), 0,
                Slot{.i = a->ival});
      } else {
        EmitCmp(TOp::kCmpI, op, dst, a->slot, b->slot, Slot{.i = 0});
      }
      return true;
    }
    // Double comparison; convert const operands at translation time.
    if (b->kind != Desc::Kind::kSlot) {
      Slot imm;
      imm.d = ConstAsDouble(*b);
      EmitCmp(TOp::kCmpFC, op, dst, FloatSlot(a, descs_.size()), 0, imm);
      return true;
    }
    if (a->kind != Desc::Kind::kSlot) {
      Slot imm;
      imm.d = ConstAsDouble(*a);
      EmitCmp(TOp::kCmpFC, MirrorCompare(op), dst,
              FloatSlot(b, descs_.size() + 1), 0, imm);
      return true;
    }
    const int sa = FloatSlot(a, descs_.size());
    const int sb = FloatSlot(b, descs_.size() + 1);
    EmitCmp(TOp::kCmpF, op, dst, sa, sb, Slot{.i = 0});
    return true;
  }

  static double ConstAsDouble(const Desc& d) {
    return d.kind == Desc::Kind::kConstF ? d.fval
                                         : static_cast<double>(d.ival);
  }

  bool TranslateIntArith(BinOp op, Desc* a, Desc* b, int dst) {
    const bool b_const = b->kind == Desc::Kind::kConstI;
    const bool a_const = a->kind == Desc::Kind::kConstI;
    switch (op) {
      case BinOp::kAdd:
      case BinOp::kMul: {
        const TOp imm_op = op == BinOp::kAdd ? TOp::kAddIC : TOp::kMulIC;
        const TOp reg_op = op == BinOp::kAdd ? TOp::kAddI : TOp::kMulI;
        if (b_const) {
          EmitImm(imm_op, dst, HomeSlot(a), Slot{.i = b->ival});
        } else if (a_const) {  // commutative: fold the const side
          EmitImm(imm_op, dst, HomeSlot(b), Slot{.i = a->ival});
        } else {
          Emit(reg_op, dst, a->slot, b->slot);
        }
        return true;
      }
      case BinOp::kSub:
        if (b_const) {
          EmitImm(TOp::kSubIC, dst, HomeSlot(a), Slot{.i = b->ival});
        } else if (a_const) {
          EmitImm(TOp::kRSubIC, dst, HomeSlot(b), Slot{.i = a->ival});
        } else {
          Emit(TOp::kSubI, dst, a->slot, b->slot);
        }
        return true;
      case BinOp::kFloorDiv:
      case BinOp::kMod:
      case BinOp::kDiv: {
        TOp imm_op, reg_op;
        if (op == BinOp::kFloorDiv) {
          imm_op = TOp::kFloorDivIC;
          reg_op = TOp::kFloorDivI;
        } else if (op == BinOp::kMod) {
          imm_op = TOp::kModIC;
          reg_op = TOp::kModI;
        } else {
          imm_op = TOp::kDivIFC;
          reg_op = TOp::kDivIF;
        }
        // The const form elides the zero and overflow checks, so a
        // constant-zero divisor, and -1 under //, keep the register form
        // (and its runtime error).
        if (b_const && b->ival != 0 &&
            !(op == BinOp::kFloorDiv && b->ival == -1)) {
          EmitImm(imm_op, dst, HomeSlot(a), Slot{.i = b->ival});
        } else {
          const int sa = HomeSlot(a);
          const int sb = HomeSlot(b);
          Emit(reg_op, dst, sa, sb);
        }
        return true;
      }
      default:
        return false;
    }
  }

  bool TranslateFloatArith(BinOp op, Desc* a, Desc* b, int dst) {
    const bool b_const = b->kind != Desc::Kind::kSlot;
    const bool a_const = a->kind != Desc::Kind::kSlot;
    TOp imm_op, reg_op;
    bool commutative = false;
    TOp rimm_op = TOp::kRetNone;  // sentinel: no reversed form
    switch (op) {
      case BinOp::kAdd:
        imm_op = TOp::kAddFC;
        reg_op = TOp::kAddF;
        commutative = true;
        break;
      case BinOp::kMul:
        imm_op = TOp::kMulFC;
        reg_op = TOp::kMulF;
        commutative = true;
        break;
      case BinOp::kSub:
        imm_op = TOp::kSubFC;
        reg_op = TOp::kSubF;
        rimm_op = TOp::kRSubFC;
        break;
      case BinOp::kDiv:
        imm_op = TOp::kDivFC;
        reg_op = TOp::kDivF;
        rimm_op = TOp::kRDivFC;
        break;
      case BinOp::kFloorDiv:
        imm_op = TOp::kRetNone;
        reg_op = TOp::kFloorDivF;
        break;
      case BinOp::kMod:
        imm_op = TOp::kRetNone;
        reg_op = TOp::kModF;
        break;
      default:
        return false;
    }
    auto imm_of = [](const Desc& d) {
      Slot s;
      s.d = ConstAsDouble(d);
      return s;
    };
    if (b_const && imm_op != TOp::kRetNone &&
        !(op == BinOp::kDiv && ConstAsDouble(*b) == 0.0)) {
      EmitImm(imm_op, dst, FloatSlot(a, descs_.size()), imm_of(*b));
      return true;
    }
    if (a_const && commutative && imm_op != TOp::kRetNone) {
      EmitImm(imm_op, dst, FloatSlot(b, descs_.size() + 1), imm_of(*a));
      return true;
    }
    if (a_const && rimm_op != TOp::kRetNone) {
      EmitImm(rimm_op, dst, FloatSlot(b, descs_.size() + 1), imm_of(*a));
      return true;
    }
    const int sa = FloatSlot(a, descs_.size());
    const int sb = FloatSlot(b, descs_.size() + 1);
    Emit(reg_op, dst, sa, sb);
    return true;
  }

  bool TranslateUnary(UnOp op) {
    Desc d = Pop();
    if (!IsIntLike(d.type) && d.type != ValueType::kFloat) return false;
    const int dst = canon(descs_.size());
    ValueType result;
    if (op == UnOp::kNot) {
      Emit(d.type == ValueType::kFloat ? TOp::kNotF : TOp::kNotI, dst,
           HomeSlot(&d), 0);
      result = ValueType::kBool;
    } else {
      Emit(d.type == ValueType::kFloat ? TOp::kNegF : TOp::kNegI, dst,
           HomeSlot(&d), 0);
      result = d.type == ValueType::kFloat ? ValueType::kFloat
                                           : ValueType::kInt;
    }
    Desc r;
    r.kind = Desc::Kind::kSlot;
    r.slot = dst;
    r.type = result;
    descs_.push_back(r);
    return true;
  }

  bool TranslateBranch(int32_t target) {
    Desc cond = Pop();
    if (!IsIntLike(cond.type) && cond.type != ValueType::kFloat) {
      return false;
    }
    // Fuse compare+branch when the condition is the value the last
    // emitted instruction computed and no other descriptor needs a flush
    // move (true at every loop head, where the stack below is empty).
    if (cond.kind == Desc::Kind::kSlot &&
        cond.slot == canon(descs_.size()) && last_write_ == Here() - 1 &&
        code_[static_cast<size_t>(last_write_)].a == cond.slot &&
        AllCanonical()) {
      TInstr& producer = code_[static_cast<size_t>(last_write_)];
      TOp fused;
      switch (producer.op) {
        case TOp::kCmpI: fused = TOp::kBrCmpFalseI; break;
        case TOp::kCmpF: fused = TOp::kBrCmpFalseF; break;
        case TOp::kCmpIC: fused = TOp::kBrCmpFalseIC; break;
        case TOp::kCmpFC: fused = TOp::kBrCmpFalseFC; break;
        default: fused = TOp::kRetNone; break;
      }
      if (fused != TOp::kRetNone) {
        producer.op = fused;
        // b/c/cmp/imm stay; a becomes the branch target.
        producer.a = 0;
        patches_.emplace_back(last_write_, target);
        last_write_ = -1;
        return true;
      }
    }
    FlushAll();
    const int slot = HomeSlot(&cond);
    patches_.emplace_back(
        Emit(cond.type == ValueType::kFloat ? TOp::kBrFalseF
                                            : TOp::kBrFalseI,
             0, slot, 0),
        target);
    last_write_ = -1;
    return true;
  }

  bool TranslateCall(int32_t callee_index, int32_t argc) {
    const CompiledFunction& callee =
        module_.functions[static_cast<size_t>(callee_index)];
    const FunctionFacts& callee_facts =
        table_.functions[static_cast<size_t>(callee_index)];
    if (argc != callee.num_params) return false;  // arity error at runtime
    if (static_cast<size_t>(argc) > descs_.size()) return false;

    const size_t first_pos = descs_.size() - static_cast<size_t>(argc);
    for (size_t i = first_pos; i < descs_.size(); ++i) Materialize(i);
    std::vector<ValueType> arg_types;
    arg_types.reserve(static_cast<size_t>(argc));
    for (size_t i = first_pos; i < descs_.size(); ++i) {
      arg_types.push_back(descs_[i].type);
    }
    descs_.resize(first_pos);

    const bool guard_match = arg_types == callee_facts.params &&
                             GlobalGuardCovered(facts_, callee_facts);
    const ValueType result =
        guard_match ? callee_facts.ret : ValueType::kTop;
    if (!IsReturnableType(result)) return false;

    GenericCallInfo info;
    info.fn_index = callee_index;
    info.arg_types = arg_types;
    info.result_type = result;
    const int gc_index = static_cast<int>(generic_calls_.size());
    generic_calls_.push_back(std::move(info));

    const int dst = canon(first_pos);
    if (guard_match) {
      // Direct typed call; flipped to kCallG afterwards if the callee
      // turns out ineligible (imm.i carries the generic-call metadata).
      EmitImm(TOp::kCallT, dst, callee_index, Slot{.i = gc_index});
      code_.back().c = dst;
    } else {
      Emit(TOp::kCallG, dst, gc_index, dst);
    }
    Desc r;
    r.kind = Desc::Kind::kSlot;
    r.slot = dst;
    r.type = result;
    descs_.push_back(r);
    return true;
  }

  const CompiledModule& module_;
  const TypeFactTable& table_;
  const CompiledFunction& fn_;
  const FunctionFacts& facts_;

  std::vector<TInstr> code_;
  std::vector<GenericCallInfo> generic_calls_;
  std::vector<Desc> descs_;
  std::vector<bool> is_label_;
  std::vector<int> tpc_of_;
  std::vector<std::pair<int, int>> patches_;  // (tinstr index, bytecode pc)
  int last_write_ = -1;
  std::vector<bool> param_stored_;  // per parameter: some kStoreLocal hits it
  std::vector<int> hoisted_;        // per parameter: its double slot, or -1
  int num_hoisted_ = 0;
};

// ---- Peephole passes over translated code --------------------------------

bool IsBranch(TOp op) {
  switch (op) {
    case TOp::kJump:
    case TOp::kBrFalseI: case TOp::kBrFalseF:
    case TOp::kBrTrueI: case TOp::kBrTrueF:
    case TOp::kBrCmpFalseI: case TOp::kBrCmpFalseF:
    case TOp::kBrCmpFalseIC: case TOp::kBrCmpFalseFC:
    case TOp::kBrCmpTrueI: case TOp::kBrCmpTrueF:
    case TOp::kBrCmpTrueIC: case TOp::kBrCmpTrueFC:
      return true;
    default:
      return false;
  }
}

/// The compare-branch taken exactly when `op` falls through, or kRetNone.
TOp InvertedBranch(TOp op) {
  switch (op) {
    case TOp::kBrCmpFalseI: return TOp::kBrCmpTrueI;
    case TOp::kBrCmpFalseF: return TOp::kBrCmpTrueF;
    case TOp::kBrCmpFalseIC: return TOp::kBrCmpTrueIC;
    case TOp::kBrCmpFalseFC: return TOp::kBrCmpTrueFC;
    default: return TOp::kRetNone;
  }
}

/// The slots an instruction reads and writes, for instructions that can
/// neither raise nor transfer control; `simple` is false for all others.
struct SlotUse {
  bool simple = false;
  int32_t write = -1;
  int32_t read1 = -1;
  int32_t read2 = -1;
  bool Touches(int32_t slot) const {
    return write == slot || read1 == slot || read2 == slot;
  }
};

SlotUse UseOf(const TInstr& t) {
  SlotUse u;
  switch (t.op) {
    case TOp::kLoadI: case TOp::kLoadF:
    case TOp::kLoadGI: case TOp::kLoadGF:
      u.write = t.a;
      break;
    case TOp::kMov: case TOp::kCvtIF:
    case TOp::kNegI: case TOp::kNegF: case TOp::kNotI: case TOp::kNotF:
    case TOp::kAddIC: case TOp::kSubIC: case TOp::kMulIC:
    case TOp::kFloorDivIC: case TOp::kModIC: case TOp::kDivIFC:
    case TOp::kRSubIC: case TOp::kAddFC: case TOp::kSubFC: case TOp::kMulFC:
    case TOp::kDivFC: case TOp::kRSubFC:
    case TOp::kCmpIC: case TOp::kCmpFC:
      u.write = t.a;
      u.read1 = t.b;
      break;
    case TOp::kAddI: case TOp::kSubI: case TOp::kMulI:
    case TOp::kAddF: case TOp::kSubF: case TOp::kMulF:
    case TOp::kCmpI: case TOp::kCmpF:
      u.write = t.a;
      u.read1 = t.b;
      u.read2 = t.c;
      break;
    default:
      return u;  // raises, branches, calls or returns
  }
  u.simple = true;
  return u;
}

/// Fuse `x % y` with a later `x // y` (or the reverse) into one kDivModI
/// at the first op's place, marking the second dead.  Legal when only
/// simple instructions lie between them, none of them a branch target,
/// none writing x or y, and none touching the slot the second op writes
/// (that write now happens earlier).  A zero divisor still reports the
/// first op's error; INT64_MIN // -1 reports "integer overflow" either
/// way, and nothing between the two can observe the difference.
void FuseDivMod(std::vector<TInstr>* code, const std::vector<bool>& is_target,
                std::vector<bool>* dead) {
  const size_t n = code->size();
  for (size_t i = 0; i < n; ++i) {
    TInstr& first = (*code)[i];
    if ((*dead)[i]) continue;
    if (first.op != TOp::kModI && first.op != TOp::kFloorDivI) continue;
    if (first.a == first.b || first.a == first.c) continue;
    const bool mod_first = first.op == TOp::kModI;
    const TOp partner = mod_first ? TOp::kFloorDivI : TOp::kModI;
    for (size_t j = i + 1; j < n && !is_target[j]; ++j) {
      if ((*dead)[j]) continue;  // a dropped jump to the next instruction
      const TInstr& second = (*code)[j];
      if (second.op == partner && second.b == first.b &&
          second.c == first.c) {
        bool clear = second.a != first.a;
        for (size_t k = i + 1; clear && k < j; ++k) {
          clear = !UseOf((*code)[k]).Touches(second.a);
        }
        if (clear) {
          const int32_t quotient = mod_first ? second.a : first.a;
          const int32_t remainder = mod_first ? first.a : second.a;
          first.op = TOp::kDivModI;
          first.cmp = mod_first ? BinOp::kMod : BinOp::kFloorDiv;
          first.a = quotient;
          first.imm.i = remainder;
          (*dead)[j] = true;
        }
        break;
      }
      const SlotUse use = UseOf(second);
      if (!use.simple || use.write == first.b || use.write == first.c) break;
    }
  }
}

/// Drop the instructions marked dead and renumber branch targets; a
/// branch to a dropped instruction lands on the one that followed it.
void Compact(std::vector<TInstr>* code, const std::vector<bool>& dead) {
  std::vector<int32_t> new_index(code->size() + 1);
  int32_t kept = 0;
  for (size_t i = 0; i < code->size(); ++i) {
    new_index[i] = kept;
    if (!dead[i]) ++kept;
  }
  new_index[code->size()] = kept;
  size_t out = 0;
  for (size_t i = 0; i < code->size(); ++i) {
    if (dead[i]) continue;
    TInstr t = (*code)[i];
    if (IsBranch(t.op)) t.a = new_index[static_cast<size_t>(t.a)];
    (*code)[out++] = t;
  }
  code->resize(out);
}

/// Post-translation peephole: fuse `%`/`//` pairs, drop jumps to the next
/// instruction, then rotate loops.  A loop translates as
///   head: kBrCmpFalse* cond -> exit;  body ...;  kJump head;  exit:
/// and the back-edge kJump becomes the inverse compare-branch straight
/// into the body, so each iteration dispatches one branch, not two.
void Peephole(std::vector<TInstr>* code) {
  std::vector<bool> is_target(code->size() + 1, false);
  std::vector<bool> dead(code->size(), false);
  for (size_t i = 0; i < code->size(); ++i) {
    const TInstr& t = (*code)[i];
    if (!IsBranch(t.op)) continue;
    is_target[static_cast<size_t>(t.a)] = true;
    if (t.op == TOp::kJump && static_cast<size_t>(t.a) == i + 1) {
      dead[i] = true;
    }
  }
  FuseDivMod(code, is_target, &dead);
  Compact(code, dead);

  for (size_t j = 0; j < code->size(); ++j) {
    TInstr& jump = (*code)[j];
    if (jump.op != TOp::kJump) continue;
    const size_t head_at = static_cast<size_t>(jump.a);
    const TInstr& head = (*code)[head_at];
    const TOp inverted = InvertedBranch(head.op);
    if (inverted == TOp::kRetNone ||
        static_cast<size_t>(head.a) != j + 1 ||
        head_at + 1 >= code->size()) {
      continue;
    }
    jump = head;
    jump.op = inverted;
    jump.a = static_cast<int32_t>(head_at + 1);
  }
}

}  // namespace

TypedModule BuildTypedModule(const CompiledModule& module,
                             const TypeFactTable& table) {
  TypedModule typed;
  typed.functions.resize(module.functions.size());
  for (size_t i = 0; i < module.functions.size(); ++i) {
    Translator tr(module, table, static_cast<int>(i));
    if (!tr.Translate(&typed.functions[i])) {
      typed.functions[i].eligible = false;
      typed.functions[i].code.clear();
    } else {
      Peephole(&typed.functions[i].code);
    }
  }
  // Direct calls were emitted assuming the callee would translate; where
  // it did not, demote them to guarded generic calls.
  for (TypedFunction& fn : typed.functions) {
    if (!fn.eligible) continue;
    for (TInstr& ins : fn.code) {
      if (ins.op == TOp::kCallT &&
          !typed.functions[static_cast<size_t>(ins.b)].eligible) {
        ins.op = TOp::kCallG;
        ins.b = static_cast<int32_t>(ins.imm.i);
      }
    }
  }
  return typed;
}

bool TypedGuardAccepts(const TypedFunction& fn,
                       const std::vector<PyValue>& args,
                       const std::vector<PyValue>& globals) {
  if (args.size() != fn.param_types.size()) return false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!TypeLe(TypeOf(args[i]), fn.param_types[i])) return false;
  }
  for (const auto& [slot, t] : fn.global_guard) {
    if (!TypeLe(TypeOf(globals[static_cast<size_t>(slot)]), t)) return false;
  }
  return true;
}

}  // namespace minipy
}  // namespace mrs
