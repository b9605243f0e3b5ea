// The dynamic key/value type that flows through MapReduce operations.
//
// Mrs passes arbitrary Python objects between map and reduce; in C++ the
// equivalent is a small dynamically-typed Value (none, int, double, string,
// bytes, list).  Values order and compare deterministically — the sort and
// group-by-key step depends on a total order — and serialize to a compact
// tagged binary format (ser/record.h) for intermediate data.
//
// Layout: a 24-byte tagged union.  Ints and doubles live inline, and so do
// strings and bytes of up to kInlineCapacity bytes.  Longer strings and
// bytes live in one immutable heap block {refcount, length, bytes}, and
// lists in one immutable heap block {refcount, ValueList}; copies of a
// Value share its block, so a copy costs a refcount bump, never a malloc.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/status.h"

namespace mrs {

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  enum class Type : uint8_t {
    kNone = 0,
    kInt = 1,
    kDouble = 2,
    kString = 3,
    kBytes = 4,
    kList = 5,
  };

  /// Strings and bytes up to this long are stored inside the Value.
  static constexpr size_t kInlineCapacity = 22;

  Value() noexcept = default;
  Value(int v) noexcept : Value(static_cast<int64_t>(v)) {}      // NOLINT
  Value(int64_t v) noexcept { SetWord(Type::kInt).i = v; }       // NOLINT
  Value(uint64_t v) noexcept : Value(static_cast<int64_t>(v)) {}  // NOLINT
  Value(double v) noexcept { SetWord(Type::kDouble).d = v; }     // NOLINT
  Value(std::string s) : Value(std::string_view(s)) {}           // NOLINT
  Value(std::string_view s) { SetText(Type::kString, s); }       // NOLINT
  Value(const char* s) : Value(std::string_view(s)) {}           // NOLINT
  Value(ValueList list);                                         // NOLINT

  static Value BytesValue(std::string_view data) {
    Value v;
    v.SetText(Type::kBytes, data);
    return v;
  }

  // Copies share the heap block; a moved-from Value is None.
  Value(const Value& other) noexcept : rep_(other.rep_) { Retain(); }
  Value(Value&& other) noexcept : rep_(other.rep_) { other.rep_ = Rep{}; }
  Value& operator=(const Value& other) noexcept {
    other.Retain();  // before Release: other may share this block
    Release();
    rep_ = other.rep_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      rep_ = other.rep_;
      other.rep_ = Rep{};
    }
    return *this;
  }
  ~Value() { Release(); }

  Type type() const { return rep_.text.type; }
  bool is_none() const { return type() == Type::kNone; }
  bool is_int() const { return type() == Type::kInt; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_bytes() const { return type() == Type::kBytes; }
  bool is_list() const { return type() == Type::kList; }
  bool is_numeric() const { return is_int() || is_double(); }

  /// Unchecked accessors (assert in debug builds).
  int64_t AsInt() const {
    assert(is_int());
    return rep_.word.i;
  }
  double AsDouble() const {  // promotes int
    assert(is_numeric());
    return is_int() ? static_cast<double>(rep_.word.i) : rep_.word.d;
  }
  /// String or bytes.  The view is valid while this Value (or a copy
  /// sharing its heap block) is alive and unmoved.
  std::string_view AsString() const {
    assert(is_string() || is_bytes());
    if (!has_block()) return {rep_.text.data, rep_.text.size};
    const TextBlock* block = static_cast<const TextBlock*>(rep_.word.block);
    return {block->data(), block->size};
  }
  const ValueList& AsList() const;

  /// Total order across types: None < Int/Double (numeric order, mixed) <
  /// String < Bytes < List (lexicographic).  Strings and bytes compare
  /// bytewise as unsigned.  Deterministic across runs.
  int Compare(const Value& other) const {
    // Fast paths for the common sort keys; everything else out of line.
    if (type() == other.type()) {
      if (is_int()) {
        return rep_.word.i < other.rep_.word.i
                   ? -1
                   : (rep_.word.i > other.rep_.word.i ? 1 : 0);
      }
      if (is_string() || is_bytes()) {
        int c = AsString().compare(other.AsString());
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
    }
    return CompareSlow(other);
  }
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Deterministic 64-bit hash: FNV-1a over the serialized form, fed
  /// without building it.  Equal values hash equally, including int and
  /// double values that compare equal.
  uint64_t Hash() const;

  /// Tagged binary encoding.
  void Serialize(ByteWriter* writer) const;
  static Result<Value> Deserialize(ByteReader* reader);

  /// Python-repr-like rendering: None, 42, 3.5, 'text', b'...', [1, 'a'].
  std::string Repr() const;

  /// In-memory footprint for MemoryBudget accounting: sizeof(Value) plus
  /// the heap block's bytes, if there is one (a list's block includes its
  /// elements' footprints).  Exact up to allocator overhead; a shared
  /// block is charged to every Value that references it.
  size_t ApproxMemoryBytes() const;

 private:
  // Heap payloads.  Immutable once built; the refcount is the only field
  // written after construction, so copies may cross threads freely.
  struct Block {
    std::atomic<size_t> refs{1};
  };
  struct TextBlock : Block {  // followed by `size` bytes
    size_t size = 0;
    const char* data() const { return reinterpret_cast<const char*>(this + 1); }
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };
  struct ListBlock;

  /// `size` value that marks a heap block (a long string, bytes, or list).
  static constexpr uint8_t kBlockMarker = 0xff;

  // Both views share the leading {type, size} bytes, which may be read
  // through either.  None is all zeros.
  struct Text {
    Type type;
    uint8_t size;  // inline length, or kBlockMarker
    char data[kInlineCapacity];
  };
  struct Word {
    Type type;
    uint8_t size;  // 0, or kBlockMarker
    union {
      int64_t i;
      double d;
      Block* block;
    };
  };
  union Rep {
    Text text;
    Word word;
  };

  bool has_block() const { return rep_.text.size == kBlockMarker; }
  Word& SetWord(Type type) {
    rep_.word.type = type;
    rep_.word.size = 0;
    return rep_.word;
  }
  void SetText(Type type, std::string_view s);
  void Retain() const {
    if (has_block()) {
      rep_.word.block->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void Release() {
    if (has_block() &&
        rep_.word.block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      DestroyBlock();
    }
  }
  void DestroyBlock();
  int CompareSlow(const Value& other) const;
  size_t HeapBytes() const;

  Rep rep_{};
};

static_assert(sizeof(Value) <= 32, "Value must stay a compact record type");

/// One record of intermediate or final data.
struct KeyValue {
  Value key;
  Value value;

  bool operator==(const KeyValue& other) const {
    return key == other.key && value == other.value;
  }
};

static_assert(sizeof(KeyValue) <= 64, "KeyValue must stay two compact Values");

inline size_t ApproxMemoryBytes(const KeyValue& kv) {
  return kv.key.ApproxMemoryBytes() + kv.value.ApproxMemoryBytes();
}

/// Sort comparator for the group-by-key step: by key, ties by value so
/// output order is fully deterministic.
inline bool KeyValueLess(const KeyValue& a, const KeyValue& b) {
  int c = a.key.Compare(b.key);
  if (c != 0) return c < 0;
  return a.value.Compare(b.value) < 0;
}

}  // namespace mrs
