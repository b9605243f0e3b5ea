#include "ser/value.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <new>

#include "common/strings.h"

namespace mrs {

struct Value::ListBlock : Value::Block {
  explicit ListBlock(ValueList list) : items(std::move(list)) {}
  const ValueList items;
};

Value::Value(ValueList list) {
  rep_.word.type = Type::kList;
  rep_.word.size = kBlockMarker;
  rep_.word.block = new ListBlock(std::move(list));
}

void Value::SetText(Type type, std::string_view s) {
  if (s.size() <= kInlineCapacity) {
    rep_.text.type = type;
    rep_.text.size = static_cast<uint8_t>(s.size());
    if (!s.empty()) std::memcpy(rep_.text.data, s.data(), s.size());
    return;
  }
  void* mem = ::operator new(sizeof(TextBlock) + s.size());
  TextBlock* block = new (mem) TextBlock;
  block->size = s.size();
  std::memcpy(block->data(), s.data(), s.size());
  rep_.word.type = type;
  rep_.word.size = kBlockMarker;
  rep_.word.block = block;
}

void Value::DestroyBlock() {
  if (is_list()) {
    delete static_cast<ListBlock*>(rep_.word.block);
  } else {
    TextBlock* block = static_cast<TextBlock*>(rep_.word.block);
    block->~TextBlock();
    ::operator delete(block);
  }
}

const ValueList& Value::AsList() const {
  assert(is_list());
  return static_cast<const ListBlock*>(rep_.word.block)->items;
}

namespace {
/// Rank for cross-type ordering; Int and Double share a rank so mixed
/// numeric comparisons use numeric order (as Python 2 sorting did).
int TypeRank(Value::Type t) {
  switch (t) {
    case Value::Type::kNone: return 0;
    case Value::Type::kInt:
    case Value::Type::kDouble: return 1;
    case Value::Type::kString: return 2;
    case Value::Type::kBytes: return 3;
    case Value::Type::kList: return 4;
  }
  return 5;
}

int Cmp(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
int Cmp(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// FNV-1a over a byte stream, with ByteWriter's put methods, so the
/// encoder below can hash exactly the bytes it would write.
class Fnv1aSink {
 public:
  uint64_t hash() const { return h_; }

  void PutU8(uint8_t b) { h_ = (h_ ^ b) * kFnv1a64Prime; }
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }
  void PutVarintSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }
  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(bits >> (8 * i)));
  }
  void PutLengthPrefixed(std::string_view s) {
    PutVarint(s.size());
    for (char c : s) PutU8(static_cast<uint8_t>(c));
  }

 private:
  uint64_t h_ = kFnv1a64Offset;
};

/// The tagged binary encoding, written to a ByteWriter or an Fnv1aSink.
template <typename Sink>
void Encode(const Value& v, Sink* sink) {
  sink->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case Value::Type::kNone:
      break;
    case Value::Type::kInt:
      sink->PutVarintSigned(v.AsInt());
      break;
    case Value::Type::kDouble:
      sink->PutDouble(v.AsDouble());
      break;
    case Value::Type::kString:
    case Value::Type::kBytes:
      sink->PutLengthPrefixed(v.AsString());
      break;
    case Value::Type::kList:
      sink->PutVarint(v.AsList().size());
      for (const Value& item : v.AsList()) Encode(item, sink);
      break;
  }
}
}  // namespace

int Value::CompareSlow(const Value& other) const {
  int ra = TypeRank(type());
  int rb = TypeRank(other.type());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (type()) {
    case Type::kNone:
      return 0;
    case Type::kInt:
      if (other.is_int()) return Cmp(rep_.word.i, other.rep_.word.i);
      return Cmp(static_cast<double>(rep_.word.i), other.rep_.word.d);
    case Type::kDouble:
      if (other.is_int()) {
        return Cmp(rep_.word.d, static_cast<double>(other.rep_.word.i));
      }
      return Cmp(rep_.word.d, other.rep_.word.d);
    case Type::kString:
    case Type::kBytes: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case Type::kList: {
      const ValueList& a = AsList();
      const ValueList& b = other.AsList();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return Cmp(static_cast<int64_t>(a.size()), static_cast<int64_t>(b.size()));
    }
  }
  return 0;
}

uint64_t Value::Hash() const {
  Fnv1aSink sink;
  // An integral double hashes like the equal int, so hash respects ==.
  if (is_double() && std::floor(rep_.word.d) == rep_.word.d &&
      rep_.word.d >= -9.2e18 && rep_.word.d <= 9.2e18) {
    Encode(Value(static_cast<int64_t>(rep_.word.d)), &sink);
  } else {
    Encode(*this, &sink);
  }
  return sink.hash();
}

void Value::Serialize(ByteWriter* writer) const { Encode(*this, writer); }

Result<Value> Value::Deserialize(ByteReader* reader) {
  MRS_ASSIGN_OR_RETURN(uint8_t tag, reader->GetU8());
  switch (static_cast<Type>(tag)) {
    case Type::kNone:
      return Value();
    case Type::kInt: {
      MRS_ASSIGN_OR_RETURN(int64_t v, reader->GetVarintSigned());
      return Value(v);
    }
    case Type::kDouble: {
      MRS_ASSIGN_OR_RETURN(double v, reader->GetDouble());
      return Value(v);
    }
    case Type::kString: {
      MRS_ASSIGN_OR_RETURN(std::string_view s, reader->GetLengthPrefixedView());
      return Value(s);
    }
    case Type::kBytes: {
      MRS_ASSIGN_OR_RETURN(std::string_view s, reader->GetLengthPrefixedView());
      return Value::BytesValue(s);
    }
    case Type::kList: {
      MRS_ASSIGN_OR_RETURN(uint64_t n, reader->GetVarint());
      if (n > (1ull << 30)) return DataLossError("absurd list length");
      ValueList list;
      list.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        MRS_ASSIGN_OR_RETURN(Value v, Deserialize(reader));
        list.push_back(std::move(v));
      }
      return Value(std::move(list));
    }
  }
  return DataLossError("unknown Value tag: " + std::to_string(tag));
}

std::string Value::Repr() const {
  switch (type()) {
    case Type::kNone:
      return "None";
    case Type::kInt:
      return std::to_string(rep_.word.i);
    case Type::kDouble: {
      std::string s = StrPrintf("%.17g", rep_.word.d);
      // Ensure a double never reads back as an int.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case Type::kString:
    case Type::kBytes: {
      std::string out = is_bytes() ? "b'" : "'";
      for (char c : AsString()) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\'': out += "\\'"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
              out += StrPrintf("\\x%02x", static_cast<unsigned char>(c));
            } else {
              out += c;
            }
        }
      }
      out += '\'';
      return out;
    }
    case Type::kList: {
      const ValueList& items = AsList();
      std::string out = "[";
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ", ";
        out += items[i].Repr();
      }
      return out + "]";
    }
  }
  return "?";
}

size_t Value::HeapBytes() const {
  if (!has_block()) return 0;
  if (!is_list()) return sizeof(TextBlock) + AsString().size();
  const ValueList& items = AsList();
  size_t bytes = sizeof(ListBlock) + items.capacity() * sizeof(Value);
  for (const Value& item : items) bytes += item.HeapBytes();
  return bytes;
}

size_t Value::ApproxMemoryBytes() const { return sizeof(Value) + HeapBytes(); }

}  // namespace mrs
