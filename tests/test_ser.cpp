// Tests for the dynamic Value type and the record formats, including
// parameterized round-trip property sweeps.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/strings.h"
#include "rng/mt19937_64.h"
#include "ser/record.h"
#include "ser/value.h"

namespace mrs {
namespace {

Value Bytes_(std::string s) { return Value::BytesValue(std::move(s)); }

std::vector<Value> SampleValues() {
  return {
      Value(),
      Value(int64_t{0}),
      Value(int64_t{-1}),
      Value(int64_t{1} << 40),
      Value(INT64_MIN),
      Value(3.5),
      Value(-0.25),
      Value(1e300),
      Value(""),
      Value("hello"),
      Value("with\ttab\nand newline"),
      Value("unicode: żółć"),
      Bytes_(std::string("\x00\x01\xff\x7f", 4)),
      Value(ValueList{}),
      Value(ValueList{Value(int64_t{1}), Value("two"), Value(3.0)}),
      Value(ValueList{Value(ValueList{Value(int64_t{1})}),
                      Value(ValueList{})}),
  };
}

// ---- Round trips (parameterized over the sample corpus) ------------------

class ValueRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ValueRoundTrip, BinarySerializeDeserialize) {
  Value v = SampleValues()[static_cast<size_t>(GetParam())];
  Bytes buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  ByteReader r(buf);
  Result<Value> out = Value::Deserialize(&r);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, v);
  EXPECT_TRUE(r.empty());
}

TEST_P(ValueRoundTrip, ReprParseRepr) {
  Value v = SampleValues()[static_cast<size_t>(GetParam())];
  Result<Value> out = ParseRepr(v.Repr());
  ASSERT_TRUE(out.ok()) << v.Repr() << ": " << out.status().ToString();
  EXPECT_EQ(*out, v) << v.Repr();
}

TEST_P(ValueRoundTrip, HashConsistentWithEquality) {
  Value v = SampleValues()[static_cast<size_t>(GetParam())];
  Bytes buf;
  ByteWriter w(&buf);
  v.Serialize(&w);
  ByteReader r(buf);
  Value copy = Value::Deserialize(&r).value();
  EXPECT_EQ(v.Hash(), copy.Hash());
}

INSTANTIATE_TEST_SUITE_P(AllSamples, ValueRoundTrip,
                         ::testing::Range(0, static_cast<int>(
                                                 SampleValues().size())));

// ---- Ordering semantics ----------------------------------------------------

TEST(Value, TotalOrderAcrossTypes) {
  // None < numbers < strings < bytes < lists.
  EXPECT_LT(Value(), Value(int64_t{-100}));
  EXPECT_LT(Value(int64_t{5}), Value("a"));
  EXPECT_LT(Value("zzz"), Bytes_("aaa"));
  EXPECT_LT(Bytes_("zzz"), Value(ValueList{}));
}

TEST(Value, MixedNumericComparesNumerically) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_GT(Value(int64_t{3}), Value(2.5));
}

TEST(Value, IntDoubleEqualImpliesEqualHash) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(7.0).Hash());
}

TEST(Value, ListLexicographicOrder) {
  Value a(ValueList{Value(int64_t{1}), Value(int64_t{2})});
  Value b(ValueList{Value(int64_t{1}), Value(int64_t{3})});
  Value c(ValueList{Value(int64_t{1})});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // prefix is smaller
}

TEST(Value, StringOrderIsBytewise) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
}

TEST(Value, ComparisonIsAntisymmetricOnSamples) {
  auto values = SampleValues();
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), -b.Compare(a))
          << a.Repr() << " vs " << b.Repr();
    }
  }
}

TEST(Value, SortingSamplesIsStableAndTotal) {
  auto values = SampleValues();
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i + 1 < values.size(); ++i) {
    EXPECT_LE(values[i], values[i + 1]);
  }
}

// ---- Repr details -----------------------------------------------------------

TEST(Value, ReprDistinguishesIntFromDouble) {
  EXPECT_EQ(Value(int64_t{2}).Repr(), "2");
  EXPECT_EQ(Value(2.0).Repr(), "2.0");
  EXPECT_TRUE(ParseRepr("2").value().is_int());
  EXPECT_TRUE(ParseRepr("2.0").value().is_double());
}

TEST(Value, ReprEscapesControlCharacters) {
  Value v(std::string("a\x01" "b"));
  EXPECT_EQ(v.Repr(), "'a\\x01b'");
  EXPECT_EQ(ParseRepr(v.Repr()).value(), v);
}

// ---- Hash golden values ------------------------------------------------------

/// Deterministic filler: "abcd...zabc..." of length n.
std::string Pattern(size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + i % 26));
  return s;
}

// Hash() feeds the default partitioner, so a changed hash moves records
// between partitions.  These values were produced by the serialize-then-
// FNV implementation; the streaming hash must reproduce them exactly.
TEST(Value, HashGoldenValues) {
  const std::vector<std::pair<Value, uint64_t>> golden = {
      {Value(), 0xaf63bd4c8601b7dfull},
      {Value(int64_t{-1}), 0x082f2307b4e88e77ull},
      {Value(int64_t{0}), 0x082f2207b4e88cc4ull},
      {Value(int64_t{1}), 0x082f2407b4e8902aull},
      {Value(int64_t{63}), 0x082f4807b4e8cd56ull},
      {Value(int64_t{64}), 0xd25698186898c73full},
      {Value(INT64_MIN), 0x50b0b25df09fa660ull},
      {Value(2.0), 0x082f1e07b4e885f8ull},  // integral: hashes as int 2
      {Value(2.5), 0x0ccbd4f54dbaf601ull},
      {Value(-0.0), 0x082f2207b4e88cc4ull},  // == int 0
      {Value(Pattern(0)), 0x0835ee07b4ee5316ull},
      {Value(Pattern(22)), 0xfd28e819fcffb0cbull},
      {Value(Pattern(23)), 0xcff3ac04106fa30dull},
      {Value(Pattern(100)), 0x8e74999c6824bdf2ull},
      {Bytes_(std::string("\x00\x01\xff\x7f", 4)), 0x8e7c40d86135f530ull},
      {Bytes_(std::string(23, '\0')), 0x2d56cec9e115ba84ull},
      {Value(ValueList{Value(int64_t{1}), Value("two"), Value(3.0)}),
       0x729331ded7df81e4ull},
      // A nested integral double keeps its double encoding.
      {Value(ValueList{Value(ValueList{Value(int64_t{1})}), Value(ValueList{}),
                       Value(Pattern(23)), Value(2.0)}),
       0x76f4fa26f3eca574ull},
  };
  for (const auto& [v, hash] : golden) {
    EXPECT_EQ(v.Hash(), hash) << v.Repr();
  }
}

// ---- Compact layout: inline and heap payloads --------------------------------

TEST(Value, InlineHeapBoundaryStringsAndBytes) {
  for (size_t n : {size_t{0}, size_t{22}, size_t{23}, size_t{90}}) {
    for (bool nul : {false, true}) {
      std::string text = Pattern(n);
      if (nul && n > 0) text[n / 2] = '\0';
      for (const Value& v : {Value(text), Bytes_(text)}) {
        ASSERT_EQ(v.AsString().size(), n) << n;
        EXPECT_EQ(v.AsString(), text) << n;
        Bytes buf;
        ByteWriter w(&buf);
        v.Serialize(&w);
        ASSERT_EQ(buf.size(), 2 + n);  // tag, one-byte varint length, bytes
        ByteReader r(buf);
        Value back = Value::Deserialize(&r).value();
        EXPECT_EQ(back.type(), v.type());
        EXPECT_EQ(back.AsString(), text);
        EXPECT_EQ(ParseRepr(v.Repr()).value(), v);
      }
    }
  }
}

TEST(Value, CopyMoveAndSelfAssignment) {
  for (const Value& original :
       {Value(int64_t{42}), Value(Pattern(22)), Value(Pattern(90)),
        Bytes_(Pattern(30)), Value(ValueList{Value(Pattern(40))})}) {
    Value copy(original);
    EXPECT_EQ(copy, original);
    Value assigned;
    assigned = original;
    EXPECT_EQ(assigned, original);

    Value& self = copy;
    copy = self;
    EXPECT_EQ(copy, original);
    copy = std::move(self);
    EXPECT_EQ(copy, original);

    Value moved(std::move(copy));
    EXPECT_EQ(moved, original);
    EXPECT_TRUE(copy.is_none());  // NOLINT(bugprone-use-after-move)
    Value move_assigned(int64_t{1});
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, original);
    EXPECT_TRUE(moved.is_none());  // NOLINT(bugprone-use-after-move)
    moved = original;               // a moved-from Value is reusable
    EXPECT_EQ(moved, original);
  }
}

TEST(Value, CopiesShareOneHeapBlock) {
  Value heap(Pattern(90));
  Value copy = heap;
  std::vector<Value> many(8, heap);
  EXPECT_EQ(copy.AsString().data(), heap.AsString().data());
  for (const Value& v : many) {
    EXPECT_EQ(v.AsString().data(), heap.AsString().data());
  }
  // The block outlives the Value it was built for.
  std::string_view view = copy.AsString();
  heap = Value();
  many.clear();
  EXPECT_EQ(view, Pattern(90));
  EXPECT_EQ(copy.AsString().data(), view.data());

  // Inline payloads live in each Value, so each copy has its own bytes.
  Value small(Pattern(22));
  Value small_copy = small;
  EXPECT_NE(small_copy.AsString().data(), small.AsString().data());
  EXPECT_EQ(small_copy.AsString(), small.AsString());
}

TEST(Value, ListCopiesShareItems) {
  Value list(ValueList{Value(int64_t{1}), Value(Pattern(50))});
  Value copy = list;
  EXPECT_EQ(&copy.AsList(), &list.AsList());
  EXPECT_EQ(copy.AsList()[1].AsString().data(),
            list.AsList()[1].AsString().data());
  list = Value();
  ASSERT_EQ(copy.AsList().size(), 2u);
  EXPECT_EQ(copy.AsList()[1].AsString(), Pattern(50));
}

TEST(Value, ApproxMemoryBytesIsExact) {
  const size_t kValue = sizeof(Value);
  const size_t kTextHeader = 16;  // refcount + length
  const size_t kListHeader = 8 + sizeof(ValueList);  // refcount + vector
  EXPECT_EQ(Value().ApproxMemoryBytes(), kValue);
  EXPECT_EQ(Value(int64_t{7}).ApproxMemoryBytes(), kValue);
  EXPECT_EQ(Value(2.5).ApproxMemoryBytes(), kValue);
  EXPECT_EQ(Value(Pattern(22)).ApproxMemoryBytes(), kValue);
  EXPECT_EQ(Bytes_(Pattern(22)).ApproxMemoryBytes(), kValue);
  EXPECT_EQ(Value(Pattern(23)).ApproxMemoryBytes(), kValue + kTextHeader + 23);
  EXPECT_EQ(Bytes_(Pattern(90)).ApproxMemoryBytes(), kValue + kTextHeader + 90);

  ValueList items;
  items.reserve(2);
  items.push_back(Value(int64_t{1}));
  items.push_back(Value(Pattern(30)));
  Value list(std::move(items));
  EXPECT_EQ(list.ApproxMemoryBytes(),
            kValue + kListHeader + 2 * kValue + kTextHeader + 30);

  // A DistSort record: a 10-byte inline key and a 90-byte heap payload.
  KeyValue kv{Value(Pattern(10)), Value(Pattern(90))};
  EXPECT_EQ(ApproxMemoryBytes(kv), 2 * kValue + kTextHeader + 90);
}

TEST(Value, OrderMixesIntsAndDoublesAndSeparatesStringsFromBytes) {
  const std::vector<Value> ordered = {
      Value(),
      Value(-1e300),
      Value(INT64_MIN),
      Value(-1.5),
      Value(int64_t{-1}),
      Value(-0.5),
      Value(int64_t{0}),
      Value(0.25),
      Value(int64_t{1}),
      Value(1.5),
      Value(int64_t{2}),
      Value(2.5),
      Value(1e300),
      Value(""),
      Value(std::string("a\0", 2)),
      Value(Pattern(22)),
      Value(Pattern(23)),  // inline 22-byte prefix < heap 23 bytes
      Value("b"),
      Value("\x7f"),
      Value("\x80"),  // bytewise unsigned: 0x80 sorts after 0x7f
      Value(std::string(30, '\xff')),
      Bytes_(""),  // any bytes sort after every string
      Bytes_(std::string("\x00", 1)),
      Bytes_(Pattern(90)),
      Bytes_("\xff"),
      Value(ValueList{}),
  };
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (size_t j = 0; j < ordered.size(); ++j) {
      int want = i < j ? -1 : (i > j ? 1 : 0);
      EXPECT_EQ(ordered[i].Compare(ordered[j]), want)
          << ordered[i].Repr() << " vs " << ordered[j].Repr();
    }
  }
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_EQ(Value(-0.0).Compare(Value(int64_t{0})), 0);
}

TEST(ParseRepr, RejectsGarbage) {
  EXPECT_FALSE(ParseRepr("").ok());
  EXPECT_FALSE(ParseRepr("'unterminated").ok());
  EXPECT_FALSE(ParseRepr("[1, 2").ok());
  EXPECT_FALSE(ParseRepr("1 2").ok());
  EXPECT_FALSE(ParseRepr("12abc").ok());
}

// ---- Record streams ----------------------------------------------------------

std::vector<KeyValue> SampleRecords() {
  return {
      {Value("alpha"), Value(int64_t{3})},
      {Value(int64_t{7}), Value(ValueList{Value(1.5), Value("x")})},
      {Value(), Bytes_("raw\x00里"
                       "x")},
  };
}

TEST(Records, BinaryRoundTrip) {
  auto records = SampleRecords();
  std::string encoded = EncodeBinaryRecords(records);
  auto out = DecodeBinaryRecords(encoded);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, records);
}

// The wire format is shared by every runner and by spill files; these
// bytes were produced by the std::string-backed Value and must not move.
TEST(Records, GoldenBinaryEncoding) {
  std::vector<KeyValue> records = {
      {Value(), Value(int64_t{1})},
      {Value(Pattern(10)), Value(Pattern(90))},
      {Bytes_(std::string("a\0b\0c", 5) + Pattern(17)), Value(-0.0)},
      {Value(ValueList{Value(int64_t{-300}),
                       Bytes_(std::string(23, '\xff'))}),
       Value(Pattern(23))},
  };
  const std::string golden_hex =
      "6d727362310a04000102030a6162636465666768696a035a6162636465666768696a"
      "6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e6f707172"
      "737475767778797a6162636465666768696a6b6c6d6e6f707172737475767778797a"
      "6162636465666768696a6b6c041661006200636162636465666768696a6b6c6d6e6f"
      "7071020000000000000080050201d7040417ffffffffffffffffffffffffffffffff"
      "ffffffffffffff03176162636465666768696a6b6c6d6e6f7071727374757677";
  std::string encoded = EncodeBinaryRecords(records);
  std::string hex;
  for (unsigned char c : encoded) hex += StrPrintf("%02x", c);
  EXPECT_EQ(hex, golden_hex);
  auto decoded = DecodeBinaryRecords(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, records);
}

TEST(Records, TextRoundTrip) {
  std::vector<KeyValue> records = {
      {Value("word"), Value(int64_t{12})},
      {Value(int64_t{-3}), Value(2.25)},
      {Value("tab\there"), Value("v")},
  };
  std::string encoded = EncodeTextRecords(records);
  auto out = DecodeTextRecords(encoded);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, records);
}

TEST(Records, AutoDetectFormat) {
  auto records = SampleRecords();
  EXPECT_EQ(DecodeRecords(EncodeBinaryRecords(records)).value(), records);
  std::vector<KeyValue> textable = {{Value("k"), Value(int64_t{1})}};
  EXPECT_EQ(DecodeRecords(EncodeTextRecords(textable)).value(), textable);
}

TEST(Records, CorruptBinaryDetected) {
  auto records = SampleRecords();
  std::string encoded = EncodeBinaryRecords(records);
  // Truncate mid-record.
  EXPECT_FALSE(DecodeBinaryRecords(encoded.substr(0, encoded.size() - 3)).ok());
  // Flip the magic.
  std::string bad = encoded;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeBinaryRecords(bad).ok());
  // Trailing garbage.
  EXPECT_FALSE(DecodeBinaryRecords(encoded + "zz").ok());
}

TEST(Records, EmptyStreamRoundTrips) {
  std::vector<KeyValue> empty;
  EXPECT_TRUE(DecodeBinaryRecords(EncodeBinaryRecords(empty)).value().empty());
  EXPECT_TRUE(DecodeTextRecords(EncodeTextRecords(empty)).value().empty());
}

TEST(Records, LinesToRecordsNumbersLines) {
  auto records = LinesToRecords("first\nsecond\n\nfourth\n");
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].key.AsInt(), 0);
  EXPECT_EQ(records[0].value.AsString(), "first");
  EXPECT_EQ(records[2].value.AsString(), "");
  EXPECT_EQ(records[3].key.AsInt(), 3);
}

TEST(Records, LinesToRecordsNoTrailingNewline) {
  auto records = LinesToRecords("only");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].value.AsString(), "only");
  EXPECT_TRUE(LinesToRecords("").empty());
}

TEST(Records, KeyValueLessGroupsKeys) {
  std::vector<KeyValue> records = {
      {Value("b"), Value(int64_t{1})},
      {Value("a"), Value(int64_t{2})},
      {Value("a"), Value(int64_t{1})},
  };
  std::sort(records.begin(), records.end(), KeyValueLess);
  EXPECT_EQ(records[0].key.AsString(), "a");
  EXPECT_EQ(records[0].value.AsInt(), 1);
  EXPECT_EQ(records[1].value.AsInt(), 2);
  EXPECT_EQ(records[2].key.AsString(), "b");
}

// ---- Fuzz-ish random round trips -------------------------------------------

Value RandomValue(MT19937_64& rng, int depth) {
  switch (rng.NextBounded(depth > 0 ? 6 : 5)) {
    case 0: return Value();
    case 1: return Value(static_cast<int64_t>(rng.NextU64()));
    case 2: return Value(rng.NextDouble() * 1e6 - 5e5);
    case 3: {
      std::string s;
      uint64_t len = rng.NextBounded(12);
      for (uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>(rng.NextBounded(256));
      }
      return Value::BytesValue(std::move(s));
    }
    case 4: {
      std::string s;
      uint64_t len = rng.NextBounded(12);
      for (uint64_t i = 0; i < len; ++i) {
        s += static_cast<char>('a' + rng.NextBounded(26));
      }
      return Value(std::move(s));
    }
    default: {
      ValueList list;
      uint64_t len = rng.NextBounded(5);
      for (uint64_t i = 0; i < len; ++i) {
        list.push_back(RandomValue(rng, depth - 1));
      }
      return Value(std::move(list));
    }
  }
}

TEST(Records, RandomizedBinaryRoundTrips) {
  MT19937_64 rng(2024);
  for (int iteration = 0; iteration < 200; ++iteration) {
    std::vector<KeyValue> records;
    uint64_t n = rng.NextBounded(8);
    for (uint64_t i = 0; i < n; ++i) {
      records.push_back(KeyValue{RandomValue(rng, 2), RandomValue(rng, 2)});
    }
    auto out = DecodeBinaryRecords(EncodeBinaryRecords(records));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, records);
  }
}

}  // namespace
}  // namespace mrs
