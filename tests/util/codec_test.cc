#include "util/codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/atomic_io.h"

namespace pathsel::codec {
namespace {

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(Codec, WriterEmitsLittleEndianKnownAnswers) {
  Writer w;
  w.put_u8(0xab);
  w.put_u32(0x01020304u);
  w.put_u64(0x0102030405060708ULL);
  w.put_i32(-2);
  w.put_i64(-1);
  w.put_f64(1.0);
  w.put_f64(-0.0);
  w.put_bytes("hi");
  EXPECT_EQ(hex(std::move(w).take()),
            "ab"
            "04030201"
            "0807060504030201"
            "feffffff"
            "ffffffffffffffff"
            "000000000000f03f"
            "0000000000000080"
            "6869");
}

TEST(Codec, CursorReadsBackWhatWriterWrote) {
  Writer w;
  w.put_u8(7);
  w.put_u32(0xdeadbeefu);
  w.put_u64(std::numeric_limits<std::uint64_t>::max());
  w.put_i32(std::numeric_limits<std::int32_t>::min());
  w.put_i64(-42);
  w.put_f64(0.1);
  w.put_bytes("xyz");
  const std::string image = std::move(w).take();

  Cursor c{image};
  EXPECT_EQ(c.take_u8("u8"), 7u);
  EXPECT_EQ(c.take_u32("u32"), 0xdeadbeefu);
  EXPECT_EQ(c.take_u64("u64"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(c.take_i32("i32"), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(c.take_i64("i64"), -42);
  EXPECT_EQ(c.take_f64("f64"), 0.1);
  EXPECT_EQ(c.take_bytes(3, "bytes"), "xyz");
  EXPECT_FALSE(c.failed());
  EXPECT_EQ(c.remaining(), 0u);
  EXPECT_EQ(c.pos(), image.size());
}

TEST(Codec, TruncatedReadNamesTheField) {
  const std::string image{"\x01\x02\x03\x04\x05\x06", 6};
  Cursor c{image};
  EXPECT_EQ(c.take_u32("magic"), 0x04030201u);
  EXPECT_EQ(c.take_u32("column-set count"), 0u);
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(c.error(), "truncated file: expected column-set count");
  // The first failure sticks: later reads return zero and keep its message,
  // even ones the remaining bytes could have satisfied.
  EXPECT_EQ(c.take_u8("flag"), 0u);
  EXPECT_TRUE(c.take_bytes(1, "tail").empty());
  EXPECT_EQ(c.error(), "truncated file: expected column-set count");
}

TEST(Codec, FitsGuardsLengthFieldsBeforeAllocation) {
  const std::string image(16, '\0');
  const Cursor c{image};
  EXPECT_TRUE(c.fits(4, 4));
  EXPECT_FALSE(c.fits(5, 4));
  EXPECT_FALSE(c.fits(std::numeric_limits<std::uint64_t>::max(), 1));
}

TEST(Codec, SealAppendsCrc32OfEveryPrecedingByte) {
  Writer w;
  w.put_bytes("123456789");
  const std::string sealed = std::move(w).seal();
  // CRC-32/IEEE check value 0xCBF43926, little-endian.
  EXPECT_EQ(hex(sealed.substr(9)), "2639f4cb");
  const std::optional<std::string_view> payload = unseal(sealed);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "123456789");
  EXPECT_EQ(unseal(Writer{}.seal()), std::optional<std::string_view>{""});
}

TEST(Codec, UnsealRejectsEveryBitFlipAndEveryTruncation) {
  Writer w;
  w.put_u32(0x43525350u);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f64(-0.0);
  const std::string sealed = std::move(w).seal();
  ASSERT_TRUE(unseal(sealed).has_value());
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = sealed;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_FALSE(unseal(flipped).has_value())
          << "byte " << byte << " bit " << bit;
    }
  }
  for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
    EXPECT_FALSE(unseal(std::string_view{sealed}.substr(0, cut)).has_value())
        << "cut at " << cut;
  }
}

// One row per input: whether each parser accepts it, and the value it
// yields.  Leading whitespace and a '+' sign are strto*'s and stay accepted;
// inf, nan and hex floats are not in the token language.
TEST(Codec, StrictNumberParsers) {
  struct Row {
    std::string_view text;
    bool u64_ok;
    std::uint64_t u64;
    bool i64_ok;
    std::int64_t i64;
    bool dbl_ok;
    double dbl;
  };
  const Row rows[] = {
      {"", false, 0, false, 0, false, 0.0},
      {"12x", false, 0, false, 0, false, 0.0},
      {"7 ", false, 0, false, 0, false, 0.0},
      {"-1", false, 0, true, -1, true, -1.0},
      {" -1", false, 0, true, -1, true, -1.0},
      {"18446744073709551615", true, std::numeric_limits<std::uint64_t>::max(),
       false, 0, true, 18446744073709551615.0},
      {"18446744073709551616", false, 0, false, 0, true, 18446744073709551616.0},
      {"-9223372036854775808", false, 0, true,
       std::numeric_limits<std::int64_t>::min(), true, -9223372036854775808.0},
      {"1e400", false, 0, false, 0, false, 0.0},
      {"2.5", false, 0, false, 0, true, 2.5},
      {"+5", true, 5, true, 5, true, 5.0},
      {" 7", true, 7, true, 7, true, 7.0},
      {"\t\v+7", true, 7, true, 7, true, 7.0},
      {"+-5", false, 0, false, 0, false, 0.0},
      {"007", true, 7, true, 7, true, 7.0},
      {"0x10", false, 0, false, 0, false, 0.0},
      {"inf", false, 0, false, 0, false, 0.0},
      {"-nan", false, 0, false, 0, false, 0.0},
      {"0x1p3", false, 0, false, 0, false, 0.0},
      {"5e-324", false, 0, false, 0, true, 5e-324},
      {"2.2250738585072009e-308", false, 0, false, 0, true,
       2.2250738585072009e-308},
      {"-1e-400", false, 0, false, 0, true, -0.0},
      {".5", false, 0, false, 0, true, 0.5},
      {"-.5e1", false, 0, false, 0, true, -5.0},
      {std::string_view{"1\0" "2", 3}, false, 0, false, 0, false, 0.0},
  };
  for (const Row& row : rows) {
    std::string label = "'";
    label += row.text;
    label += "'";
    std::uint64_t u = 99;
    EXPECT_EQ(parse_u64(row.text, u), row.u64_ok) << label;
    EXPECT_EQ(u, row.u64_ok ? row.u64 : 99u) << label;
    std::int64_t i = 99;
    EXPECT_EQ(parse_i64(row.text, i), row.i64_ok) << label;
    EXPECT_EQ(i, row.i64_ok ? row.i64 : 99) << label;
    double d = 99.0;
    EXPECT_EQ(parse_double(row.text, d), row.dbl_ok) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d),
              std::bit_cast<std::uint64_t>(row.dbl_ok ? row.dbl : 99.0))
        << label;
  }
}

TEST(Codec, ParseU64TakesABase) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("fdebc0dc", v, 16));
  EXPECT_EQ(v, 0xfdebc0dcu);
  EXPECT_TRUE(parse_u64("FDEBC0DC", v, 16));
  EXPECT_EQ(v, 0xfdebc0dcu);
  EXPECT_TRUE(parse_u64("0xfdebc0dc", v, 16));  // strtoull's prefix
  EXPECT_EQ(v, 0xfdebc0dcu);
  EXPECT_TRUE(parse_u64("+0XFDEBC0DC", v, 16));
  EXPECT_EQ(v, 0xfdebc0dcu);
  EXPECT_FALSE(parse_u64("0x", v, 16));
  EXPECT_FALSE(parse_u64("fdebc0dc", v));
  EXPECT_FALSE(parse_u64("-fdebc0dc", v, 16));
  EXPECT_FALSE(parse_u64("10000000000000000", v, 16));
}

TEST(Codec, LinesSplitAsGetline) {
  auto split = [](std::string_view text) {
    std::vector<std::string> out;
    Lines lines{text};
    for (std::string_view line; lines.next(line);) out.emplace_back(line);
    return out;
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(split(""), V{});
  EXPECT_EQ(split("\n"), V{""});
  EXPECT_EQ(split("a"), V{"a"});
  EXPECT_EQ(split("a\n"), V{"a"});
  EXPECT_EQ(split("a\n\nb\r"), (V{"a", "", "b\r"}));
  EXPECT_EQ(split("a\n\n"), (V{"a", ""}));
}

TEST(Codec, TokensSplitAtCLocaleWhitespace) {
  Tokens ls{" m\t-12 +3\v\f0.5\r x7"};
  EXPECT_EQ(ls.next(), "m");
  std::int32_t i = 0;
  EXPECT_TRUE(ls.next_int(i));
  EXPECT_EQ(i, -12);
  std::uint8_t u = 0;
  EXPECT_TRUE(ls.next_int(u));
  EXPECT_EQ(u, 3);
  double d = 0.0;
  EXPECT_TRUE(ls.next_real(d));
  EXPECT_EQ(d, 0.5);
  EXPECT_EQ(ls.rest(), "\r x7");
  EXPECT_FALSE(ls.next_int(i));  // "x7" is not a whole number
  EXPECT_EQ(ls.next(), "");
  std::uint8_t small = 0;
  EXPECT_FALSE(parse_int("256", small));
  EXPECT_EQ(small, 0);
}

// append_text prints doubles exactly as printf("%.17g") does and Hex values
// exactly as %016llx / %08lx.
TEST(Codec, FieldWriterMatchesPrintf) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           1e-4,
                           1e-5,
                           5e-324,
                           2.2250738585072009e-308,
                           12345678901234568.0,
                           1.2345678901234568e+17,
                           -1.5,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    char want[64];
    std::snprintf(want, sizeof want, "%.17g", v);
    EXPECT_EQ(to_text(v), want);
  }
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{0xab},
        std::uint64_t{0x0123456789abcdef},
        std::numeric_limits<std::uint64_t>::max()}) {
    char want[24];
    std::snprintf(want, sizeof want, "%016llx",
                  static_cast<unsigned long long>(v));
    EXPECT_EQ(to_text(Hex{v}), want);
  }
  for (const std::uint32_t v : {0u, 0xbeefu, 0xdeadbeefu}) {
    char want[16];
    std::snprintf(want, sizeof want, "%08lx", static_cast<unsigned long>(v));
    EXPECT_EQ(to_text(Hex{v, 8}), want);
  }
  std::string line;
  append_line(line, "e", 4, -1, std::uint64_t{18446744073709551615ULL}, 0.25,
              "x y", Hex{7, 2});
  EXPECT_EQ(line, "e 4 -1 18446744073709551615 0.25 x y 07\n");
}

TEST(Codec, TextTrailerIsCanonicalInEitherRadix) {
  for (const CrcRadix radix : {CrcRadix::kDecimal, CrcRadix::kHex}) {
    std::string sealed = "header v1\nkey 7\n";
    seal_text(sealed, radix);
    char want[32];
    std::snprintf(want, sizeof want,
                  radix == CrcRadix::kHex ? "crc %08lx\n" : "crc %lu\n",
                  static_cast<unsigned long>(crc32("header v1\nkey 7\n")));
    EXPECT_EQ(sealed, std::string{"header v1\nkey 7\n"} + want);
    EXPECT_EQ(unseal_text(sealed, radix),
              std::optional<std::string_view>{"header v1\nkey 7\n"});

    const CrcRadix other =
        radix == CrcRadix::kHex ? CrcRadix::kDecimal : CrcRadix::kHex;
    EXPECT_FALSE(unseal_text(sealed, other).has_value());
    const std::size_t digits = sealed.rfind(' ') + 1;
    for (const char* spelling : {"+", "0", " "}) {
      std::string respelled = sealed;
      respelled.insert(digits, spelling);
      EXPECT_FALSE(unseal_text(respelled, radix).has_value()) << spelling;
    }
    std::string cr = sealed;
    cr.insert(cr.size() - 1, "\r");
    EXPECT_FALSE(unseal_text(cr, radix).has_value());
    for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = sealed;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        EXPECT_FALSE(unseal_text(flipped, radix).has_value())
            << "byte " << byte << " bit " << bit;
      }
    }
    for (std::size_t cut = 0; cut < sealed.size(); ++cut) {
      EXPECT_FALSE(
          unseal_text(std::string_view{sealed}.substr(0, cut), radix)
              .has_value())
          << "cut at " << cut;
    }
    // An empty payload seals to a one-line text.
    std::string empty;
    seal_text(empty, radix);
    EXPECT_EQ(unseal_text(empty, radix), std::optional<std::string_view>{""});
  }
}

}  // namespace
}  // namespace pathsel::codec
