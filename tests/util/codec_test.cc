#include "util/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

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
// yields.  Rows marked "today" pin the strto* language the parsers keep.
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
      {"+5", true, 5, true, 5, true, 5.0},  // today: sign accepted
      {" 7", true, 7, true, 7, true, 7.0},  // today: leading space accepted
      {std::string_view{"1\0" "2", 3}, false, 0, false, 0, false, 0.0},
  };
  for (const Row& row : rows) {
    const std::string label = "'" + std::string{row.text} + "'";
    std::uint64_t u = 99;
    EXPECT_EQ(parse_u64(row.text, u), row.u64_ok) << label;
    EXPECT_EQ(u, row.u64_ok ? row.u64 : 99u) << label;
    std::int64_t i = 99;
    EXPECT_EQ(parse_i64(row.text, i), row.i64_ok) << label;
    EXPECT_EQ(i, row.i64_ok ? row.i64 : 99) << label;
    double d = 99.0;
    EXPECT_EQ(parse_double(row.text, d), row.dbl_ok) << label;
    EXPECT_EQ(d, row.dbl_ok ? row.dbl : 99.0) << label;
  }
}

TEST(Codec, ParseU64TakesABase) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("fdebc0dc", v, 16));
  EXPECT_EQ(v, 0xfdebc0dcu);
  EXPECT_TRUE(parse_u64("FDEBC0DC", v, 16));
  EXPECT_EQ(v, 0xfdebc0dcu);
  EXPECT_FALSE(parse_u64("fdebc0dc", v));
  EXPECT_FALSE(parse_u64("-fdebc0dc", v, 16));
  EXPECT_FALSE(parse_u64("10000000000000000", v, 16));
}

}  // namespace
}  // namespace pathsel::codec
