// Field-axiom and kernel tests for GF(2^8).

#include <gtest/gtest.h>

#include "gf/gf256.h"
#include "util/rng.h"

namespace p2p {
namespace gf {
namespace {

TEST(GF256Test, AdditionIsXor) {
  EXPECT_EQ(GF256::Add(0x53, 0xca), 0x53 ^ 0xca);
  EXPECT_EQ(GF256::Add(7, 7), 0);
}

TEST(GF256Test, MultiplicativeIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::Mul(static_cast<uint8_t>(a), 1), a);
    EXPECT_EQ(GF256::Mul(static_cast<uint8_t>(a), 0), 0);
  }
}

TEST(GF256Test, KnownProduct) {
  // 0x53 * 0xca = 0x01 under polynomial 0x11d (classic AES-adjacent check
  // does not apply; this pair is an inverse pair under 0x11d).
  EXPECT_EQ(GF256::Mul(0x53, 0xca), GF256::Mul(0xca, 0x53));
}

TEST(GF256Test, MulCommutativeExhaustive) {
  for (int a = 0; a < 256; a += 3) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(GF256::Mul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)),
                GF256::Mul(static_cast<uint8_t>(b), static_cast<uint8_t>(a)));
    }
  }
}

TEST(GF256Test, MulAssociativeSampled) {
  util::Rng rng(1);
  for (int i = 0; i < 20'000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.NextU32());
    const uint8_t b = static_cast<uint8_t>(rng.NextU32());
    const uint8_t c = static_cast<uint8_t>(rng.NextU32());
    ASSERT_EQ(GF256::Mul(GF256::Mul(a, b), c), GF256::Mul(a, GF256::Mul(b, c)));
  }
}

TEST(GF256Test, DistributiveSampled) {
  util::Rng rng(2);
  for (int i = 0; i < 20'000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.NextU32());
    const uint8_t b = static_cast<uint8_t>(rng.NextU32());
    const uint8_t c = static_cast<uint8_t>(rng.NextU32());
    ASSERT_EQ(GF256::Mul(a, GF256::Add(b, c)),
              GF256::Add(GF256::Mul(a, b), GF256::Mul(a, c)));
  }
}

TEST(GF256Test, InverseExhaustive) {
  for (int a = 1; a < 256; ++a) {
    const uint8_t inv = GF256::Inv(static_cast<uint8_t>(a));
    ASSERT_EQ(GF256::Mul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(GF256Test, DivisionInvertsMultiplication) {
  util::Rng rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.NextU32());
    uint8_t b = static_cast<uint8_t>(rng.NextU32());
    if (b == 0) b = 1;
    ASSERT_EQ(GF256::Div(GF256::Mul(a, b), b), a);
  }
}

TEST(GF256Test, GeneratorHasFullOrder) {
  // Powers of the generator must enumerate all 255 non-zero elements.
  std::array<bool, 256> seen{};
  uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    ASSERT_FALSE(seen[x]) << "cycle shorter than 255 at " << i;
    seen[x] = true;
    x = GF256::Mul(x, GF256::kGenerator);
  }
  EXPECT_EQ(x, 1);  // full cycle returns to 1
}

TEST(GF256Test, LogExpInverse) {
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(GF256::Exp(GF256::Log(static_cast<uint8_t>(a))), a);
  }
  EXPECT_EQ(GF256::Exp(255), GF256::Exp(0));  // periodicity
  EXPECT_EQ(GF256::Exp(-1), GF256::Exp(254));
}

TEST(GF256Test, PowMatchesRepeatedMul) {
  util::Rng rng(4);
  for (int i = 0; i < 2'000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.NextU32() | 1);
    const int e = static_cast<int>(rng.UniformInt(0, 16));
    uint8_t expect = 1;
    for (int j = 0; j < e; ++j) expect = GF256::Mul(expect, a);
    ASSERT_EQ(GF256::Pow(a, e), expect);
  }
  EXPECT_EQ(GF256::Pow(0, 0), 1);
  EXPECT_EQ(GF256::Pow(0, 5), 0);
}

TEST(GF256Test, MulAddBufMatchesScalar) {
  util::Rng rng(5);
  std::vector<uint8_t> src(1000), dst(1000), expect(1000);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(rng.NextU32());
    dst[i] = static_cast<uint8_t>(rng.NextU32());
    expect[i] = dst[i];
  }
  for (uint8_t c : {0, 1, 2, 37, 255}) {
    auto d = dst;
    auto e = expect;
    GF256::MulAddBuf(d.data(), src.data(), c, d.size());
    for (size_t i = 0; i < e.size(); ++i) e[i] ^= GF256::Mul(c, src[i]);
    ASSERT_EQ(d, e) << "c=" << static_cast<int>(c);
  }
}

TEST(GF256Test, MulBufMatchesScalar) {
  util::Rng rng(6);
  std::vector<uint8_t> src(257);
  for (auto& v : src) v = static_cast<uint8_t>(rng.NextU32());
  for (uint8_t c : {0, 1, 93}) {
    std::vector<uint8_t> dst(src.size());
    GF256::MulBuf(dst.data(), src.data(), c, src.size());
    for (size_t i = 0; i < src.size(); ++i) {
      ASSERT_EQ(dst[i], GF256::Mul(c, src[i]));
    }
  }
}

TEST(GF256Test, AddBufIsXor) {
  util::Rng rng(7);
  std::vector<uint8_t> a(123), b(123);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<uint8_t>(rng.NextU32());
    b[i] = static_cast<uint8_t>(rng.NextU32());
  }
  auto d = a;
  GF256::AddBuf(d.data(), b.data(), d.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(d[i], a[i] ^ b[i]);
}

}  // namespace
}  // namespace gf
}  // namespace p2p
