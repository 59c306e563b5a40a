// Unit + property tests for the erasure-coding substrate: GF(2^8) field
// axioms and the product-table row kernel, matrix algebra, and the
// Reed-Solomon / replication codecs (checked byte for byte against a
// per-byte reference encoder).
#include "codec/codec.hpp"
#include "codec/gf256.hpp"
#include "codec/matrix.hpp"
#include "common/random.hpp"
#include "common/types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace ares::codec {
namespace {

// --- GF(2^8) ----------------------------------------------------------------

TEST(GF256, AdditionIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::add(7, 7), 0);
}

TEST(GF256, MultiplicativeIdentity) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), 1), a);
    EXPECT_EQ(GF256::mul(1, static_cast<GF256::Elem>(a)), a);
  }
}

TEST(GF256, ZeroAnnihilates) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<GF256::Elem>(a), 0), 0);
  }
}

TEST(GF256, KnownAesProduct) {
  // 0x53 * 0xCA = 0x01 under the AES polynomial — classic test vector.
  EXPECT_EQ(GF256::mul(0x53, 0xCA), 0x01);
}

TEST(GF256, InverseProperty) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, GF256::inv(e)), 1) << "a=" << a;
  }
}

TEST(GF256, DivisionMatchesMulByInverse) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto b = static_cast<GF256::Elem>(rng.uniform(1, 255));
    EXPECT_EQ(GF256::div(a, b), GF256::mul(a, GF256::inv(b)));
  }
}

TEST(GF256, MultiplicationCommutesAndAssociates) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto b = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto c = static_cast<GF256::Elem>(rng.uniform(0, 255));
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    EXPECT_EQ(GF256::mul(a, GF256::mul(b, c)), GF256::mul(GF256::mul(a, b), c));
  }
}

TEST(GF256, DistributesOverAddition) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto b = static_cast<GF256::Elem>(rng.uniform(0, 255));
    const auto c = static_cast<GF256::Elem>(rng.uniform(0, 255));
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (unsigned a = 0; a < 256; a += 7) {
    GF256::Elem acc = 1;
    for (unsigned e = 0; e < 10; ++e) {
      EXPECT_EQ(GF256::pow(static_cast<GF256::Elem>(a), e), acc);
      acc = GF256::mul(acc, static_cast<GF256::Elem>(a));
    }
  }
}

TEST(GF256, RowKernelMatchesMul) {
  Rng rng(11);
  for (const std::size_t len : {0, 1, 15, 4097}) {
    // One byte of slack on each side: the kernel must touch exactly len.
    const Value src = make_test_value(len + 1, len);
    for (unsigned a = 0; a < 256; ++a) {
      const auto e = static_cast<GF256::Elem>(a);
      Value dst = make_test_value(len + 2, rng.next_u64());
      Value expect = dst;
      for (std::size_t j = 0; j < len; ++j) {
        expect[j + 1] ^= GF256::mul(e, src[j + 1]);
      }
      GF256::mul_add_row(e, src.data() + 1, dst.data() + 1, len);
      ASSERT_EQ(dst, expect) << "a=" << a << " len=" << len;
    }
  }
}

// --- Matrix ------------------------------------------------------------------

TEST(Matrix, IdentityMultiplication) {
  Rng rng(4);
  Matrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m.at(r, c) = static_cast<GF256::Elem>(rng.uniform(0, 255));
    }
  }
  EXPECT_EQ(m.mul(Matrix::identity(4)), m);
  EXPECT_EQ(Matrix::identity(4).mul(m), m);
}

TEST(Matrix, InverseRoundTrip) {
  Rng rng(5);
  int inverted = 0;
  for (int trial = 0; trial < 50; ++trial) {
    Matrix m(5, 5);
    for (std::size_t r = 0; r < 5; ++r) {
      for (std::size_t c = 0; c < 5; ++c) {
        m.at(r, c) = static_cast<GF256::Elem>(rng.uniform(0, 255));
      }
    }
    auto inv = m.inverse();
    if (!inv) continue;  // singular random matrix: rare but possible
    ++inverted;
    EXPECT_EQ(m.mul(*inv), Matrix::identity(5));
    EXPECT_EQ(inv->mul(m), Matrix::identity(5));
  }
  EXPECT_GT(inverted, 40);  // almost all random matrices are invertible
}

TEST(Matrix, SingularMatrixReportsNullopt) {
  Matrix m(3, 3);  // all zeros
  EXPECT_FALSE(m.inverse().has_value());
  // Duplicate rows are singular too.
  Matrix d(2, 2);
  d.at(0, 0) = 3;
  d.at(0, 1) = 5;
  d.at(1, 0) = 3;
  d.at(1, 1) = 5;
  EXPECT_FALSE(d.inverse().has_value());
}

TEST(Matrix, SelectRowsPicksAndOrders) {
  Matrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      m.at(r, c) = static_cast<GF256::Elem>(10 * r + c);
    }
  }
  const Matrix s = m.select_rows({2, 0});
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.at(0, 0), 20);
  EXPECT_EQ(s.at(1, 1), 1);
}

TEST(Matrix, SystematicMdsTopIsIdentity) {
  const Matrix g = systematic_mds_matrix(7, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(g.at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(Matrix, SystematicMdsEveryKSubsetInvertible) {
  // The MDS property itself: every k-row submatrix must be invertible.
  const std::size_t n = 8, k = 4;
  const Matrix g = systematic_mds_matrix(n, k);
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<bool> pick(n, false);
  std::fill(pick.begin(), pick.begin() + static_cast<std::ptrdiff_t>(k), true);
  std::sort(pick.begin(), pick.end());
  // Enumerate all C(8,4) = 70 subsets via permutations of the mask.
  std::vector<std::size_t> rows;
  do {
    rows.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (pick[i]) rows.push_back(i);
    }
    EXPECT_TRUE(g.select_rows(rows).inverse().has_value());
  } while (std::next_permutation(pick.begin(), pick.end()));
}

// --- Reed-Solomon codec (parameterized over [n, k]) --------------------------

struct NK {
  std::size_t n, k;
};

class RsCodecTest : public ::testing::TestWithParam<NK> {};

TEST_P(RsCodecTest, RoundTripFromAnyKSubset) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const Value v = make_test_value(257, 1000 * n + k);  // not divisible by k
  const auto frags = codec.encode(v);
  ASSERT_EQ(frags.size(), n);

  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // Random k-subset of fragments, shuffled order.
    std::vector<Fragment> subset;
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < k; ++i) {
      const auto j = rng.uniform(i, n - 1);
      std::swap(idx[i], idx[j]);
      subset.push_back(frags[idx[i]]);
    }
    auto decoded = codec.decode(subset);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
}

TEST_P(RsCodecTest, FragmentSizeIsValueOverK) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const std::size_t size = 6000;
  const Value v = make_test_value(size, 9);
  const auto frags = codec.encode(v);
  // Fragment = 8-byte length header + ceil(size/k) stripe bytes.
  const std::size_t expect = 8 + (size + k - 1) / k;
  for (const auto& f : frags) EXPECT_EQ(f.size(), expect);
}

TEST_P(RsCodecTest, TooFewFragmentsNotDecodable) {
  const auto [n, k] = GetParam();
  if (k == 1) GTEST_SKIP() << "k=1 decodes from any single fragment";
  ReedSolomonCodec codec(n, k);
  const auto frags = codec.encode(make_test_value(100, 3));
  std::vector<Fragment> subset(frags.begin(),
                               frags.begin() + static_cast<std::ptrdiff_t>(k - 1));
  EXPECT_FALSE(codec.is_decodable(subset));
  EXPECT_FALSE(codec.decode(subset).has_value());
}

TEST_P(RsCodecTest, DuplicateIndicesDontCount) {
  const auto [n, k] = GetParam();
  if (k == 1) GTEST_SKIP();
  ReedSolomonCodec codec(n, k);
  const auto frags = codec.encode(make_test_value(100, 4));
  std::vector<Fragment> dup(k, frags[0]);  // k copies of one fragment
  EXPECT_FALSE(codec.is_decodable(dup));
}

TEST_P(RsCodecTest, EncodeOneMatchesFullEncode) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const Value v = make_test_value(321, 5);
  const auto frags = codec.encode(v);
  for (std::size_t i = 0; i < n; ++i) {
    const auto one = codec.encode_one(v, static_cast<std::uint32_t>(i));
    EXPECT_EQ(one.index, frags[i].index);
    EXPECT_EQ(*one.data, *frags[i].data);
  }
}

TEST_P(RsCodecTest, EmptyValueRoundTrips) {
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  const auto frags = codec.encode(Value{});
  std::vector<Fragment> subset(frags.begin(),
                               frags.begin() + static_cast<std::ptrdiff_t>(k));
  auto decoded = codec.decode(subset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST_P(RsCodecTest, EveryLengthNearAStripeBoundaryRoundTrips) {
  // A value may end mid-stripe or before the last stripes begin (len 5 at
  // k 4 leaves two stripes of pure padding); each such shape must code.
  const auto [n, k] = GetParam();
  ReedSolomonCodec codec(n, k);
  std::vector<std::size_t> lengths(3 * k + 2);
  std::iota(lengths.begin(), lengths.end(), 0);
  lengths.insert(lengths.end(), {32767, 32768, 32769});
  Rng rng(n * 100 + k);
  for (const std::size_t len : lengths) {
    const Value v = make_test_value(len, len);
    const auto frags = codec.encode(v);
    ASSERT_EQ(frags.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(frags[i].size(), 8 + (len + k - 1) / k) << "len=" << len;
      ASSERT_EQ(*codec.encode_one(v, static_cast<std::uint32_t>(i)).data,
                *frags[i].data)
          << "len=" << len << " i=" << i;
    }
    const std::vector<Fragment> systematic(
        frags.begin(), frags.begin() + static_cast<std::ptrdiff_t>(k));
    ASSERT_EQ(codec.decode(systematic), v) << "len=" << len;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<Fragment> shuffled = frags;
      for (std::size_t i = 0; i < k; ++i) {
        std::swap(shuffled[i], shuffled[rng.uniform(i, n - 1)]);
      }
      shuffled.resize(k);
      ASSERT_EQ(codec.decode(shuffled), v) << "len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, RsCodecTest,
    ::testing::Values(NK{3, 2}, NK{5, 3}, NK{5, 4}, NK{6, 4}, NK{9, 7},
                      NK{11, 8}, NK{4, 1}, NK{15, 10}, NK{2, 2}, NK{31, 21},
                      NK{64, 48}),
    [](const ::testing::TestParamInfo<NK>& info) {
      return "n" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k);
    });

TEST(RsCodec, SystematicPrefixHoldsRawData) {
  // First k fragments are the raw stripes (systematic code).
  const std::size_t n = 6, k = 3;
  ReedSolomonCodec codec(n, k);
  Value v(300);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(i);
  }
  const auto frags = codec.encode(v);
  const std::size_t stripe = 100;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < stripe; ++j) {
      EXPECT_EQ((*frags[i].data)[8 + j], v[i * stripe + j]);
    }
  }
}

TEST(RsCodec, InconsistentFragmentSetRejected) {
  ReedSolomonCodec codec(5, 2);
  const auto a = codec.encode(make_test_value(100, 1));
  const auto b = codec.encode(make_test_value(200, 2));  // different length
  EXPECT_FALSE(codec.decode({a[0], b[1]}).has_value());
}

/// The original per-byte encoder: stripes copied out of the value, every
/// byte multiplied with GF256::mul. The kernel must agree with it byte for
/// byte, or fragments on the wire, in the WAL and in the pinned sim byte
/// counts would change.
std::vector<Value> reference_encode(const Value& v, std::size_t n,
                                    std::size_t k) {
  const Matrix g = systematic_mds_matrix(n, k);
  const std::size_t s = (v.size() + k - 1) / k;
  std::vector<Value> stripes(k, Value(s, 0));
  for (std::size_t i = 0; i < v.size(); ++i) stripes[i / s][i % s] = v[i];
  std::vector<Value> out(n, Value(8 + s, 0));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[r][b] = static_cast<std::uint8_t>(std::uint64_t{v.size()} >> (8 * b));
    }
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t j = 0; j < s; ++j) {
        out[r][8 + j] ^= GF256::mul(g.at(r, c), stripes[c][j]);
      }
    }
  }
  return out;
}

TEST(RsCodec, EncodingMatchesReferenceEncoder) {
  for (const NK nk : {NK{3, 2}, NK{5, 3}, NK{6, 4}, NK{15, 10}, NK{64, 48}}) {
    ReedSolomonCodec codec(nk.n, nk.k);
    for (const std::size_t len : {0, 1, 5, 257, 6000, 32768}) {
      const Value v = make_test_value(len, nk.n * len + nk.k);
      const auto expect = reference_encode(v, nk.n, nk.k);
      const auto frags = codec.encode(v);
      for (std::size_t i = 0; i < nk.n; ++i) {
        ASSERT_EQ(*frags[i].data, expect[i])
            << "n=" << nk.n << " k=" << nk.k << " len=" << len << " i=" << i;
      }
    }
  }
}

/// A copy of `f` whose 8-byte length header says `len`.
Fragment with_length_header(const Fragment& f, std::uint64_t len) {
  Value bytes = *f.data;
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[b] = static_cast<std::uint8_t>(len >> (8 * b));
  }
  return Fragment{f.index, std::make_shared<const Value>(std::move(bytes))};
}

TEST(RsCodec, LengthHeaderDisagreeingWithPayloadRejected) {
  // Fragments arrive over TCP and from the WAL: a header that does not
  // match ceil(len / k) payload bytes must be refused, not trusted.
  ReedSolomonCodec codec(5, 3);
  const auto frags = codec.encode(make_test_value(876, 1));  // 300-byte frags
  const auto empty = codec.encode(Value{});                  // 8-byte frags
  for (const auto& rows : {std::vector<std::size_t>{0, 1, 2},
                           std::vector<std::size_t>{2, 3, 4}}) {
    const auto forged = [&](const std::vector<Fragment>& src,
                            std::uint64_t len) {
      std::vector<Fragment> out;
      for (const std::size_t r : rows) {
        out.push_back(with_length_header(src[r], len));
      }
      return codec.decode(out);
    };
    EXPECT_FALSE(forged(frags, 10000).has_value());  // header too large
    EXPECT_FALSE(forged(frags, 873).has_value());    // ceil(873/3) = 291
    EXPECT_FALSE(forged(frags, 3).has_value());      // header too small
    EXPECT_FALSE(forged(frags, ~std::uint64_t{0}).has_value());
    EXPECT_FALSE(forged(empty, 5).has_value());  // empty payload, len 5
    EXPECT_TRUE(forged(frags, 876).has_value());  // the honest header
  }
}

TEST(RsCodec, PrefersSystematicFragments) {
  // Given all n fragments, decode copies the systematic ones: corrupting
  // every parity payload must not change the value.
  ReedSolomonCodec codec(6, 3);
  const Value v = make_test_value(1000, 12);
  auto frags = codec.encode(v);
  std::reverse(frags.begin(), frags.end());  // parity fragments first
  for (auto& f : frags) {
    if (f.index < 3) continue;
    Value bytes = *f.data;
    bytes.back() ^= 0xFF;
    f.data = std::make_shared<const Value>(std::move(bytes));
  }
  EXPECT_EQ(codec.decode(frags), v);
}

// --- Replication codec --------------------------------------------------------

TEST(ReplicationCodec, EveryFragmentIsFullValue) {
  ReplicationCodec codec(4);
  const Value v = make_test_value(128, 6);
  const auto frags = codec.encode(v);
  ASSERT_EQ(frags.size(), 4u);
  for (const auto& f : frags) EXPECT_EQ(*f.data, v);
  EXPECT_EQ(*codec.decode({frags[2]}), v);
}

TEST(ReplicationCodec, DecodableFromOne) {
  ReplicationCodec codec(3);
  const auto frags = codec.encode(make_test_value(10, 7));
  EXPECT_TRUE(codec.is_decodable({frags[0]}));
  EXPECT_FALSE(codec.is_decodable({}));
}

TEST(MakeCodec, SelectsByK) {
  EXPECT_NE(dynamic_cast<const ReplicationCodec*>(make_codec(5, 1).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<const ReedSolomonCodec*>(make_codec(5, 3).get()),
            nullptr);
}

TEST(MakeCodec, StorageRatioMatchesTheory) {
  // The headline storage claim: RS [n,k] stores n/k of the value size
  // (modulo the 8-byte header), replication stores n.
  const std::size_t size = 100000;
  const Value v = make_test_value(size, 8);
  auto rs = make_codec(6, 4);
  std::size_t rs_total = 0;
  for (const auto& f : rs->encode(v)) rs_total += f.size();
  EXPECT_NEAR(static_cast<double>(rs_total), 6.0 / 4.0 * size, 100.0);

  auto rep = make_codec(3, 1);
  std::size_t rep_total = 0;
  for (const auto& f : rep->encode(v)) rep_total += f.size();
  EXPECT_EQ(rep_total, 3 * size);
}

}  // namespace
}  // namespace ares::codec
