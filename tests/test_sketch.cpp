// Sketch primitives behind the rollup store: HyperLogLog distinct counts
// and the DDSketch-style quantile sketch. The tests hold the *documented*
// contracts — |est - true| <= 3*1.04/sqrt(m) * true for HLL, relative
// value error <= alpha for quantiles — plus exact merge semantics and
// serialization roundtrips, because query answers are only as trustworthy
// as these bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/bytes.hpp"
#include "core/sketch.hpp"

namespace ew = edgewatch;
using ew::core::ByteReader;
using ew::core::ByteWriter;
using ew::core::HyperLogLog;
using ew::core::QuantileSketch;

namespace {

/// Exact nearest-rank quantile: the k-th smallest, k = max(1, ceil(q*n)).
double exact_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto k = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(q * n)));
  return values[k - 1];
}

std::vector<std::byte> serialize(const auto& sketch) {
  ByteWriter w;
  sketch.serialize(w);
  return std::move(w).take();
}

}  // namespace

// ------------------------------------------------------------ HyperLogLog

TEST(HyperLogLog, EmptyEstimatesZero) {
  HyperLogLog hll;
  EXPECT_TRUE(hll.empty());
  EXPECT_DOUBLE_EQ(hll.estimate(), 0.0);
  EXPECT_EQ(hll.register_count(), 4096u);
}

TEST(HyperLogLog, SmallCardinalitiesAreNearExact) {
  // Linear-counting regime: tiny sets (a service's distinct subscribers on
  // a quiet day) must come back essentially exact.
  for (const std::uint64_t n : {1u, 10u, 100u, 1000u}) {
    HyperLogLog hll;
    for (std::uint64_t i = 0; i < n; ++i) hll.add(i * 2654435761u + 12345);
    EXPECT_NEAR(hll.estimate(), static_cast<double>(n), std::max(1.0, 0.02 * n)) << "n=" << n;
  }
}

TEST(HyperLogLog, LargeCardinalityWithinDocumentedBound) {
  HyperLogLog hll;
  constexpr std::uint64_t kN = 200'000;
  for (std::uint64_t i = 0; i < kN; ++i) hll.add(i);
  const double err = std::abs(hll.estimate() - kN) / kN;
  EXPECT_LE(err, hll.error_bound());  // 3 * 1.04/sqrt(4096) ~ 4.9%
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll;
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t i = 0; i < 500; ++i) hll.add(i);
  }
  EXPECT_NEAR(hll.estimate(), 500.0, 0.02 * 500);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  HyperLogLog a, b, whole;
  for (std::uint64_t i = 0; i < 30'000; ++i) {
    (i % 2 == 0 ? a : b).add(i);
    whole.add(i);
  }
  for (std::uint64_t i = 0; i < 5'000; ++i) {  // overlap: both halves saw these
    a.add(i);
    b.add(i);
  }
  ASSERT_TRUE(a.merge(b));
  EXPECT_EQ(a, whole);  // register-wise max IS the union sketch, bit for bit
}

TEST(HyperLogLog, MergeRejectsPrecisionMismatch) {
  HyperLogLog a{12}, b{10};
  b.add(1);
  const HyperLogLog before = a;
  EXPECT_FALSE(a.merge(b));
  EXPECT_EQ(a, before);
}

TEST(HyperLogLog, DeterministicAcrossInstances) {
  HyperLogLog a, b;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    a.add(i);
    b.add(i);
  }
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.estimate(), b.estimate());
}

TEST(HyperLogLog, SerializeRoundtrip) {
  HyperLogLog hll{12};
  for (std::uint64_t i = 0; i < 10'000; ++i) hll.add(i);
  const auto bytes = serialize(hll);
  ByteReader r{bytes};
  const auto back = HyperLogLog::deserialize(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, hll);
  EXPECT_EQ(r.remaining(), 0u);

  // An empty sketch costs a few bytes, not 4 KiB of registers.
  EXPECT_LT(serialize(HyperLogLog{}).size(), 8u);
}

TEST(HyperLogLog, DeserializeRejectsDamage) {
  HyperLogLog hll;
  for (std::uint64_t i = 0; i < 100; ++i) hll.add(i);
  const auto bytes = serialize(hll);

  {  // truncated
    ByteReader r{std::span{bytes}.first(bytes.size() / 2)};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
  {  // bad precision byte
    auto bad = bytes;
    bad[0] = std::byte{99};
    ByteReader r{bad};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
  {  // bad precision byte on an empty sketch: checked before the pair count
    auto bad = serialize(HyperLogLog{});
    bad[0] = std::byte{99};
    ByteReader r{bad};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
  {  // more pairs than registers
    ByteWriter w;
    w.u8(4);
    w.u8(17);  // 16 registers at precision 4
    ByteReader r{w.view()};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
  {  // a pair naming a zero register value
    ByteWriter w;
    w.u8(4);
    w.u8(1);  // one pair
    w.u8(0);  // zero_run
    w.u8(0);  // value 0 is never written
    ByteReader r{w.view()};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
  {  // zero runs that walk past the last register
    ByteWriter w;
    w.u8(4);
    w.u8(1);
    w.u8(16);
    w.u8(1);
    ByteReader r{w.view()};
    EXPECT_FALSE(HyperLogLog::deserialize(r).has_value());
  }
}

// ---------------------------------------- HyperLogLog: lazy registers
//
// A sketch allocates its registers on first need; before that it is the
// all-zero sketch and must behave exactly like one.

TEST(HyperLogLog, FreshSketchIsTheAllZeroSketch) {
  const HyperLogLog fresh;
  EXPECT_TRUE(fresh.empty());
  EXPECT_DOUBLE_EQ(fresh.estimate(), 0.0);
  EXPECT_EQ(fresh.register_count(), 4096u);
  EXPECT_DOUBLE_EQ(fresh.standard_error(), 1.04 / 64.0);
  // Wire bytes are unchanged: precision, then a zero pair count.
  EXPECT_EQ(serialize(fresh), (std::vector<std::byte>{std::byte{12}, std::byte{0}}));
  EXPECT_EQ(serialize(HyperLogLog{4}), (std::vector<std::byte>{std::byte{4}, std::byte{0}}));
}

TEST(HyperLogLog, MergeWithEmptySketch) {
  HyperLogLog full;
  for (std::uint64_t i = 0; i < 2'000; ++i) full.add(i);
  const HyperLogLog before = full;
  const auto before_bytes = serialize(full);

  // Empty into non-empty: unchanged.
  ASSERT_TRUE(full.merge(HyperLogLog{}));
  EXPECT_EQ(full, before);
  EXPECT_EQ(serialize(full), before_bytes);

  // Non-empty into empty: the source, bit for bit.
  HyperLogLog target;
  ASSERT_TRUE(target.merge(full));
  EXPECT_EQ(target, full);
  EXPECT_EQ(serialize(target), before_bytes);
  EXPECT_DOUBLE_EQ(target.estimate(), full.estimate());
  EXPECT_FALSE(target.empty());

  // The copy owns its registers: adding to it leaves the source alone.
  for (std::uint64_t i = 2'000; i < 4'000; ++i) target.add(i);
  EXPECT_EQ(full, before);

  // Empty into empty stays empty.
  HyperLogLog nothing;
  ASSERT_TRUE(nothing.merge(HyperLogLog{}));
  EXPECT_TRUE(nothing.empty());
  EXPECT_EQ(nothing, HyperLogLog{});
}

TEST(HyperLogLog, MergeRejectsPrecisionMismatchWhenEitherSideIsEmpty) {
  HyperLogLog filled12{12}, filled10{10};
  filled12.add(1);
  filled10.add(1);
  {  // empty target
    HyperLogLog a{12};
    EXPECT_FALSE(a.merge(filled10));
    EXPECT_TRUE(a.empty());
  }
  {  // empty source
    HyperLogLog a = filled12;
    EXPECT_FALSE(a.merge(HyperLogLog{10}));
    EXPECT_EQ(a, filled12);
  }
  {  // both empty
    HyperLogLog a{12};
    EXPECT_FALSE(a.merge(HyperLogLog{10}));
    EXPECT_EQ(a.precision(), 12);
  }
  // Equality also needs equal precision, even between two empty sketches.
  EXPECT_FALSE(HyperLogLog{12} == HyperLogLog{10});
}

TEST(HyperLogLog, EmptyRoundtripComparesEqual) {
  for (const std::uint8_t p : {HyperLogLog::kMinPrecision, HyperLogLog::kDefaultPrecision,
                               HyperLogLog::kMaxPrecision}) {
    const HyperLogLog empty{p};
    const auto bytes = serialize(empty);
    ByteReader r{bytes};
    const auto back = HyperLogLog::deserialize(r);
    ASSERT_TRUE(back.has_value()) << int{p};
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(*back, empty);
    EXPECT_TRUE(back->empty());
    EXPECT_EQ(back->precision(), p);
    EXPECT_EQ(back->register_count(), std::size_t{1} << p);
    EXPECT_EQ(serialize(*back), bytes);
  }
}

// --------------------------------------------------------- QuantileSketch

TEST(QuantileSketch, EmptyAndZeroHandling) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  s.add(0.0);
  s.add(-5.0);  // clamped to the zero bucket
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(QuantileSketch, QuantilesWithinRelativeAccuracy) {
  // Log-normal-ish RTT samples spanning 3 decades — the shape Fig. 10 sees.
  std::mt19937 rng(42);
  std::lognormal_distribution<double> dist(3.0, 1.2);
  QuantileSketch sketch;
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    const double v = dist(rng);
    values.push_back(v);
    sketch.add(v);
  }
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double est = sketch.quantile(q);
    EXPECT_LE(std::abs(est - exact), sketch.relative_accuracy() * exact) << "q=" << q;
  }
}

TEST(QuantileSketch, ExactMoments) {
  QuantileSketch s;
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    s.add(i);
    sum += i;
  }
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.sum(), sum);       // sums are exact, not sketched
  EXPECT_DOUBLE_EQ(s.mean(), sum / 1000);
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
}

TEST(QuantileSketch, MergeEqualsConcatenatedStream) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> dist(0.1, 5000.0);
  QuantileSketch a, b, whole;
  for (int i = 0; i < 20'000; ++i) {
    const double v = dist(rng);
    (i % 3 == 0 ? a : b).add(v);
    whole.add(v);
  }
  ASSERT_TRUE(a.merge(b));
  // Bucket counts add exactly, so every quantile answer is bit-identical to
  // the concatenated stream's; the running sum is a double and only matches
  // to summation order.
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  EXPECT_NEAR(a.sum(), whole.sum(), 1e-9 * whole.sum());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeRejectsAccuracyMismatch) {
  QuantileSketch a{0.01}, b{0.05};
  b.add(1.0);
  EXPECT_FALSE(a.merge(b));
  EXPECT_TRUE(a.empty());
}

TEST(QuantileSketch, WeightedAddMatchesRepeatedAdd) {
  QuantileSketch weighted, repeated;
  weighted.add(42.0, 1000);
  for (int i = 0; i < 1000; ++i) repeated.add(42.0);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_DOUBLE_EQ(weighted.quantile(0.5), repeated.quantile(0.5));
}

TEST(QuantileSketch, CdfIsMonotoneAndConsistent) {
  QuantileSketch s;
  for (int i = 1; i <= 10'000; ++i) s.add(i);
  double prev = 0;
  for (double x = 1; x <= 10'000; x *= 2) {
    const double c = s.cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_NEAR(c, x / 10'000, 0.02);  // uniform data: CDF ~ x/n
    prev = c;
  }
  EXPECT_DOUBLE_EQ(s.cdf(20'000), 1.0);
}

TEST(QuantileSketch, SerializeRoundtrip) {
  std::mt19937 rng(3);
  std::lognormal_distribution<double> dist(1.0, 2.0);
  QuantileSketch s{0.02};
  s.add(0.0, 5);  // exercise the zero bucket
  for (int i = 0; i < 5'000; ++i) s.add(dist(rng));
  const auto bytes = serialize(s);
  ByteReader r{bytes};
  const auto back = QuantileSketch::deserialize(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(QuantileSketch, DeserializeRejectsDamage) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const auto bytes = serialize(s);
  {  // truncated mid-bucket-list
    ByteReader r{std::span{bytes}.first(bytes.size() - 3)};
    EXPECT_FALSE(QuantileSketch::deserialize(r).has_value());
  }
  {  // absurd alpha
    auto bad = bytes;
    bad[7] = std::byte{0xff};  // high byte of the little-endian alpha double
    ByteReader r{bad};
    EXPECT_FALSE(QuantileSketch::deserialize(r).has_value());
  }
}
