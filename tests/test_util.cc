/**
 * @file
 * Unit tests for src/util: stats, units, quantization, tables, RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/fast_rng.hh"
#include "util/quantize.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace {

using namespace lt;

TEST(RunningStats, MeanAndVariance)
{
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(x);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 2.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(7);
    RunningStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.gaussian(2.0, 3.0);
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSet, Percentiles)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Units, DbConversionsRoundTrip)
{
    EXPECT_NEAR(units::dbToLinear(3.0), 1.9953, 1e-3);
    EXPECT_NEAR(units::linearToDb(2.0), 3.0103, 1e-3);
    EXPECT_NEAR(units::dbToLinear(units::linearToDb(7.5)), 7.5, 1e-9);
    // -25 dBm photodetector sensitivity = 3.16 uW.
    EXPECT_NEAR(units::dbmToWatt(-25.0), 3.1623e-6, 1e-9);
    EXPECT_NEAR(units::wattToDbm(1e-3), 0.0, 1e-9);
}

TEST(Units, Formatting)
{
    EXPECT_EQ(units::fmtTime(47e-12, 1), "47.0 ps");
    EXPECT_EQ(units::fmtPower(14.75, 2), "14.75 W");
    EXPECT_EQ(units::fmtPower(0.05, 1), "50.0 mW");
    EXPECT_EQ(units::fmtEnergy(1.94e-5, 1), "19.4 uJ");
    EXPECT_EQ(units::fmtAreaMm2(60.3e-6, 1), "60.3 mm^2");
    EXPECT_EQ(units::fmtSci(0.0194, 2), "1.94e-02");
}

TEST(Units, ConstructionHelpers)
{
    EXPECT_DOUBLE_EQ(units::mW(50), 0.05);
    EXPECT_DOUBLE_EQ(units::GHz(5), 5e9);
    EXPECT_DOUBLE_EQ(units::um2(100), 1e-10);
    EXPECT_DOUBLE_EQ(units::mm2(60.3) * 1e6, 60.3);
    EXPECT_DOUBLE_EQ(units::ps(200), 2e-10);
}

TEST(Quantize, UnitGridEndpoints)
{
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(1.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(-1.0, 4), -1.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(0.0, 4), 0.0);
    // Clipping outside full scale.
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(2.5, 4), 1.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetricUnit(-2.5, 4), -1.0);
}

TEST(Quantize, StepSizeMatchesBits)
{
    // 4-bit symmetric grid: qmax = 7 -> step 1/7.
    double q1 = quantizeSymmetricUnit(0.5, 4);
    EXPECT_NEAR(q1 * 7.0, std::round(0.5 * 7.0), 1e-12);
    // 8-bit: qmax = 127.
    double q2 = quantizeSymmetricUnit(0.5, 8);
    EXPECT_NEAR(q2 * 127.0, std::round(0.5 * 127.0), 1e-12);
}

TEST(Quantize, ErrorBoundedByHalfStep)
{
    Rng rng(3);
    for (int bits : {2, 4, 6, 8}) {
        double step = 1.0 / quantLevels(bits);
        for (int i = 0; i < 200; ++i) {
            double x = rng.uniform(-1.0, 1.0);
            EXPECT_LE(std::abs(quantizeSymmetricUnit(x, bits) - x),
                      step / 2.0 + 1e-12);
        }
    }
}

TEST(Quantize, ScaledQuantization)
{
    double v = quantizeSymmetric(3.0, 4.0, 8);
    EXPECT_NEAR(v, 3.0, 4.0 / 127.0);
    EXPECT_DOUBLE_EQ(quantizeSymmetric(1.0, 0.0, 8), 0.0);
}

TEST(Rng, Determinism)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.gaussian(1.5, 0.5));
    EXPECT_NEAR(s.mean(), 1.5, 5e-3);
    EXPECT_NEAR(s.stddev(), 0.5, 5e-3);
}

TEST(Rng, ZeroStddevIsDeterministic)
{
    Rng rng(1);
    EXPECT_DOUBLE_EQ(rng.gaussian(4.2, 0.0), 4.2);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    // Child stream differs from parent continuation.
    EXPECT_NE(child.uniform(), a.uniform());
}

TEST(Rng, FillGaussianMatchesPerCallSequence)
{
    // fillGaussian is a drop-in replacement for a loop of gaussian()
    // calls: the value sequence AND the engine-state consumption must
    // match exactly (fresh-distribution semantics per element — no
    // cached second polar value leaks between elements). The DPTC
    // packed kernel relies on this to batch phase draws.
    Rng bulk(0xF111), percall(0xF111);
    std::vector<double> out(257);
    bulk.fillGaussian(out, 0.25, 1.5);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], percall.gaussian(0.25, 1.5)) << i;

    // Non-positive std writes the mean and consumes no engine state…
    bulk.fillGaussian(out, 7.0, 0.0);
    for (double v : out)
        EXPECT_EQ(v, 7.0);
    // …so the two generators stay bit-synchronized afterwards.
    EXPECT_EQ(bulk.gaussian(0.0, 1.0), percall.gaussian(0.0, 1.0));
}

TEST(Rng, RawStreamMatchesStdMt19937_64)
{
    // The blocked engine must be u64-for-u64 identical to
    // std::mt19937_64 — this is the foundation the whole bit-exact
    // contract stands on, checked across several refill boundaries.
    for (uint64_t seed : {0ULL, 1ULL, 42ULL, 0x4c54'2024ULL}) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(rng.nextU64(), ref()) << "seed " << seed
                                            << " draw " << i;
    }
}

TEST(Rng, DistributionsMatchStdSequences)
{
    // Every distribution method replays the exact value sequence of
    // the std:: distribution it replaces, drawn over one shared
    // engine — interleaved, so consumption counts must agree too.
    Rng rng(0xD15C0);
    std::mt19937_64 ref(0xD15C0);
    for (int i = 0; i < 5000; ++i) {
        {
            // gaussian(): a FRESH std::normal_distribution per draw
            // (the historical per-call pattern; no saved second value).
            std::normal_distribution<double> d(0.5, 2.0);
            ASSERT_EQ(rng.gaussian(0.5, 2.0), d(ref)) << i;
        }
        {
            std::uniform_real_distribution<double> d(-1.0, 3.0);
            ASSERT_EQ(rng.uniform(-1.0, 3.0), d(ref)) << i;
        }
        {
            std::uniform_int_distribution<int64_t> d(-7, 900);
            ASSERT_EQ(rng.uniformInt(-7, 900), d(ref)) << i;
        }
        {
            std::bernoulli_distribution d(0.3);
            ASSERT_EQ(rng.bernoulli(0.3), d(ref)) << i;
        }
    }
}

TEST(Rng, FillGaussianScaledMatchesPerCall)
{
    // Per-element stddevs with zero-std holes interleaved: values AND
    // consumption must match the scalar loop, including the rule that
    // a non-positive std writes the mean and consumes nothing.
    Rng bulk(0xCAFE), percall(0xCAFE);
    std::vector<double> stds(700), out(700);
    Rng stdgen(99);
    for (size_t i = 0; i < stds.size(); ++i) {
        if (i % 3 == 2 || i % 17 == 0)
            stds[i] = 0.0; // holes
        else
            stds[i] = stdgen.uniform(0.01, 2.0);
    }
    bulk.fillGaussianScaled(out, stds, 0.125);
    for (size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], percall.gaussian(0.125, stds[i])) << i;
    // Generators stay bit-synchronized afterwards.
    EXPECT_EQ(bulk.gaussian(0.0, 1.0), percall.gaussian(0.0, 1.0));
}

TEST(Rng, VectorHelpersDelegateToBulkFills)
{
    Rng a(31), b(31);
    std::vector<double> u = a.uniformVector(123, -2.0, 2.0);
    std::vector<double> fu(123);
    b.fillUniform(fu, -2.0, 2.0);
    EXPECT_EQ(u, fu);

    std::vector<double> g = a.gaussianVector(123, 0.5, 1.5);
    std::vector<double> fg(123);
    b.fillGaussian(fg, 0.5, 1.5);
    EXPECT_EQ(g, fg);
}

TEST(Rng, ShuffleViaUrbgMatchesStdEngine)
{
    // std::shuffle over the urbg() facade permutes exactly as handing
    // it the underlying std::mt19937_64 would (the dataset builders'
    // class-mixing shuffles are pinned by this).
    std::vector<int> mine(257), ref(257);
    std::iota(mine.begin(), mine.end(), 0);
    std::iota(ref.begin(), ref.end(), 0);
    Rng rng(0x5AFE);
    std::mt19937_64 eng(0x5AFE);
    std::shuffle(mine.begin(), mine.end(), rng.urbg());
    std::shuffle(ref.begin(), ref.end(), eng);
    EXPECT_EQ(mine, ref);
}

TEST(Rng, DrawCountCountsAcceptedGaussians)
{
    Rng rng(8);
    EXPECT_EQ(rng.drawCount(), 0u);
    rng.gaussian(0.0, 1.0);
    EXPECT_EQ(rng.drawCount(), 1u);
    rng.gaussian(0.0, 0.0); // zero-std: no draw
    EXPECT_EQ(rng.drawCount(), 1u);
    std::vector<double> out(100);
    rng.fillGaussian(out, 0.0, 1.0);
    EXPECT_EQ(rng.drawCount(), 101u);
    std::vector<double> stds(50, 1.0), scaled(50);
    for (size_t i = 0; i < stds.size(); i += 2)
        stds[i] = 0.0;
    rng.fillGaussianScaled(scaled, stds);
    EXPECT_EQ(rng.drawCount(), 126u);
}

namespace {

/**
 * Every kernel variant is pinned separately: the test runs the variant
 * named by the parameter when this CPU supports it and skips it by
 * name otherwise.
 */
class RngKernelVariant : public ::testing::TestWithParam<const char *>
{
  protected:
    const detail::RngKernels *
    kernels() const
    {
        for (const detail::RngKernels &k : detail::rngKernelVariants())
            if (std::string_view(k.name) == GetParam())
                return &k;
        return nullptr;
    }
};

/** A URBG that replays fixed words, mt19937_64's range. */
struct ReplayWords
{
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }
    const std::vector<uint64_t> *words;
    size_t pos = 0;
    result_type operator()() { return (*words)[pos++]; }
};

} // namespace

TEST_P(RngKernelVariant, BulkFillsMatchStdNormalDistribution)
{
    // Draw for draw against a fresh std::normal_distribution per
    // element over std::mt19937_64: random batch sizes 1-700 cross
    // block refills and the 256-element chunk, scaled fills carry
    // zero-std holes (which consume nothing), scalar draws interleave,
    // and single raw words shift the block position to odd so candidate
    // pairs straddle refills.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    Rng rng(0x5EED, *k);
    std::mt19937_64 ref(0x5EED);
    Rng plan(77); // batch shapes only
    std::vector<double> out, stds;
    uint64_t draws = 0;
    while (draws < 250000) {
        const size_t n = static_cast<size_t>(plan.uniformInt(1, 700));
        out.assign(n, 0.0);
        const int kind = static_cast<int>(plan.uniformInt(0, 3));
        if (kind == 0) {
            const double mean = plan.uniform(-1.0, 1.0);
            const double sd = plan.uniform(0.01, 3.0);
            rng.fillGaussian(out, mean, sd);
            for (size_t i = 0; i < n; ++i) {
                std::normal_distribution<double> d(mean, sd);
                ASSERT_EQ(out[i], d(ref)) << "fill, element " << i;
            }
            draws += n;
        } else if (kind == 1) {
            stds.assign(n, 0.0);
            for (double &s : stds)
                s = plan.bernoulli(0.25) ? 0.0 : plan.uniform(0.01, 2.0);
            rng.fillGaussianScaled(out, stds, 0.125);
            for (size_t i = 0; i < n; ++i) {
                if (stds[i] > 0.0) {
                    std::normal_distribution<double> d(0.125, stds[i]);
                    ASSERT_EQ(out[i], d(ref)) << "scaled, element " << i;
                    ++draws;
                } else {
                    ASSERT_EQ(out[i], 0.125) << "scaled hole " << i;
                }
            }
        } else if (kind == 2) {
            std::normal_distribution<double> d(0.5, 2.0);
            ASSERT_EQ(rng.gaussian(0.5, 2.0), d(ref));
            ++draws;
        } else {
            ASSERT_EQ(rng.nextU64(), ref());
        }
    }
    EXPECT_EQ(rng.drawCount(), draws);
}

TEST_P(RngKernelVariant, CraftedWordsHitClampAndZeroRadius)
{
    // Words the mt19937_64 stream rarely produces, fed to the kernels
    // directly and replayed through std::normal_distribution:
    //  - 2^63 twice: x = y = 0, so r^2 == 0 and the pair is rejected;
    //  - a word >= 2^64 - 2^10 rounds to 2^64, so the canonical value
    //    is clamped to 1 - 2^-53 and y = 1 - 2^-52 (unclamped, y = 1
    //    would give r^2 == 1 and a zero draw);
    //  - 2^64 - 2^10 - 1 rounds down to 2^64 - 2^11, the same value;
    //  - word 0 gives x = -1, so r^2 == 1 exactly, which is accepted.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    const uint64_t half = 1ULL << 63;
    const uint64_t round_up = ~0ULL - 1023; // 2^64 - 2^10
    std::vector<uint64_t> words = {half,          half,     // rejected
                                   half,          round_up, // clamped y
                                   half,          ~0ULL,    // clamped y
                                   round_up - 1,  half,     // rounds down
                                   0,             half,     // r^2 == 1
                                   half,          half};    // rejected
    Rng filler(4);
    for (int i = 0; i < 200; ++i)
        words.push_back(filler.nextU64());
    const size_t pairs = words.size() / 2;

    std::vector<double> ys(pairs), r2s(pairs), vals(pairs);
    size_t accepted = 0;
    const size_t used = k->polarPairs(words.data(), pairs, pairs,
                                      ys.data(), r2s.data(), &accepted);
    ASSERT_GE(accepted, 4u);
    EXPECT_EQ(ys[0], 1.0 - 0x1p-52);
    EXPECT_EQ(ys[1], 1.0 - 0x1p-52);
    EXPECT_EQ(r2s[3], 1.0);
    const std::vector<double> ones(pairs, 1.0);
    k->polarFinish(ys.data(), r2s.data(), ones.data(), accepted, 0.0,
                   vals.data());

    ReplayWords replay{&words};
    for (size_t i = 0; i < accepted; ++i) {
        std::normal_distribution<double> d;
        ASSERT_EQ(vals[i], d(replay)) << "draw " << i;
    }
    EXPECT_EQ(2 * used, replay.pos);

    // Asked for fewer accepts, the pass stops at the pair that yields
    // the last one: the same consumption as that many scalar draws.
    for (size_t want : {1, 2, 3, 7}) {
        ReplayWords r{&words};
        for (size_t i = 0; i < want; ++i) {
            std::normal_distribution<double> d;
            d(r);
        }
        size_t got = 0;
        EXPECT_EQ(2 * k->polarPairs(words.data(), pairs, want, ys.data(),
                                    r2s.data(), &got),
                  r.pos)
            << "want " << want;
        EXPECT_EQ(got, want);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rng, RngKernelVariant,
    ::testing::Values("baseline", "avx2", "avx512"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(FastRng, GaussianMomentsAtSeveralPoints)
{
    // The Fast sampler's statistical-equivalence gate: mean, stddev,
    // and excess kurtosis at several (mean, std) operating points.
    struct Point
    {
        double mean, std;
    };
    for (const Point p : {Point{0.0, 1.0}, Point{1.5, 0.5},
                          Point{-2.0, 0.03}}) {
        FastRng rng(0xFA57 + static_cast<uint64_t>(p.std * 1000));
        const int n = 400000;
        double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
        for (int i = 0; i < n; ++i) {
            double z = (rng.gaussian(p.mean, p.std) - p.mean) / p.std;
            s1 += z;
            s2 += z * z;
            s3 += z * z * z;
            s4 += z * z * z * z;
        }
        EXPECT_NEAR(s1 / n, 0.0, 6e-3) << p.mean << "," << p.std;
        EXPECT_NEAR(s2 / n, 1.0, 8e-3) << p.mean << "," << p.std;
        EXPECT_NEAR(s3 / n, 0.0, 2e-2) << p.mean << "," << p.std;
        EXPECT_NEAR(s4 / n, 3.0, 6e-2) << p.mean << "," << p.std;
    }
}

TEST(FastRng, KolmogorovSmirnovAgainstNormalCdf)
{
    // One-sample KS against Phi; D * sqrt(n) < 1.95 rejects only at
    // alpha ~= 0.001 — a real distribution defect (a broken layer
    // table, a biased tail) blows far past this.
    FastRng rng(0x4B5);
    const size_t n = 200000;
    std::vector<double> xs(n);
    for (double &x : xs)
        x = rng.gaussian(0.0, 1.0);
    std::sort(xs.begin(), xs.end());
    auto phi = [](double x) {
        return 0.5 * std::erfc(-x / std::sqrt(2.0));
    };
    double d = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double f = phi(xs[i]);
        d = std::max(d, std::abs(f - static_cast<double>(i) / n));
        d = std::max(d, std::abs(static_cast<double>(i + 1) / n - f));
    }
    EXPECT_LT(d * std::sqrt(static_cast<double>(n)), 1.95);
}

TEST(FastRng, DeterministicAndCounted)
{
    FastRng a(77), b(77);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0)) << i;
    EXPECT_EQ(a.drawCount(), 1000u);
    a.gaussian(3.0, 0.0); // zero-std: no draw, no state consumed
    EXPECT_EQ(a.drawCount(), 1000u);
    EXPECT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));

    // Distinct seeds diverge.
    FastRng c(78);
    EXPECT_NE(c.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
}

TEST(Table, AlignmentAndCsv)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream txt;
    t.print(txt);
    EXPECT_NE(txt.str().find("| alpha | 1     |"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\nalpha,1\nb,22\n");
}

TEST(Table, RowCount)
{
    Table t({"a"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"x"});
    EXPECT_EQ(t.rowCount(), 1u);
}

} // namespace
