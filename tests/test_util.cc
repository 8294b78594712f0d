/**
 * @file
 * Unit tests for src/util: stats, units, quantization, tables, RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/ddot.hh"
#include "util/fast_rng.hh"
#include "util/libm_tables.hh"
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
    k->polarUnit(ys.data(), r2s.data(), accepted, vals.data());

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

TEST_P(RngKernelVariant, CompactionStopsAtTheWantedAccept)
{
    // Crafted pairs put the want-th accept in every lane of an 8-pair
    // vector, for want 1-17, with the stream ending right after it
    // (short, zero-padded last block), a few pairs later, or a whole
    // vector later. Accepted pairs lie near the origin; rejected ones
    // have r^2 = 2 (words 0), r^2 == 0 (2^63 twice) or r^2 ~ 2 (all
    // ones). polarPairs must consume exactly the words `want` fresh
    // std::normal_distribution draws do and store exactly those draws
    // (the slots from `want` on keep their sentinel), and polarOne
    // must match the first draw.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    const uint64_t half = 1ULL << 63;
    const uint64_t rejects[3][2] = {{0, 0}, {half, half}, {~0ULL, ~0ULL}};
    Rng filler(0xC0DE);
    auto near_origin = [&] { return half + 1 + (filler.nextU64() >> 2); };
    constexpr double kSentinel = -123.0;
    for (size_t want = 1; want <= 17; ++want) {
        for (size_t lane = 0; lane < 8; ++lane) {
            const size_t hit = 8 * ((want + 7) / 8) + lane; // >= want
            // want - 1 accepts spread over the pairs before `hit`.
            std::vector<bool> accept(hit + 1, false);
            accept[hit] = true;
            for (size_t placed = 0; placed + 1 < want;) {
                const size_t p =
                    static_cast<size_t>(filler.uniformInt(0, hit - 1));
                placed += !accept[p];
                accept[p] = true;
            }
            for (size_t tail : {0, 3, 8}) {
                std::vector<uint64_t> words;
                for (size_t p = 0; p <= hit + tail; ++p) {
                    if (p > hit || accept[p]) {
                        words.push_back(near_origin());
                        words.push_back(near_origin());
                    } else {
                        words.push_back(rejects[p % 3][0]);
                        words.push_back(rejects[p % 3][1]);
                    }
                }
                const size_t pairs = words.size() / 2;
                ReplayWords ref{&words};
                std::vector<double> expect(want);
                for (double &e : expect) {
                    std::normal_distribution<double> d;
                    e = d(ref);
                }
                ASSERT_EQ(ref.pos, 2 * (hit + 1));

                std::vector<double> ys(want + 8, kSentinel);
                std::vector<double> r2s(want + 8, kSentinel);
                size_t got = 0;
                const size_t used = k->polarPairs(
                    words.data(), pairs, want, ys.data(), r2s.data(), &got);
                const std::string where = "want " + std::to_string(want) +
                                          " lane " + std::to_string(lane) +
                                          " tail " + std::to_string(tail);
                ASSERT_EQ(got, want) << where;
                EXPECT_EQ(used, hit + 1) << where;
                for (size_t i = want; i < ys.size(); ++i) {
                    EXPECT_EQ(ys[i], kSentinel) << where << " slot " << i;
                    EXPECT_EQ(r2s[i], kSentinel) << where << " slot " << i;
                }
                std::vector<double> vals(want);
                k->polarUnit(ys.data(), r2s.data(), want, vals.data());
                EXPECT_EQ(vals, expect) << where;

                double one = 0.0;
                size_t one_accepted = 0;
                ReplayWords first{&words};
                std::normal_distribution<double> d;
                const double first_draw = d(first);
                EXPECT_EQ(2 * k->polarOne(words.data(), pairs, 0.0, 1.0,
                                          &one, &one_accepted),
                          first.pos)
                    << where;
                EXPECT_EQ(one_accepted, 1u) << where;
                EXPECT_EQ(one, first_draw) << where;
            }
        }
    }

    // All rejects: everything is consumed, nothing is accepted, and
    // nothing is stored at or past `want`.
    std::vector<uint64_t> words(2 * 13, 0);
    std::vector<double> ys(4 + 8, kSentinel), r2s(4 + 8, kSentinel);
    size_t got = 1;
    EXPECT_EQ(k->polarPairs(words.data(), 13, 4, ys.data(), r2s.data(),
                            &got),
              13u);
    EXPECT_EQ(got, 0u);
    for (size_t i = 4; i < ys.size(); ++i) {
        EXPECT_EQ(ys[i], kSentinel) << "slot " << i;
        EXPECT_EQ(r2s[i], kSentinel) << "slot " << i;
    }
    double one = kSentinel;
    EXPECT_EQ(k->polarOne(words.data(), 13, 0.0, 1.0, &one, &got), 13u);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(one, kSentinel);
}

TEST_P(RngKernelVariant, FillsAcrossTheBlockBoundaryMatchStd)
{
    // Rng positioned `off` words before the end of a 312-word block
    // (odd offsets make the first pair straddle the refill), then one
    // fill of `want` draws, or `want` gaussian() calls: values, and the
    // next raw word, must match std::normal_distribution over the same
    // mt19937_64 words replayed.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    std::mt19937_64 eng(0xB10C);
    std::vector<uint64_t> words(4 * Rng::kBlockWords);
    for (uint64_t &w : words)
        w = eng();
    for (size_t want = 1; want <= 17; ++want) {
        for (size_t off = 0; off <= 40; ++off) {
            for (bool scalar : {false, true}) {
                Rng rng(0xB10C, *k);
                const size_t start = Rng::kBlockWords - off;
                for (size_t i = 0; i < start; ++i)
                    rng.nextU64();
                std::vector<double> out(want);
                if (scalar) {
                    for (double &v : out)
                        v = rng.gaussian(0.0, 1.0);
                } else {
                    rng.fillGaussian(out, 0.0, 1.0);
                }
                ReplayWords ref{&words, start};
                for (size_t i = 0; i < want; ++i) {
                    std::normal_distribution<double> d;
                    ASSERT_EQ(out[i], d(ref))
                        << "want " << want << " off " << off << " draw "
                        << i << (scalar ? " scalar" : " fill");
                }
                ASSERT_EQ(rng.nextU64(), words[ref.pos])
                    << "want " << want << " off " << off;
            }
        }
    }
}

namespace {

/** Bitwise equality of two doubles (distinguishes -0, +0 and NaNs). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** The polar transform in scalar code: y * sqrt(-2 log r2 / r2). */
double
scalarUnit(double y, double r2)
{
    return y * std::sqrt(-2.0 * std::log(r2) / r2);
}

/**
 * Run `pass(base, n, out)`, a kernel over the elements [base, base + n)
 * of its inputs, over [0, in.size()) in calls of 1-700 elements and
 * return the elements that differ bitwise from `ref` (printing the
 * first few with their input `in`); `deferred` sums the calls' returns.
 */
template <typename Pass>
size_t
exactPassMismatches(Pass pass, const std::vector<double> &in,
                    const std::vector<double> &ref, size_t &deferred)
{
    std::vector<double> out(in.size());
    Rng plan(0xCA11);
    deferred = 0;
    for (size_t base = 0; base < in.size();) {
        const size_t n = std::min(
            in.size() - base, static_cast<size_t>(plan.uniformInt(1, 700)));
        deferred += pass(base, n, out.data() + base);
        base += n;
    }
    size_t bad = 0;
    for (size_t i = 0; i < in.size(); ++i)
        if (!sameBits(out[i], ref[i]) && bad++ < 5)
            ADD_FAILURE() << std::hexfloat << "input " << in[i] << " gave "
                          << out[i] << ", scalar " << ref[i];
    return bad;
}

/**
 * polarUnit over the pairs (ys[i], r2s[i]) against scalarUnit, as
 * exactPassMismatches counts them.
 */
size_t
polarUnitMismatches(const detail::RngKernels &k,
                    const std::vector<double> &ys,
                    const std::vector<double> &r2s, size_t &recomputed)
{
    std::vector<double> ref(r2s.size());
    for (size_t i = 0; i < r2s.size(); ++i)
        ref[i] = scalarUnit(ys[i], r2s[i]);
    return exactPassMismatches(
        [&](size_t base, size_t n, double *out) {
            return k.polarUnit(ys.data() + base, r2s.data() + base, n, out);
        },
        r2s, ref, recomputed);
}

/** glibcSin over `phases` against glibc's sin, likewise. */
size_t
sinMismatches(const detail::RngKernels &k, const std::vector<double> &phases,
              size_t &deferred)
{
    std::vector<double> ref(phases.size());
    for (size_t i = 0; i < phases.size(); ++i)
        ref[i] = std::sin(phases[i]);
    return exactPassMismatches(
        [&](size_t base, size_t n, double *out) {
            return k.glibcSin(phases.data() + base, n, out);
        },
        phases, ref, deferred);
}

/** Engine phases: -pi/2 + dispersion phase error + N(0, sigma^2). */
std::vector<double>
enginePhases(size_t count, double noise_scale, uint64_t seed)
{
    const core::DDot ddot(12);
    const double sigma =
        noise_scale * core::NoiseConfig::paperDefault().phaseNoiseStdRad();
    std::vector<double> drift(count);
    Rng(seed).fillGaussian(drift, 0.0, sigma);
    std::vector<double> phases(count);
    for (size_t i = 0; i < count; ++i)
        phases[i] = -M_PI / 2.0 +
                    ddot.channels()[i % ddot.numWavelengths()].phase_error +
                    drift[i];
    return phases;
}

constexpr size_t kExactSamples = size_t{1} << 22;

} // namespace

TEST_P(RngKernelVariant, GlibcPolarUnitMatchesScalarFormula)
{
    // 2^22 accepted (y, r^2) pairs from this variant's own candidate
    // pass over mt19937_64 words, then the crafted pairs the candidate
    // pass rarely yields: r^2 == 1 (its log is 0) with y = 0, 2^-14
    // and -2^-51, the clamped y = 1 - 2^-52 and the smallest r^2,
    // 2^-106, each in several lane positions. polarUnit must equal the
    // scalar formula with glibc's log bit for bit (run under both
    // glibc libm variants in CI), and the SIMD variants must recompute
    // few lanes (the log guard is 1/40 ulp).
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    std::mt19937_64 eng(0xF1A1);
    std::vector<uint64_t> words(2 * 4096);
    std::vector<double> ys, r2s;
    while (r2s.size() < kExactSamples) {
        for (uint64_t &w : words)
            w = eng();
        size_t accepted = 0;
        const size_t start = r2s.size();
        ys.resize(start + 4096);
        r2s.resize(start + 4096);
        k->polarPairs(words.data(), 4096, 4096, ys.data() + start,
                      r2s.data() + start, &accepted);
        ys.resize(start + accepted);
        r2s.resize(start + accepted);
    }
    const size_t random = r2s.size();
    const uint64_t half = 1ULL << 63;
    const uint64_t crafted[][2] = {{0, half},
                                   {1ULL << 34, half + (1ULL << 49)},
                                   {0, half - 4096},
                                   {half, ~0ULL},
                                   {half, ~0ULL - 1023},
                                   {half - 1024, half},
                                   {half, half - 1024}};
    for (size_t rep = 0; rep < 9; ++rep)
        for (const uint64_t(&pair)[2] : crafted) {
            double y = 0.0, r2 = 0.0;
            size_t accepted = 0;
            k->polarPairs(pair, 1, 1, &y, &r2, &accepted);
            ASSERT_EQ(accepted, 1u);
            ys.push_back(y);
            r2s.push_back(r2);
        }
    EXPECT_EQ(r2s[random], 1.0);
    EXPECT_EQ(ys[random + 3], 1.0 - 0x1p-52);
    EXPECT_EQ(r2s[random + 5], 0x1p-106);

    size_t recomputed = 0;
    EXPECT_EQ(polarUnitMismatches(*k, ys, r2s, recomputed), 0u);
    if (std::string_view(k->name) != "baseline")
        EXPECT_LT(recomputed, r2s.size() / 10) << "lanes recomputed";
}

TEST_P(RngKernelVariant, GlibcSinMatchesGlibcOnEnginePhases)
{
    // 2^22 drifted phases at 1x and 2^22 at 2x the paper's phase noise
    // over the dispersion phase errors of a 12-wavelength DDot: every
    // result must equal glibc's scalar sin bit for bit.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    for (double scale : {1.0, 2.0}) {
        const std::vector<double> phases =
            enginePhases(kExactSamples, scale, 0x5147);
        size_t deferred = 0;
        EXPECT_EQ(sinMismatches(*k, phases, deferred), 0u)
            << scale << "x phase noise";
        if (std::string_view(k->name) != "baseline")
            EXPECT_LT(deferred, phases.size() / 5)
                << scale << "x phase noise: lanes that called glibc";
    }
}

TEST_P(RngKernelVariant, GlibcPolarUnitAndSinMatchAtEdgeInputs)
{
    // Inputs at the ends of each vector lane's domain and past them,
    // which must fall back to glibc: r^2 == 1 (log 0), powers of two
    // down to the smallest r^2 the candidate pass can produce (2^-106,
    // from the words 2^63 - 2^10 and 2^63), their neighbors, the
    // smallest normal, subnormals, 0, negatives, values above 1,
    // infinities and NaN, each paired with a random y for polarUnit;
    // phases at and just past both band edges |phi + pi/2| = 1/4,
    // within 2^-20 of -pi/2 (where sin rounds to -1), and far outside.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    const uint64_t kLogOff = detail::libm::kLogOff;
    const double kPio2Hi = detail::libm::kPio2Hi;
    const uint64_t smallest_words[2] = {(1ULL << 63) - 1024, 1ULL << 63};
    double y = 0.0, smallest = 0.0;
    size_t accepted = 0;
    k->polarPairs(smallest_words, 1, 1, &y, &smallest, &accepted);
    ASSERT_EQ(accepted, 1u);
    ASSERT_EQ(smallest, 0x1p-106);

    std::vector<double> r2s = {1.0,
                               std::nextafter(1.0, 0.0),
                               0x1p-1022,
                               0x1p-1074,
                               0x1.8p-1040,
                               0.0,
                               -0.0,
                               -0.5,
                               1.5,
                               2.0,
                               INFINITY,
                               -INFINITY,
                               NAN,
                               std::bit_cast<double>(kLogOff),
                               std::nextafter(
                                   std::bit_cast<double>(kLogOff), 0.0)};
    for (int e = 0; e <= 106; ++e) {
        const double p = std::ldexp(1.0, -e);
        r2s.insert(r2s.end(), {p, std::nextafter(p, 0.0),
                               std::nextafter(p, 2.0)});
    }
    Rng gen(0x1061);
    std::vector<double> ys(r2s.size());
    for (double &v : ys)
        v = gen.uniform(-1.0, 1.0);
    std::vector<double> phases = {-M_PI / 2.0, -3.0, 0.0, 1.5, M_PI / 2.0,
                                  -M_PI, INFINITY, NAN};
    for (double edge : {-0.25, 0.25}) {
        double phi = edge - kPio2Hi;
        for (int step = 0; step < 8; ++step)
            phi = std::nextafter(phi, 0.0);
        for (int step = 0; step < 16; ++step) {
            phases.push_back(phi);
            phi = std::nextafter(phi, -4.0);
        }
    }
    Rng near(0x2020);
    for (int i = -64; i <= 64; ++i)
        phases.push_back(-kPio2Hi + i * 0x1p-52);
    for (int i = 0; i < 256; ++i)
        phases.push_back(-kPio2Hi + near.uniform(-0x1p-20, 0x1p-20));

    size_t deferred = 0;
    EXPECT_EQ(polarUnitMismatches(*k, ys, r2s, deferred), 0u) << "polarUnit";
    EXPECT_EQ(sinMismatches(*k, phases, deferred), 0u) << "sin";
}

TEST_P(RngKernelVariant, GlibcPolarUnitAndSinWriteExactlyTheirOutputs)
{
    // Every length from 0 to 33 (empty, short tails, whole vectors and
    // tails after them), polarUnit over pairs that end in r^2 == 1 and
    // the clamped y: out[0, n) equals the scalar code and the slots
    // past it keep their sentinels. ASan does not instrument the
    // AVX-512 masked and compress stores, so the sentinels are what
    // checks them.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    constexpr double kSentinel = -123.0;
    const std::vector<double> phases = enginePhases(33, 1.0, 0x7A11);
    std::vector<double> ys(33), r2s(33);
    Rng gen(0x7A12);
    for (size_t i = 0; i < 33; ++i) {
        r2s[i] = gen.uniform(0x1p-20, 1.0);
        ys[i] = gen.uniform(-1.0, 1.0);
    }
    r2s[31] = r2s[32] = 1.0;
    ys[32] = 1.0 - 0x1p-52;
    for (size_t n = 0; n <= 33; ++n) {
        for (bool sin : {false, true}) {
            std::vector<double> out(n + 16, kSentinel);
            if (sin)
                k->glibcSin(phases.data(), n, out.data());
            else
                k->polarUnit(ys.data(), r2s.data(), n, out.data());
            for (size_t i = 0; i < n; ++i)
                EXPECT_TRUE(sameBits(out[i], sin ? std::sin(phases[i])
                                                 : scalarUnit(ys[i], r2s[i])))
                    << (sin ? "sin" : "polarUnit") << " n " << n << " slot "
                    << i;
            for (size_t i = n; i < out.size(); ++i)
                EXPECT_EQ(out[i], kSentinel)
                    << (sin ? "sin" : "polarUnit") << " n " << n << " slot "
                    << i;
        }
    }
}

TEST_P(RngKernelVariant, ExpandScaledSpreadsUnitDrawsOverPositiveStds)
{
    // Every length from 0 to 33, with one hole at every position, all
    // holes, no holes, and holes every third element: out[i] must be
    // unit[k] * stds[i] + mean bit for bit (k counting the positive
    // stds before i) and the mean at a hole (zero, negative or -0.0
    // std). The slots after out keep their sentinels, and the unit
    // buffer's slots after its valid values hold sentinels that must
    // not reach out: ASan does not instrument the AVX-512 masked
    // loads and stores.
    const detail::RngKernels *k = kernels();
    if (k == nullptr)
        GTEST_SKIP() << GetParam() << " kernels: not supported here";
    constexpr double kSentinel = -123.0;
    const double mean = 0.375;
    Rng gen(0xE8A4);
    for (size_t n = 0; n <= 33; ++n) {
        std::vector<std::vector<double>> patterns;
        for (size_t hole = 0; hole < n; ++hole) {
            std::vector<double> stds(n, 0.5);
            stds[hole] = hole % 3 == 0 ? 0.0 : hole % 3 == 1 ? -1.0 : -0.0;
            patterns.push_back(stds);
        }
        patterns.emplace_back(n, 0.0);
        patterns.emplace_back(n, 0.25);
        patterns.emplace_back(n, 0.0);
        for (size_t i = 0; i < n; ++i)
            patterns.back()[i] = i % 3 == 1 ? 0.0 : gen.uniform(0.01, 2.0);
        for (const std::vector<double> &stds : patterns) {
            const size_t positive = static_cast<size_t>(
                std::count_if(stds.begin(), stds.end(),
                              [](double s) { return s > 0.0; }));
            std::vector<double> unit(n + 16, kSentinel);
            for (size_t j = 0; j < positive; ++j)
                unit[j] = gen.uniform(-3.0, 3.0);
            std::vector<double> out(n + 16, kSentinel);
            k->expandScaled(unit.data(), stds.data(), n, mean, out.data());
            size_t used = 0;
            for (size_t i = 0; i < n; ++i) {
                const double expect =
                    stds[i] > 0.0 ? unit[used++] * stds[i] + mean : mean;
                EXPECT_TRUE(sameBits(out[i], expect))
                    << "n " << n << " slot " << i << " positive "
                    << positive;
            }
            for (size_t i = n; i < out.size(); ++i)
                EXPECT_EQ(out[i], kSentinel) << "n " << n << " slot " << i;
        }
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
