/**
 * @file
 * Tests for the DPTC tensor core: one-shot MM correctness, tiled GEMM,
 * beta normalization, encoding-cost algebra (Eq. 6), and capability
 * descriptors (Table I).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dptc.hh"
#include "core/encode_cost.hh"
#include "core/ptc_interface.hh"
#include "nn/tensor_ops.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace {

using namespace lt;
using namespace lt::core;

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniform(-scale, scale);
    return m;
}

Matrix
referenceGemm(const Matrix &a, const Matrix &b)
{
    return a * b;
}

TEST(Dptc, IdealOneShotMatchesReference)
{
    DptcConfig cfg;
    cfg.noise = NoiseConfig::ideal();
    Dptc dptc(cfg);
    Rng rng(1);
    Matrix a = randomMatrix(12, 12, rng);
    Matrix b = randomMatrix(12, 12, rng);
    Matrix out = dptc.multiply(a, b, EvalMode::Ideal);
    EXPECT_LT(out.maxAbsDiff(referenceGemm(a, b)), 1e-12);
}

TEST(Dptc, QuantizedOneShotCloseToReference)
{
    DptcConfig cfg;
    cfg.input_bits = 8;
    cfg.noise = NoiseConfig::ideal();
    Dptc dptc(cfg);
    Rng rng(2);
    Matrix a = randomMatrix(12, 12, rng, 3.0);
    Matrix b = randomMatrix(12, 12, rng, 0.5);
    Matrix out = dptc.multiply(a, b, EvalMode::Quantized);
    Matrix ref = referenceGemm(a, b);
    // 8-bit quantization of both operands: error bounded by roughly
    // 12 * (step_a * |b| + step_b * |a|) with steps 3/127 and 0.5/127.
    EXPECT_LT(out.maxAbsDiff(ref), 12.0 * (3.0 * 0.5 / 127.0) * 2.5);
}

TEST(Dptc, FullRangeOperandsBothSigns)
{
    // The defining DPTC feature: both operands full-range in one shot.
    DptcConfig cfg;
    cfg.noise = NoiseConfig::ideal();
    Dptc dptc(cfg);
    Matrix a(2, 2, 0.0), b(2, 2, 0.0);
    a(0, 0) = -0.9; a(0, 1) = 0.8; a(1, 0) = 0.7; a(1, 1) = -0.6;
    b(0, 0) = 0.5; b(0, 1) = -0.4; b(1, 0) = -0.3; b(1, 1) = 0.2;
    Matrix out = dptc.multiply(a, b, EvalMode::Ideal);
    EXPECT_LT(out.maxAbsDiff(referenceGemm(a, b)), 1e-12);
}

class DptcGemmShapeTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>>
{
};

TEST_P(DptcGemmShapeTest, TiledIdealGemmMatchesReference)
{
    auto [m, k, n] = GetParam();
    DptcConfig cfg;
    cfg.noise = NoiseConfig::ideal();
    Dptc dptc(cfg);
    Rng rng(m * 100 + k * 10 + n);
    Matrix a = randomMatrix(m, k, rng);
    Matrix b = randomMatrix(k, n, rng);
    Matrix out = dptc.gemm(a, b, EvalMode::Ideal);
    EXPECT_LT(out.maxAbsDiff(referenceGemm(a, b)), 1e-10)
        << m << "x" << k << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DptcGemmShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(12, 12, 12),
                      std::make_tuple(13, 12, 11),
                      std::make_tuple(24, 24, 24),
                      std::make_tuple(7, 25, 3),
                      std::make_tuple(50, 17, 29),
                      std::make_tuple(1, 64, 1),
                      std::make_tuple(197, 16, 8)));

TEST(Dptc, InvocationCountCeilTiling)
{
    DptcConfig cfg; // 12x12x12
    Dptc dptc(cfg);
    EXPECT_EQ(dptc.invocationsFor(12, 12, 12), 1u);
    EXPECT_EQ(dptc.invocationsFor(13, 12, 12), 2u);
    EXPECT_EQ(dptc.invocationsFor(24, 24, 24), 8u);
    EXPECT_EQ(dptc.invocationsFor(1, 1, 1), 1u);
    EXPECT_EQ(dptc.invocationsFor(197, 192, 64),
              (197 / 12 + 1) * 192 / 12 * (64 / 12 + 1));
}

TEST(Dptc, NoisyGemmTracksReferenceWithinNoiseBudget)
{
    DptcConfig cfg;
    cfg.input_bits = 8;
    cfg.noise = NoiseConfig::paperDefault();
    Dptc dptc(cfg);
    Rng rng(10);
    Matrix a = randomMatrix(24, 36, rng);
    Matrix b = randomMatrix(36, 24, rng);
    Matrix out = dptc.gemm(a, b, EvalMode::Noisy);
    Matrix ref = referenceGemm(a, b);
    // Relative error per output (normalized by the K=36 accumulation
    // scale) should sit in the few-percent regime.
    RunningStats rel;
    for (size_t r = 0; r < out.rows(); ++r)
        for (size_t c = 0; c < out.cols(); ++c)
            rel.add(std::abs(out(r, c) - ref(r, c)) / 36.0);
    EXPECT_LT(rel.mean(), 0.05);
    EXPECT_GT(rel.mean(), 1e-5);
}

TEST(Dptc, ZeroMatrixYieldsZero)
{
    DptcConfig cfg;
    cfg.noise = NoiseConfig::paperDefault();
    Dptc dptc(cfg);
    Matrix a(12, 12, 0.0);
    Matrix b(12, 12, 0.0);
    Matrix out = dptc.multiply(a, b, EvalMode::Noisy);
    for (double v : out.data())
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Dptc, BetaNormalizationHandlesLargeOperands)
{
    // Values far outside [-1, 1] must round-trip through the beta
    // scaling without blowing up.
    DptcConfig cfg;
    cfg.input_bits = 8;
    cfg.noise = NoiseConfig::ideal();
    Dptc dptc(cfg);
    Rng rng(12);
    Matrix a = randomMatrix(12, 12, rng, 100.0);
    Matrix b = randomMatrix(12, 12, rng, 0.01);
    Matrix out = dptc.multiply(a, b, EvalMode::Quantized);
    Matrix ref = referenceGemm(a, b);
    RunningStats rel;
    for (size_t r = 0; r < out.rows(); ++r)
        for (size_t c = 0; c < out.cols(); ++c)
            rel.add(std::abs(out(r, c) - ref(r, c)) /
                    (100.0 * 0.01 * 12.0));
    EXPECT_LT(rel.mean(), 0.01);
}

TEST(Dptc, GemmInnerDimMismatchFatal)
{
    DptcConfig cfg;
    Dptc dptc(cfg);
    Matrix a(4, 5), b(6, 4);
    EXPECT_EXIT({ dptc.gemm(a, b, EvalMode::Ideal); },
                ::testing::ExitedWithCode(1), "mismatch");
}

TEST(Dptc, OversizeOneShotFatal)
{
    DptcConfig cfg; // 12x12x12
    Dptc dptc(cfg);
    Matrix a(13, 12), b(12, 12);
    EXPECT_EXIT({ dptc.multiply(a, b, EvalMode::Ideal); },
                ::testing::ExitedWithCode(1), "exceeds core geometry");
}

// ---- EncodedOperand + packed kernel ----------------------------------

/** Deterministic operand used by the golden fixtures (do not change:
 *  the pinned values below were captured against exactly this). */
Matrix
goldenMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (double &v : m.data())
        v = rng.uniform(-1.0, 1.0);
    return m;
}

/** Bit-exact probes of a golden output: sequential data sum plus
 *  three spot entries, compared with EXPECT_EQ (no tolerance). */
struct GoldenProbes
{
    double sum, first, last, mid;
};

void
expectGolden(const Matrix &out, const GoldenProbes &g)
{
    double sum = 0.0;
    for (double v : out.data())
        sum += v;
    EXPECT_EQ(sum, g.sum);
    EXPECT_EQ(out(0, 0), g.first);
    EXPECT_EQ(out(out.rows() - 1, out.cols() - 1), g.last);
    EXPECT_EQ(out(out.rows() / 2, out.cols() / 2), g.mid);
}

// The fixtures pin the noisy outputs of the packed tile kernel
// bit-exact to the pre-rewrite (gather-based) kernel: the values
// below were captured from the seed implementation before
// EncodedOperand existed. Any drift in element visit order, RNG draw
// order, or arithmetic association in the kernel or the encoding
// path fails these with no tolerance to hide behind.

TEST(PackedKernelGolden, DefaultNoiseGemm)
{
    DptcConfig cfg; // 12^3 geometry, 4-bit, paper-default noise
    Dptc dptc(cfg);
    Matrix a = goldenMatrix(13, 25, 101);
    Matrix b = goldenMatrix(25, 11, 202);
    expectGolden(dptc.gemm(a, b, EvalMode::Noisy),
                 {-0x1.9b9dacd91b1f9p+4, -0x1.4c538b623a0d4p-1,
                  0x1.086856304b4f1p+1, 0x1.0e7d1fcd7af4fp-1});
}

TEST(PackedKernelGolden, MagnitudeZeroPhaseOnly)
{
    // magnitude_noise_std == 0 exercises the bulk fillGaussian phase
    // path: the zero-std magnitude draws consume no engine state, so
    // the draws batch — the sequence must still match the
    // per-element reference.
    DptcConfig cfg;
    cfg.input_bits = 8;
    cfg.noise.magnitude_noise_std = 0.0;
    Dptc dptc(cfg);
    Matrix a = goldenMatrix(12, 12, 707);
    Matrix b = goldenMatrix(12, 12, 808);
    expectGolden(dptc.gemm(a, b, EvalMode::Noisy),
                 {-0x1.bd11892381543p+3, 0x1.82608246de0efp-1,
                  -0x1.a0fedd9f29ad4p-3, 0x1.fbad20954a508p-1});
}

TEST(PackedKernelGolden, CalibratedGemm)
{
    DptcConfig cfg;
    cfg.input_bits = 8;
    cfg.channel_calibration = true;
    Dptc dptc(cfg);
    Matrix a = goldenMatrix(13, 13, 909);
    Matrix b = goldenMatrix(13, 13, 1010);
    expectGolden(dptc.gemm(a, b, EvalMode::Noisy),
                 {-0x1.3c0921d783bf5p+3, -0x1.64065fc34f746p-1,
                  -0x1.6c8f6a172f801p-2, -0x1.7a71066fd75bep-1});
}

TEST(PackedKernelGolden, StatefulMultiplySequence)
{
    // multiply() now encodes through Dptc::encode but must advance
    // the stateful member RNG exactly as before: two back-to-back
    // calls pin the draw sequence across calls.
    DptcConfig cfg;
    Dptc dptc(cfg);
    Matrix a = goldenMatrix(12, 12, 111);
    Matrix b = goldenMatrix(12, 12, 222);
    expectGolden(dptc.multiply(a, b, EvalMode::Noisy),
                 {-0x1.3f643f2a02bc9p+3, 0x1.3fe12308019e9p-1,
                  -0x1.808ada65454aap+0, 0x1.3a17e0f621765p+0});
    expectGolden(dptc.multiply(a, b, EvalMode::Noisy),
                 {-0x1.1dd45e8af3b5p+3, 0x1.50e83db8eba1p-1,
                  -0x1.8539899fdd18cp+0, 0x1.5c4adcbcbb452p+0});
}

TEST(PackedKernelGolden, QuantizedSixBit)
{
    DptcConfig cfg;
    cfg.input_bits = 6;
    cfg.noise = NoiseConfig::ideal();
    Dptc dptc(cfg);
    Matrix a = goldenMatrix(10, 14, 333);
    Matrix b = goldenMatrix(14, 10, 444);
    expectGolden(dptc.gemm(a, b, EvalMode::Quantized),
                 {0x1.152fa8192ee1dp+0, 0x1.e02c606272817p-2,
                  -0x1.576f6bee40f1cp-1, -0x1.ece4a6c09ad64p-1});
}

TEST(PackedKernelGolden, FastSamplerGemm)
{
    // The Fast sampler's stream is its own, so the BitExact goldens
    // above do not cover it. A zero row of A and a zero column of B
    // leave zero-std magnitude holes, which must consume nothing; the
    // phase-only config drops every magnitude draw. Draw counts are
    // pinned with the values.
    struct Case
    {
        double magnitude_std;
        GoldenProbes probes;
        uint64_t draws;
    };
    const Case cases[] = {
        {0.03,
         {0x1.8aebef5503ad4p+3, -0x1.96189a902c282p+1,
          0x1.ebf6eb859d5b6p-1, 0x1.2151d3508739ap-9},
         10176},
        {0.0,
         {0x1.7eee2ef739c1ep+3, -0x1.8fe1aeab3bf6ap+1,
          0x1.e446ac3945798p-1, 0x1.4f4ee23e71f31p-9},
         4004},
    };
    for (const Case &c : cases) {
        DptcConfig cfg;
        cfg.noise.sampler = NoiseSampler::Fast;
        cfg.noise.magnitude_noise_std = c.magnitude_std;
        Dptc dptc(cfg);
        Matrix a = goldenMatrix(13, 25, 1313);
        Matrix b = goldenMatrix(25, 11, 1414);
        for (size_t k = 0; k < a.cols(); ++k)
            a(6, k) = 0.0;
        for (size_t k = 0; k < b.rows(); ++k)
            b(k, 4) = 0.0;
        EncodedOperand ea = dptc.encode(a, OperandSide::A, EvalMode::Noisy);
        EncodedOperand eb = dptc.encode(b, OperandSide::B, EvalMode::Noisy);
        Matrix out(a.rows(), b.cols(), 0.0);
        uint64_t draws = 0;
        dptc.gemmTiles(ea, eb, EvalMode::Noisy, ea.beta() * eb.beta(), 0,
                       dptc.outputTilesFor(a.rows(), b.cols()), out,
                       0xFA57, &draws);
        expectGolden(out, c.probes);
        EXPECT_EQ(draws, c.draws) << "magnitude std " << c.magnitude_std;
    }
}

TEST(EncodedOperand, EncodeMatchesNormalizeQuantize)
{
    DptcConfig cfg;
    cfg.input_bits = 5;
    Dptc dptc(cfg);
    Matrix m = goldenMatrix(17, 23, 55);
    for (OperandSide side : {OperandSide::A, OperandSide::B}) {
        EncodedOperand op = dptc.encode(m, side, EvalMode::Noisy);
        EXPECT_EQ(op.beta(), Dptc::maxAbs(m));
        EXPECT_EQ(op.bits(), 5);
        EXPECT_EQ(op.rows(), 17u);
        EXPECT_EQ(op.cols(), 23u);
        // The packed values, unpacked, are exactly the reference
        // normalize+quantize pass.
        Matrix ref =
            Dptc::normalizeQuantize(m, Dptc::maxAbs(m), 5);
        EXPECT_EQ(op.normalized().maxAbsDiff(ref), 0.0);
    }
}

TEST(EncodedOperand, IdealEncodeIsRaw)
{
    DptcConfig cfg;
    cfg.input_bits = 4;
    Dptc dptc(cfg);
    Matrix m = goldenMatrix(9, 26, 66);
    EncodedOperand op = dptc.encode(m, OperandSide::B, EvalMode::Ideal);
    EXPECT_EQ(op.beta(), 1.0);
    EXPECT_EQ(op.bits(), 0);
    EXPECT_EQ(op.normalized().maxAbsDiff(m), 0.0);
}

TEST(EncodedOperand, ZeroOperandEncodesToZeros)
{
    DptcConfig cfg;
    Dptc dptc(cfg);
    Matrix zero(7, 7, 0.0);
    EncodedOperand op = dptc.encode(zero, OperandSide::B,
                                    EvalMode::Noisy);
    EXPECT_EQ(op.beta(), 0.0);
    EXPECT_EQ(op.normalized().maxAbsDiff(zero), 0.0);
}

TEST(EncodedOperand, PackedKernelMatchesReferenceKernel)
{
    // The equivalence the goldens pin at fixed points, swept across
    // shapes (partial tiles in every dimension), noise configs and
    // operands with zero rows and columns (zero-std holes in the
    // pass's one fill) or no nonzero at all (beta 0): encode + packed
    // gemmTiles must equal normalizeQuantize + reference gemmTiles
    // bit-for-bit. The reference takes each MAC's sine from glibc's
    // std::sin; the packed kernel from one glibcSin pass per row,
    // whose vector path covers the band |phi + pi/2| <= 1/4. At 30
    // degrees of phase noise most phases fall outside that band and
    // call glibc from the pass, and without dispersion every channel
    // shares the phase base -pi/2.
    struct Shape
    {
        size_t m, k, n;
    };
    const Shape shapes[] = {{1, 1, 1},   {12, 12, 12}, {13, 25, 11},
                            {1, 40, 7},  {24, 24, 24}, {50, 17, 29},
                            {5, 64, 1}};
    NoiseConfig paper = NoiseConfig::paperDefault();
    NoiseConfig phase_only = paper;
    phase_only.magnitude_noise_std = 0.0;
    NoiseConfig no_encoding = paper;
    no_encoding.enable_encoding_noise = false;
    NoiseConfig no_systematic = paper;
    no_systematic.enable_systematic_noise = false;
    NoiseConfig wide_phase = paper;
    wide_phase.phase_noise_std_deg = 30.0;
    NoiseConfig no_dispersion = paper;
    no_dispersion.enable_dispersion = false;
    const NoiseConfig configs[] = {paper,         phase_only, no_encoding,
                                   no_systematic, wide_phase,
                                   no_dispersion};
    enum class Operands
    {
        Dense,
        ZeroRowsAndColumns,
        ZeroA,
    };

    uint64_t seed = 9000;
    for (const NoiseConfig &noise : configs) {
        DptcConfig cfg;
        cfg.input_bits = 8;
        cfg.noise = noise;
        Dptc dptc(cfg);
        for (const Shape &s : shapes) {
            for (Operands ops : {Operands::Dense,
                                 Operands::ZeroRowsAndColumns,
                                 Operands::ZeroA}) {
                Matrix a = goldenMatrix(s.m, s.k, seed++);
                Matrix b = goldenMatrix(s.k, s.n, seed++);
                if (ops == Operands::ZeroRowsAndColumns) {
                    for (size_t r = 0; r < s.m; r += 3)
                        for (size_t k = 0; k < s.k; ++k)
                            a(r, k) = 0.0;
                    for (size_t c = 1; c < s.n; c += 4)
                        for (size_t k = 0; k < s.k; ++k)
                            b(k, c) = 0.0;
                } else if (ops == Operands::ZeroA) {
                    a = Matrix(s.m, s.k, 0.0);
                }
                const size_t tiles = dptc.outputTilesFor(s.m, s.n);

                double beta_a = Dptc::maxAbs(a);
                double beta_b = Dptc::maxAbs(b);
                Matrix a_hat = Dptc::normalizeQuantize(a, beta_a, 8);
                Matrix b_hat = Dptc::normalizeQuantize(b, beta_b, 8);
                Matrix ref(s.m, s.n, 0.0);
                dptc.gemmTiles(a_hat, b_hat, EvalMode::Noisy,
                               beta_a * beta_b, 0, tiles, ref, 0xFEED);

                EncodedOperand ea =
                    dptc.encode(a, OperandSide::A, EvalMode::Noisy);
                EncodedOperand eb =
                    dptc.encode(b, OperandSide::B, EvalMode::Noisy);
                Matrix packed(s.m, s.n, 0.0);
                dptc.gemmTiles(ea, eb, EvalMode::Noisy,
                               ea.beta() * eb.beta(), 0, tiles, packed,
                               0xFEED);

                EXPECT_EQ(packed.maxAbsDiff(ref), 0.0)
                    << s.m << "x" << s.k << "x" << s.n << " operands "
                    << static_cast<int>(ops);
            }
        }
    }
}

// ---- NoiseSampler::Fast (Ziggurat over the counter scheme) -----------

TEST(FastSampler, DeterministicAndDivergesFromBitExact)
{
    DptcConfig fast_cfg;
    fast_cfg.noise.sampler = NoiseSampler::Fast;
    Dptc fast1(fast_cfg), fast2(fast_cfg);
    Dptc exact{DptcConfig{}};

    Matrix a = goldenMatrix(20, 30, 555);
    Matrix b = goldenMatrix(30, 15, 666);
    Matrix f1 = fast1.gemm(a, b, EvalMode::Noisy);
    Matrix f2 = fast2.gemm(a, b, EvalMode::Noisy);
    Matrix ex = exact.gemm(a, b, EvalMode::Noisy);

    // Fast is deterministic per (operands, config, stream)…
    EXPECT_EQ(f1.maxAbsDiff(f2), 0.0);
    // …draws a genuinely different stream than BitExact…
    EXPECT_GT(f1.maxAbsDiff(ex), 0.0);
    // …and is statistically the same noise: both track the ideal
    // product within the same noise budget.
    Matrix ideal = exact.gemm(a, b, EvalMode::Ideal);
    double scale = std::max(1e-12, Dptc::maxAbs(ideal));
    EXPECT_LT(f1.maxAbsDiff(ideal) / scale, 0.5);
    EXPECT_LT(ex.maxAbsDiff(ideal) / scale, 0.5);
}

TEST(FastSampler, TileRangeSplitInvariant)
{
    // The Fast stream is counter-seeded per tile, so splitting the
    // tile range (what engine sharding does) cannot change results.
    DptcConfig cfg;
    cfg.input_bits = 8;
    cfg.noise.sampler = NoiseSampler::Fast;
    Dptc dptc(cfg);
    Matrix a = goldenMatrix(37, 29, 777);
    Matrix b = goldenMatrix(29, 26, 888);
    EncodedOperand ea = dptc.encode(a, OperandSide::A, EvalMode::Noisy);
    EncodedOperand eb = dptc.encode(b, OperandSide::B, EvalMode::Noisy);
    const size_t tiles = dptc.outputTilesFor(a.rows(), b.cols());
    const double scale = ea.beta() * eb.beta();

    Matrix whole(a.rows(), b.cols(), 0.0);
    dptc.gemmTiles(ea, eb, EvalMode::Noisy, scale, 0, tiles, whole,
                   0xFA57);
    for (size_t mid : {size_t{1}, tiles / 3, tiles / 2, tiles - 1}) {
        Matrix split(a.rows(), b.cols(), 0.0);
        dptc.gemmTiles(ea, eb, EvalMode::Noisy, scale, 0, mid, split,
                       0xFA57);
        dptc.gemmTiles(ea, eb, EvalMode::Noisy, scale, mid, tiles,
                       split, 0xFA57);
        EXPECT_EQ(split.maxAbsDiff(whole), 0.0) << "mid " << mid;
    }
}

TEST(FastSampler, DrawCountMatchesNoiseModel)
{
    // Encoding noise off + systematic on: exactly one eps draw per
    // (output element, k-slice) and nothing else, for both samplers.
    for (NoiseSampler sampler :
         {NoiseSampler::BitExact, NoiseSampler::Fast}) {
        DptcConfig cfg;
        cfg.input_bits = 8;
        cfg.noise.enable_encoding_noise = false;
        cfg.noise.sampler = sampler;
        Dptc dptc(cfg);
        Matrix a = goldenMatrix(25, 30, 123);
        Matrix b = goldenMatrix(30, 14, 321);
        EncodedOperand ea =
            dptc.encode(a, OperandSide::A, EvalMode::Noisy);
        EncodedOperand eb =
            dptc.encode(b, OperandSide::B, EvalMode::Noisy);
        const size_t tiles = dptc.outputTilesFor(a.rows(), b.cols());
        Matrix out(a.rows(), b.cols(), 0.0);
        uint64_t draws = 0;
        dptc.gemmTiles(ea, eb, EvalMode::Noisy, ea.beta() * eb.beta(),
                       0, tiles, out, 0xC0DE, &draws);
        auto cdiv = [](size_t x, size_t y) { return (x + y - 1) / y; };
        EXPECT_EQ(draws, a.rows() * b.cols() * cdiv(a.cols(), 12u));
    }
}

TEST(EncodedOperand, GemmTilesRejectsMismatchedGeometry)
{
    DptcConfig small; // 12^3, 4-bit
    DptcConfig big;
    big.nlambda = 16;
    big.input_bits = 4;
    Dptc producer(big), consumer(small);
    Matrix a = goldenMatrix(4, 8, 77);
    Matrix b = goldenMatrix(8, 4, 88);
    EncodedOperand ea =
        consumer.encode(a, OperandSide::A, EvalMode::Noisy);
    EncodedOperand eb_wrong =
        producer.encode(b, OperandSide::B, EvalMode::Noisy);
    Matrix out(4, 4, 0.0);
    EXPECT_EXIT(
        {
            consumer.gemmTiles(ea, eb_wrong, EvalMode::Noisy, 1.0, 0,
                               1, out, 0);
        },
        ::testing::ExitedWithCode(1), "not encoded for this core");
}

// ---- operand views into the encoder ----------------------------------

TEST(EncodedOperand, EncodeFromViewMatchesEncodeFromCopy)
{
    // The view-vs-copy equivalence property at the encoder: encoding
    // a transposed (or column-block) view is bit-identical to
    // materializing the view and encoding the copy — beta, packed
    // data, and geometry all equal. This is what lets the decode K
    // cache stay row-major and encode its packed K^T through a view.
    DptcConfig cfg;
    cfg.input_bits = 8;
    Dptc dptc(cfg);
    Rng rng(0x11EE);
    for (EvalMode mode : {EvalMode::Noisy, EvalMode::Ideal}) {
        Matrix k = randomMatrix(29, 8, rng); // [tokens, dk]
        Matrix k_t = k.transposed();
        for (OperandSide side : {OperandSide::A, OperandSide::B}) {
            EncodedOperand from_view =
                dptc.encode(k.transposedView(), side, mode);
            EncodedOperand from_copy = dptc.encode(k_t, side, mode);
            EXPECT_EQ(from_view.beta(), from_copy.beta());
            EXPECT_EQ(from_view.rows(), from_copy.rows());
            EXPECT_EQ(from_view.cols(), from_copy.cols());
            EXPECT_EQ(from_view.normalized().maxAbsDiff(
                          from_copy.normalized()),
                      0.0);
        }

        Matrix wide = randomMatrix(12, 20, rng);
        Matrix sliced(12, 6);
        for (size_t r = 0; r < 12; ++r)
            for (size_t c = 0; c < 6; ++c)
                sliced(r, c) = wide(r, c + 7);
        EncodedOperand from_block =
            dptc.encode(wide.colsView(7, 6), OperandSide::B, mode);
        EncodedOperand from_slice =
            dptc.encode(sliced, OperandSide::B, mode);
        EXPECT_EQ(from_block.beta(), from_slice.beta());
        EXPECT_EQ(from_block.normalized().maxAbsDiff(
                      from_slice.normalized()),
                  0.0);
    }
}

// ---- incremental appends (encoded K/V caches) ------------------------

TEST(EncodedOperand, AppendColumnMatchesFullReencodeAcrossSweep)
{
    // The K-cache growth contract, hex-exact: growing a packed B-side
    // operand one column at a time must be indistinguishable — beta,
    // every packed value, and the noisy GEMM outputs — from freshly
    // encoding the grown dense operand, across shapes that cross tile
    // boundaries and every noise config the kernel branches on.
    struct Shape
    {
        size_t dk, t0, steps;
    };
    const Shape shapes[] = {
        {8, 1, 14},  // sub-tile k, crosses one nv boundary
        {12, 5, 20}, // exact nlambda k
        {17, 11, 26} // partial tiles in both dimensions
    };
    NoiseConfig paper = NoiseConfig::paperDefault();
    NoiseConfig no_encoding = paper;
    no_encoding.enable_encoding_noise = false;
    const NoiseConfig configs[] = {paper, no_encoding};

    uint64_t seed = 0xA99;
    for (const NoiseConfig &noise : configs) {
        DptcConfig cfg;
        cfg.input_bits = 8;
        cfg.noise = noise;
        Dptc dptc(cfg);
        for (const Shape &s : shapes) {
            Rng rng(seed++);
            // Dense K^T grows a column per step.
            Matrix k_t = randomMatrix(s.dk, s.t0, rng);
            EncodedOperand grown =
                dptc.encode(k_t, OperandSide::B, EvalMode::Noisy);
            grown.reserve(s.dk, s.t0 + s.steps);
            const double *backing = grown.packedData();

            for (size_t step = 0; step < s.steps; ++step) {
                Matrix col = randomMatrix(1, s.dk, rng);
                nn::appendColumn(k_t, col);
                if (!grown.appendColumn(col.data().data(), s.dk)) {
                    // Beta outgrown: requantize in place (the
                    // engine's encodeKvInto path) — still bit-equal
                    // to the fresh encode below.
                    grown.requantize(k_t.view(),
                                     Dptc::maxAbs(k_t));
                }
                EncodedOperand fresh = dptc.encode(
                    k_t, OperandSide::B, EvalMode::Noisy);
                ASSERT_EQ(grown.beta(), fresh.beta());
                ASSERT_EQ(grown.cols(), fresh.cols());
                ASSERT_EQ(grown.normalized().maxAbsDiff(
                              fresh.normalized()),
                          0.0)
                    << "dk=" << s.dk << " step=" << step;

                // And the noisy kernel on the grown encoding equals
                // the kernel on the fresh one, bit for bit (this
                // reads through the reserved k-tile stride).
                Matrix q = randomMatrix(1, s.dk, rng);
                EncodedOperand eq =
                    dptc.encode(q, OperandSide::A, EvalMode::Noisy);
                const size_t tiles =
                    dptc.outputTilesFor(1, k_t.cols());
                Matrix out_grown(1, k_t.cols(), 0.0);
                Matrix out_fresh(1, k_t.cols(), 0.0);
                dptc.gemmTiles(eq, grown, EvalMode::Noisy,
                               eq.beta() * grown.beta(), 0, tiles,
                               out_grown, 0xBEEF);
                dptc.gemmTiles(eq, fresh, EvalMode::Noisy,
                               eq.beta() * fresh.beta(), 0, tiles,
                               out_fresh, 0xBEEF);
                ASSERT_EQ(out_grown.maxAbsDiff(out_fresh), 0.0);
            }
            // Reserved growth never moved the packed blocks.
            EXPECT_EQ(grown.packedData(), backing);
        }
    }
}

TEST(EncodedOperand, AppendRowMatchesFullReencodeAcrossSweep)
{
    // The V-cache growth contract: one packed row per token, same
    // hex-exact equivalence (rows cross k-slice boundaries, so this
    // exercises the reserved k-tile stride directly).
    struct Shape
    {
        size_t dk, t0, steps;
    };
    const Shape shapes[] = {{8, 3, 15}, {12, 12, 14}, {26, 7, 19}};
    uint64_t seed = 0xB77;
    for (const Shape &s : shapes) {
        DptcConfig cfg;
        cfg.input_bits = 8;
        Dptc dptc(cfg);
        Rng rng(seed++);
        Matrix v = randomMatrix(s.t0, s.dk, rng); // [tokens, dk]
        EncodedOperand grown =
            dptc.encode(v, OperandSide::B, EvalMode::Noisy);
        grown.reserve(s.t0 + s.steps, s.dk);
        const double *backing = grown.packedData();

        for (size_t step = 0; step < s.steps; ++step) {
            Matrix row = randomMatrix(1, s.dk, rng);
            nn::appendRow(v, row);
            if (!grown.appendRow(row.data().data(), s.dk))
                grown.requantize(v.view(), Dptc::maxAbs(v));
            EncodedOperand fresh =
                dptc.encode(v, OperandSide::B, EvalMode::Noisy);
            ASSERT_EQ(grown.beta(), fresh.beta());
            ASSERT_EQ(grown.rows(), fresh.rows());
            ASSERT_EQ(
                grown.normalized().maxAbsDiff(fresh.normalized()),
                0.0)
                << "dk=" << s.dk << " step=" << step;
        }
        EXPECT_EQ(grown.packedData(), backing);
    }
}

TEST(EncodedOperand, AppendRefusesWhenBetaOutgrown)
{
    // A value beyond the cached beta must refuse the append (without
    // writing) — a fresh re-encode would pick a larger beta, so the
    // owner has to requantize. Ideal-mode encodings pin beta = 1 and
    // never refuse.
    DptcConfig cfg;
    cfg.input_bits = 8;
    Dptc dptc(cfg);
    Rng rng(0xC55);
    Matrix k_t = randomMatrix(6, 4, rng); // values in [-1, 1]
    EncodedOperand op =
        dptc.encode(k_t, OperandSide::B, EvalMode::Noisy);
    const double beta_before = op.beta();
    const size_t cols_before = op.cols();

    std::vector<double> big(6, 0.0);
    big[2] = 5.0; // beyond any [-1, 1] beta
    EXPECT_FALSE(op.appendColumn(big.data(), 6));
    EXPECT_EQ(op.cols(), cols_before);
    EXPECT_EQ(op.beta(), beta_before);

    EncodedOperand ideal =
        dptc.encode(k_t, OperandSide::B, EvalMode::Ideal);
    EXPECT_TRUE(ideal.appendColumn(big.data(), 6));
    EXPECT_EQ(ideal.cols(), cols_before + 1);
}

// ---- Eq. 6 encoding-cost algebra -------------------------------------

TEST(EncodeCost, PaperExampleTwelveCubed)
{
    // "when Nh = Nv = Nlambda = 12, DPTC shows 12x less encoding cost"
    EXPECT_EQ(sharedEncodingOps(12, 12, 12), 288u);
    EXPECT_EQ(unsharedEncodingOps(12, 12, 12), 3456u);
    EXPECT_DOUBLE_EQ(sharingFactor(12, 12), 12.0);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(unsharedEncodingOps(12, 12, 12)) /
            static_cast<double>(sharedEncodingOps(12, 12, 12)),
        12.0);
}

class EncodeCostProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>>
{
};

TEST_P(EncodeCostProperty, FactorConsistency)
{
    auto [nh, nv, nl] = GetParam();
    double ratio = static_cast<double>(unsharedEncodingOps(nh, nv, nl)) /
                   static_cast<double>(sharedEncodingOps(nh, nv, nl));
    EXPECT_NEAR(ratio, sharingFactor(nh, nv), 1e-12);
    // Sharing can never lose (factor >= 1 whenever nh, nv >= 1).
    EXPECT_GE(sharingFactor(nh, nv), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, EncodeCostProperty,
    ::testing::Values(std::make_tuple(8, 8, 8),
                      std::make_tuple(12, 12, 12),
                      std::make_tuple(16, 8, 12),
                      std::make_tuple(1, 12, 12),
                      std::make_tuple(32, 32, 32),
                      std::make_tuple(2, 3, 5)));

// ---- Table I capability descriptors -----------------------------------

TEST(TableOne, OnlyDptcSupportsBothDynamicAndFullRangeMm)
{
    auto designs = tableOnePtcDesigns();
    ASSERT_EQ(designs.size(), 5u);
    int both = 0;
    for (const auto &d : designs) {
        if (d.supportsDynamicMm() && d.supportsFullRangeMm()) {
            ++both;
            EXPECT_EQ(d.name, "DPTC (ours)");
            EXPECT_EQ(d.operation, OperationType::MM);
            EXPECT_EQ(d.mapping_cost, MappingCost::Low);
        }
    }
    EXPECT_EQ(both, 1);
}

TEST(TableOne, MziIsStaticFullRange)
{
    auto designs = tableOnePtcDesigns();
    const auto &mzi = designs[0];
    EXPECT_EQ(mzi.name, "MZI array");
    EXPECT_FALSE(mzi.supportsDynamicMm());
    EXPECT_TRUE(mzi.supportsFullRangeMm());
    EXPECT_EQ(mzi.mapping_cost, MappingCost::High);
}

TEST(TableOne, MrrBanksAreDynamicButRangeLimited)
{
    auto designs = tableOnePtcDesigns();
    for (size_t i : {size_t{2}, size_t{3}}) {
        EXPECT_TRUE(designs[i].supportsDynamicMm());
        EXPECT_FALSE(designs[i].supportsFullRangeMm());
    }
}

} // namespace
