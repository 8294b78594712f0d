/**
 * @file
 * Tests for the parallel tiled execution engine: thread-count
 * determinism of the noisy GEMM path (the acceptance criterion of the
 * multi-core refactor), blocked-matmul correctness, batched execution
 * equivalence, batched model forwards, and concurrent GemmStats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <mutex>
#include <tuple>
#include <vector>

#include "core/dptc.hh"
#include "nn/execution_engine.hh"
#include "nn/gemm_backend.hh"
#include "nn/sparse_attention.hh"
#include "nn/transformer.hh"
#include "util/linalg.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace {

using namespace lt;

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (double &v : m.data())
        v = rng.uniform(-scale, scale);
    return m;
}

/** The pre-refactor triple loop, kept here as the reference. */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols(), 0.0);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t k = 0; k < a.cols(); ++k)
            for (size_t c = 0; c < b.cols(); ++c)
                out(r, c) += a(r, k) * b(k, c);
    return out;
}

// ---- thread-count determinism ----------------------------------------

TEST(ExecutionEngine, NoisyGemmBitIdenticalAcrossThreadCounts)
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.seed = 0xD15EA5E;
    Rng rng(42);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    std::vector<Matrix> results;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        results.push_back(engine.gemm(a, b));
    }
    EXPECT_EQ(results[0].maxAbsDiff(results[1]), 0.0);
    EXPECT_EQ(results[0].maxAbsDiff(results[2]), 0.0);
    ThreadPool::setGlobalThreads(0);
}

TEST(ExecutionEngine, FastSamplerBitIdenticalAcrossThreadCounts)
{
    // The Fast (Ziggurat) sampler rides the same counter-seeded tile
    // scheme, so its results must also be invariant to how many
    // threads shard the tiles.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.noise.sampler = core::NoiseSampler::Fast;
    Rng rng(43);
    Matrix a = randomMatrix(50, 40, rng);
    Matrix b = randomMatrix(40, 30, rng);

    std::vector<Matrix> results;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        results.push_back(engine.gemm(a, b, /*stream=*/17));
    }
    EXPECT_EQ(results[0].maxAbsDiff(results[1]), 0.0);
    EXPECT_EQ(results[0].maxAbsDiff(results[2]), 0.0);
    ThreadPool::setGlobalThreads(0);
}

TEST(ExecutionEngine, GaussianDrawCounterExactInStats)
{
    // The engine must fold the per-shard counts into
    // GemmStats::gaussian_draws losslessly, at any thread count, for
    // both samplers. Encoding noise off + systematic on: the kernels
    // take exactly one eps draw per (output element, k-slice).
    // Encoding noise on, with some operand entries exactly 0: per
    // (output, k-slice), one magnitude draw per nonzero quantized x
    // and y element (a zero std draws nothing), one phase draw per
    // wavelength of the slice, and the systematic draw.
    for (core::NoiseSampler sampler :
         {core::NoiseSampler::BitExact, core::NoiseSampler::Fast}) {
        for (bool encoding : {false, true}) {
            core::DptcConfig dcfg;
            dcfg.input_bits = 8;
            dcfg.noise.enable_encoding_noise = encoding;
            dcfg.noise.sampler = sampler;
            Rng rng(19);
            Matrix a = randomMatrix(40, 30, rng);
            Matrix b = randomMatrix(30, 26, rng);
            auto cdiv = [](size_t x, size_t y) { return (x + y - 1) / y; };
            size_t expected =
                a.rows() * b.cols() * cdiv(a.cols(), dcfg.nlambda);
            if (encoding) {
                for (size_t r = 0; r < a.rows(); ++r)
                    for (size_t k = 0; k < a.cols(); ++k)
                        if ((r + 2 * k) % 7 == 0)
                            a(r, k) = 0.0;
                for (size_t k = 0; k < b.rows(); ++k)
                    for (size_t c = 0; c < b.cols(); ++c)
                        if ((3 * k + c) % 5 == 0)
                            b(k, c) = 0.0;
                const Matrix qa = core::Dptc::normalizeQuantize(
                    a, core::Dptc::maxAbs(a), dcfg.input_bits);
                const Matrix qb = core::Dptc::normalizeQuantize(
                    b, core::Dptc::maxAbs(b), dcfg.input_bits);
                expected = 0;
                for (size_t r = 0; r < a.rows(); ++r)
                    for (size_t c = 0; c < b.cols(); ++c)
                        for (size_t k0 = 0; k0 < a.cols();
                             k0 += dcfg.nlambda) {
                            const size_t k1 =
                                std::min(a.cols(), k0 + dcfg.nlambda);
                            for (size_t k = k0; k < k1; ++k)
                                expected += (qa(r, k) != 0.0) +
                                            (qb(k, c) != 0.0);
                            expected += (k1 - k0) + 1;
                        }
            }
            for (size_t threads : {1u, 4u}) {
                ThreadPool::setGlobalThreads(threads);
                nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
                engine.gemm(a, b);
                EXPECT_EQ(engine.stats().gaussian_draws.load(), expected)
                    << "encoding " << encoding << " threads " << threads;
                engine.resetStats();
                EXPECT_EQ(engine.stats().gaussian_draws.load(), 0u);
            }
            ThreadPool::setGlobalThreads(0);
        }
    }
}

TEST(ExecutionEngine, DptcGemmIsAPureFunction)
{
    // The sequential tiled path: noise depends only on (operands,
    // config, stream), so the const Dptc::gemm is replayable.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    Rng rng(7);
    Matrix a = randomMatrix(29, 37, rng);
    Matrix b = randomMatrix(37, 23, rng);

    core::Dptc dptc(dcfg);
    Matrix first = dptc.gemm(a, b, core::EvalMode::Noisy);
    Matrix second = dptc.gemm(a, b, core::EvalMode::Noisy);
    EXPECT_EQ(first.maxAbsDiff(second), 0.0);
}

TEST(ExecutionEngine, FreshEnginesReplayIdenticalCallSequences)
{
    // Stream ids are consumed in call order, so two engines with the
    // same config produce the same sequence of noisy results.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    Rng rng(8);
    Matrix a = randomMatrix(29, 37, rng);
    Matrix b = randomMatrix(37, 23, rng);

    nn::ExecutionEngine first(dcfg, core::EvalMode::Noisy);
    nn::ExecutionEngine second(dcfg, core::EvalMode::Noisy);
    for (int call = 0; call < 3; ++call)
        EXPECT_EQ(first.gemm(a, b).maxAbsDiff(second.gemm(a, b)), 0.0)
            << "call " << call;
}

TEST(ExecutionEngine, RepeatedCallsDrawFreshNoise)
{
    // Each call consumes a new stream id: noise must NOT be a frozen
    // pattern replayed for every same-shaped GEMM (that would bias
    // the accuracy-vs-noise methodology across heads and samples).
    core::DptcConfig dcfg;
    Rng rng(11);
    Matrix a = randomMatrix(13, 14, rng);
    Matrix b = randomMatrix(14, 15, rng);
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    Matrix first = engine.gemm(a, b);
    Matrix second = engine.gemm(a, b);
    EXPECT_GT(first.maxAbsDiff(second), 0.0);
}

TEST(ExecutionEngine, IdealModeMatchesReference)
{
    core::DptcConfig dcfg;
    dcfg.noise = core::NoiseConfig::ideal();
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Ideal);
    Rng rng(5);
    Matrix a = randomMatrix(30, 26, rng);
    Matrix b = randomMatrix(26, 18, rng);
    EXPECT_LT(engine.gemm(a, b).maxAbsDiff(naiveMatmul(a, b)), 1e-10);
}

// ---- batched execution ------------------------------------------------

TEST(ExecutionEngine, GemmBatchMatchesPerProductGemm)
{
    core::DptcConfig dcfg;
    Rng rng(21);
    std::vector<Matrix> as, bs;
    for (int i = 0; i < 10; ++i) {
        as.push_back(randomMatrix(17, 13, rng));
        bs.push_back(randomMatrix(13, 9, rng));
    }
    std::vector<std::pair<const Matrix *, const Matrix *>> products;
    for (size_t i = 0; i < as.size(); ++i)
        products.emplace_back(&as[i], &bs[i]);

    // Same call history on two fresh engines: one batch call vs the
    // same products issued per-call, in order — stream ids line up.
    nn::ExecutionEngine batch_engine(dcfg, core::EvalMode::Noisy);
    nn::ExecutionEngine seq_engine(dcfg, core::EvalMode::Noisy);
    std::vector<Matrix> batched = batch_engine.gemmBatch(products);
    ASSERT_EQ(batched.size(), products.size());
    for (size_t i = 0; i < products.size(); ++i)
        EXPECT_EQ(
            batched[i].maxAbsDiff(seq_engine.gemm(as[i], bs[i])), 0.0)
            << "product " << i;

    // Stream-addressed dispatches: a call's (product, output tile)
    // units shard across the replicas as one range, so shard
    // boundaries fall inside products. Products of 1 to 9 output
    // tiles (m 1..25, n 5..27, k 10..13 — one or two wavelength
    // slices), batches smaller than, equal to and larger than the
    // replica count, dense / view / pre-encoded right operands and a
    // stacked-row call must all give the per-product stream-addressed
    // gemm's bits, at every replica and thread count.
    const size_t kProducts = 11;
    std::vector<Matrix> xs, ys, a_wide, y_t;
    for (size_t i = 0; i < kProducts; ++i) {
        const size_t m = 1 + 6 * (i % 5);
        const size_t k = 10 + i % 4;
        const size_t n = 5 + 11 * (i % 3);
        a_wide.push_back(randomMatrix(m, k + 3, rng));
        xs.push_back(a_wide.back().colsView(2, k).dense());
        ys.push_back(randomMatrix(k, n, rng));
        y_t.push_back(ys.back().transposed());
    }
    const Matrix w = randomMatrix(13, 27, rng);
    std::vector<Matrix> rows;
    for (size_t i = 0; i < kProducts; ++i)
        rows.push_back(randomMatrix(1, 13, rng));
    auto streamOf = [](size_t i) { return uint64_t{100 + 3 * i}; };

    nn::ExecutionEngine ref(dcfg, core::EvalMode::Noisy);
    std::vector<Matrix> want, want_rows;
    std::vector<core::EncodedOperand> plans;
    for (size_t i = 0; i < kProducts; ++i) {
        want.push_back(ref.gemm(xs[i], ys[i], streamOf(i)));
        want_rows.push_back(ref.gemm(rows[i], w, streamOf(i)));
        plans.push_back(ref.encodeWeight(ys[i]));
    }
    const core::EncodedOperand w_plan = ref.encodeWeight(w);

    std::vector<uint64_t> draws;
    for (size_t threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        for (size_t cores : {1u, 3u, 8u}) {
            nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy, cores);
            for (size_t n : {2u, 3u, 8u, 11u}) {
                std::vector<uint64_t> streams;
                std::vector<std::pair<const Matrix *, const Matrix *>>
                    dense;
                std::vector<std::pair<ConstMatrixView, ConstMatrixView>>
                    views;
                std::vector<std::pair<ConstMatrixView,
                                      const core::EncodedOperand *>>
                    encoded;
                for (size_t i = 0; i < n; ++i) {
                    streams.push_back(streamOf(i));
                    dense.emplace_back(&xs[i], &ys[i]);
                    views.emplace_back(
                        a_wide[i].colsView(2, xs[i].cols()),
                        y_t[i].transposedView());
                    encoded.emplace_back(xs[i].view(), &plans[i]);
                }
                const std::vector<Matrix> got[] = {
                    engine.gemmBatch(dense, streams),
                    engine.gemmBatch(views, streams),
                    engine.gemmBatch(encoded, streams),
                };
                for (size_t kind = 0; kind < 3; ++kind) {
                    ASSERT_EQ(got[kind].size(), n);
                    for (size_t i = 0; i < n; ++i)
                        EXPECT_EQ(got[kind][i].maxAbsDiff(want[i]), 0.0)
                            << "threads " << threads << " cores "
                            << cores << " batch " << n << " operand kind "
                            << kind << " product " << i;
                }
            }
            std::vector<ConstMatrixView> row_views;
            std::vector<uint64_t> streams;
            for (size_t i = 0; i < kProducts; ++i) {
                row_views.push_back(rows[i].view());
                streams.push_back(streamOf(i));
            }
            const std::vector<Matrix> stacked =
                engine.gemmRowStacked(row_views, w_plan, streams);
            ASSERT_EQ(stacked.size(), kProducts);
            for (size_t i = 0; i < kProducts; ++i)
                EXPECT_EQ(stacked[i].maxAbsDiff(want_rows[i]), 0.0)
                    << "threads " << threads << " cores " << cores
                    << " stacked row " << i;
            draws.push_back(engine.stats().gaussian_draws.load());
        }
    }
    ThreadPool::setGlobalThreads(0);
    ASSERT_GT(draws.front(), 0u);
    for (size_t c = 1; c < draws.size(); ++c)
        EXPECT_EQ(draws[c], draws.front()) << "configuration " << c;
}

TEST(ExecutionEngine, StreamAddressedGemmIsHistoryIndependent)
{
    // Explicit-stream products are pure functions of (operands,
    // config, stream): unrelated traffic before/around them must not
    // change the result — the property that lets concurrent requests
    // share one engine.
    core::DptcConfig dcfg;
    Rng rng(23);
    Matrix a = randomMatrix(15, 18, rng);
    Matrix b = randomMatrix(18, 11, rng);

    nn::ExecutionEngine fresh(dcfg, core::EvalMode::Noisy);
    Matrix expected = fresh.gemm(a, b, /*stream=*/42);

    nn::ExecutionEngine busy(dcfg, core::EvalMode::Noisy);
    for (int i = 0; i < 5; ++i)
        busy.gemm(a, b); // unrelated internal-counter traffic
    EXPECT_EQ(busy.gemm(a, b, 42).maxAbsDiff(expected), 0.0);
    // ...and distinct streams draw distinct noise.
    EXPECT_GT(busy.gemm(a, b, 43).maxAbsDiff(expected), 0.0);
}

// ---- blocked matmul ---------------------------------------------------

TEST(Matmul, BlockedMatchesNaiveOnRectangularShapes)
{
    Rng rng(31);
    const std::vector<std::tuple<size_t, size_t, size_t>> shapes = {
        {1, 1, 1},    {3, 5, 7},     {64, 64, 64}, {65, 63, 61},
        {1, 200, 1},  {128, 1, 128}, {37, 129, 18}, {200, 150, 100},
    };
    for (auto [m, k, n] : shapes) {
        Matrix a = randomMatrix(m, k, rng, 2.0);
        Matrix b = randomMatrix(k, n, rng, 2.0);
        Matrix blocked = matmul(a, b);
        Matrix naive = naiveMatmul(a, b);
        EXPECT_LT(blocked.maxAbsDiff(naive),
                  1e-12 * static_cast<double>(k))
            << m << "x" << k << "x" << n;
    }
}

TEST(Matmul, DeterministicAcrossThreadCounts)
{
    Rng rng(33);
    Matrix a = randomMatrix(150, 120, rng);
    Matrix b = randomMatrix(120, 90, rng);
    std::vector<Matrix> results;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        results.push_back(matmul(a, b));
    }
    EXPECT_EQ(results[0].maxAbsDiff(results[1]), 0.0);
    EXPECT_EQ(results[0].maxAbsDiff(results[2]), 0.0);
    ThreadPool::setGlobalThreads(0);
}

TEST(Matmul, ShapeMismatchFatal)
{
    Matrix a(4, 5), b(6, 4);
    EXPECT_EXIT({ matmul(a, b); }, ::testing::KilledBySignal(SIGABRT),
                "mismatch");
}

// ---- encoded weight operands (WeightPlans) ---------------------------

TEST(EncodedWeights, EngineGoldenStreamAddressed)
{
    // Pinned against the pre-rewrite engine (per-call encode +
    // gather-based kernel): the stream-addressed noisy result of the
    // encoded path must stay bit-exact across the refactor.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.seed = 0xABCDEF;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    Rng ra(303), rb(404);
    Matrix a = randomMatrix(5, 30, ra);
    Matrix b = randomMatrix(30, 9, rb);
    Matrix out = engine.gemm(a, b, 7);
    double sum = 0.0;
    for (double v : out.data())
        sum += v;
    EXPECT_EQ(sum, 0x1.c40b3f24be5fap+3);
    EXPECT_EQ(out(0, 0), 0x1.34aeadf49ee53p+0);
    EXPECT_EQ(out(4, 8), 0x1.1a8b37480b9c5p+1);
    EXPECT_EQ(out(2, 4), 0x1.5a03914a23239p+0);
}

TEST(EncodedWeights, EngineGoldenDecodeShape)
{
    // The decode-regime configuration of bench_engine_scaling:
    // systematic + dispersion noise, m = 1.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.noise.enable_encoding_noise = false;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    Rng ra(505), rb(606);
    Matrix a = randomMatrix(1, 40, ra);
    Matrix b = randomMatrix(40, 7, rb);
    Matrix out = engine.gemm(a, b, 3);
    double sum = 0.0;
    for (double v : out.data())
        sum += v;
    EXPECT_EQ(sum, -0x1.3549fb36559e7p+2);
    EXPECT_EQ(out(0, 0), -0x1.ac7ae72f453c9p+1);
    EXPECT_EQ(out(0, 6), -0x1.2e16443cf5fe4p+1);
    EXPECT_EQ(out(0, 3), -0x1.102618e950f6cp-2);
}

TEST(EncodedWeights, PlanGemmMatchesDenseAcrossThreadCounts)
{
    // A pre-encoded weight must execute bit-identically to the dense
    // operand — same stream, any thread count, single and batched.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    Rng rng(91);
    Matrix w = randomMatrix(40, 24, rng);
    std::vector<Matrix> as;
    for (int i = 0; i < 3; ++i)
        as.push_back(randomMatrix(7, 40, rng));

    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        core::EncodedOperand plan = engine.encodeWeight(w);

        EXPECT_EQ(engine.gemm(as[0], plan, 5)
                      .maxAbsDiff(engine.gemm(as[0], w, 5)),
                  0.0);

        std::vector<std::pair<const Matrix *,
                              const core::EncodedOperand *>>
            planned;
        std::vector<std::pair<const Matrix *, const Matrix *>> dense;
        std::vector<uint64_t> streams;
        for (size_t i = 0; i < as.size(); ++i) {
            planned.emplace_back(&as[i], &plan);
            dense.emplace_back(&as[i], &w);
            streams.push_back(100 + i);
        }
        std::vector<Matrix> ys_plan =
            engine.gemmBatch(planned, streams);
        std::vector<Matrix> ys_dense =
            engine.gemmBatch(dense, streams);
        for (size_t i = 0; i < as.size(); ++i)
            EXPECT_EQ(ys_plan[i].maxAbsDiff(ys_dense[i]), 0.0)
                << "threads " << threads << " product " << i;
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(EncodedWeights, CountersTrackHitsAndMisses)
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    Rng rng(92);
    Matrix w = randomMatrix(12, 12, rng);
    Matrix x = randomMatrix(1, 12, rng);

    engine.resetStats();
    core::EncodedOperand plan = engine.encodeWeight(w);
    EXPECT_EQ(engine.stats().weight_encode_misses.load(), 1u);
    EXPECT_EQ(engine.stats().weight_encode_hits.load(), 0u);
    for (uint64_t s = 0; s < 3; ++s)
        engine.gemm(x, plan, s);
    EXPECT_EQ(engine.stats().weight_encode_hits.load(), 3u);
    // Dense calls tick neither counter.
    engine.gemm(x, w, 9);
    EXPECT_EQ(engine.stats().weight_encode_misses.load(), 1u);
    EXPECT_EQ(engine.stats().weight_encode_hits.load(), 3u);
}

TEST(WeightPlanCache, InferenceForwardUsesPlansBitIdentically)
{
    // Linear::forward under an inference context serves the weight
    // from its plan cache; a plans-disabled engine with the same
    // config must produce bit-identical outputs via the re-encode
    // path — and only the plans-enabled engine may tick the cache
    // counters.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::EngineConfig on_cfg{dcfg, core::EvalMode::Noisy, 8, true};
    nn::EngineConfig off_cfg{dcfg, core::EvalMode::Noisy, 8, false};
    nn::ExecutionEngine e_on(on_cfg), e_off(off_cfg);
    EXPECT_TRUE(e_on.supportsWeightPlans());
    EXPECT_FALSE(e_off.supportsWeightPlans());

    Rng rng(93);
    nn::Linear lin(20, 12, rng);
    Matrix x = randomMatrix(3, 20, rng);

    nn::LinearCache scratch;
    for (int call = 0; call < 3; ++call) {
        nn::RunContext on_ctx{&e_on, nn::QuantConfig::w8a8(),
                              nn::NoiseStream(44), true};
        nn::RunContext off_ctx{&e_off, nn::QuantConfig::w8a8(),
                               nn::NoiseStream(44), true};
        Matrix y_on = lin.forward(x, scratch, on_ctx);
        Matrix y_off = lin.forward(x, scratch, off_ctx);
        EXPECT_EQ(y_on.maxAbsDiff(y_off), 0.0) << "call " << call;
    }
    EXPECT_EQ(e_on.stats().weight_encode_misses.load(), 1u);
    EXPECT_EQ(e_on.stats().weight_encode_hits.load(), 3u);
    EXPECT_EQ(e_off.stats().weight_encode_misses.load(), 0u);
    EXPECT_EQ(e_off.stats().weight_encode_hits.load(), 0u);
}

TEST(WeightPlanCache, WeightUpdateInvalidatesStalePlan)
{
    // Mutating the weight (via the accessor or visitParams — the
    // optimizer path) bumps the version: the next inference forward
    // re-encodes instead of serving the stale plan, and its output
    // equals the plans-off path over the NEW weights.
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::EngineConfig off_cfg{dcfg, core::EvalMode::Noisy, 8, false};
    nn::ExecutionEngine e_on(dcfg, core::EvalMode::Noisy);
    nn::ExecutionEngine e_off(off_cfg);

    Rng rng(94);
    nn::Linear lin(16, 10, rng);
    Matrix x = randomMatrix(2, 16, rng);
    nn::LinearCache scratch;

    auto forwardOn = [&] {
        nn::RunContext ctx{&e_on, nn::QuantConfig::w8a8(),
                           nn::NoiseStream(45), true};
        return lin.forward(x, scratch, ctx);
    };
    auto forwardOff = [&] {
        nn::RunContext ctx{&e_off, nn::QuantConfig::w8a8(),
                           nn::NoiseStream(45), true};
        return lin.forward(x, scratch, ctx);
    };

    Matrix before = forwardOn();
    EXPECT_EQ(e_on.stats().weight_encode_misses.load(), 1u);
    const uint64_t v0 = lin.weightVersion();

    // Update through the accessor (bumps the version)…
    lin.weight()(0, 0) += 0.75;
    EXPECT_GT(lin.weightVersion(), v0);
    Matrix after = forwardOn();
    EXPECT_EQ(e_on.stats().weight_encode_misses.load(), 2u);
    EXPECT_GT(after.maxAbsDiff(before), 0.0);
    EXPECT_EQ(after.maxAbsDiff(forwardOff()), 0.0);

    // …and through visitParams (the Trainer's optimizer route).
    const uint64_t v1 = lin.weightVersion();
    lin.visitParams([](Matrix &w, Matrix &) { w(0, 1) -= 0.5; });
    EXPECT_GT(lin.weightVersion(), v1);
    Matrix stepped = forwardOn();
    EXPECT_EQ(e_on.stats().weight_encode_misses.load(), 3u);
    EXPECT_EQ(stepped.maxAbsDiff(forwardOff()), 0.0);
}

// ---- batched model forward -------------------------------------------

/**
 * The sequential per-sample reference the batch entry points promise
 * to match bit-exactly: sample i runs alone with a fresh workspace on
 * NoiseStream lane i of a base stream consumed from the context.
 */
std::vector<Matrix>
sequentialVisionReference(const nn::TransformerClassifier &model,
                          const std::vector<Matrix> &batch,
                          nn::GemmBackend &backend,
                          const nn::QuantConfig &quant)
{
    nn::RunContext ctx{&backend, quant};
    nn::NoiseStream lanes(ctx.stream.next());
    std::vector<Matrix> logits;
    logits.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        nn::ActivationWorkspace ws;
        nn::RunContext sample_ctx{&backend, quant, lanes.lane(i)};
        logits.push_back(
            model.forwardVision(batch[i], ws, sample_ctx));
    }
    return logits;
}

TEST(ForwardBatch, VisionLogitsMatchSequentialReference)
{
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.num_classes = 4;
    cfg.max_tokens = 9;
    cfg.patch_dim = 12;
    nn::TransformerClassifier model(cfg);

    Rng rng(55);
    std::vector<Matrix> batch;
    for (int i = 0; i < 8; ++i)
        batch.push_back(randomMatrix(8, 12, rng));

    // Ideal backend: streams are ignored, so batch == per-sample.
    nn::IdealBackend ideal;
    nn::RunContext ctx{&ideal, nn::QuantConfig::disabled()};
    std::vector<Matrix> batched = model.forwardVisionBatch(batch, ctx);
    ASSERT_EQ(batched.size(), batch.size());
    std::vector<Matrix> reference = sequentialVisionReference(
        model, batch, ideal, nn::QuantConfig::disabled());
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batched[i].maxAbsDiff(reference[i]), 0.0)
            << "sample " << i;

    // Noisy engine: every sample's noise is addressed by its stream
    // lane, not by engine call history — the concurrent batch matches
    // the sequential per-sample reference bit-exactly.
    core::DptcConfig dcfg;
    nn::ExecutionEngine batch_engine(dcfg, core::EvalMode::Noisy);
    nn::RunContext batch_ctx{&batch_engine, nn::QuantConfig::w8a8()};
    std::vector<Matrix> noisy_batched =
        model.forwardVisionBatch(batch, batch_ctx);
    nn::ExecutionEngine seq_engine(dcfg, core::EvalMode::Noisy);
    std::vector<Matrix> noisy_reference = sequentialVisionReference(
        model, batch, seq_engine, nn::QuantConfig::w8a8());
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(noisy_batched[i].maxAbsDiff(noisy_reference[i]), 0.0)
            << "sample " << i;
}

TEST(ForwardBatch, BitIdenticalAcrossThreadCounts)
{
    // The acceptance bar of the workspace refactor: 8 samples through
    // the noisy engine, identical logits at 1/2/8 threads.
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.num_classes = 4;
    cfg.max_tokens = 9;
    cfg.patch_dim = 12;
    nn::TransformerClassifier model(cfg);

    Rng rng(56);
    std::vector<Matrix> batch;
    for (int i = 0; i < 8; ++i)
        batch.push_back(randomMatrix(8, 12, rng));

    core::DptcConfig dcfg;
    std::vector<std::vector<Matrix>> runs;
    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        nn::RunContext ctx{&engine, nn::QuantConfig::w8a8()};
        runs.push_back(model.forwardVisionBatch(batch, ctx));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(runs[0][i].maxAbsDiff(runs[1][i]), 0.0) << i;
        EXPECT_EQ(runs[0][i].maxAbsDiff(runs[2][i]), 0.0) << i;
    }
    ThreadPool::setGlobalThreads(0);
}

/**
 * Pool-utilization probe: a backend whose gemm() briefly waits for a
 * second concurrent gemm before proceeding. If the batch entry point
 * really runs samples concurrently (distinct workspaces on distinct
 * workers), two samples' GEMMs overlap almost immediately and the
 * high-water mark reaches >= 2; a sequential implementation can never
 * overlap and every wait times out (bounded, so the test still
 * finishes — and then fails the assertion).
 */
class ConcurrencyProbeBackend : public nn::GemmBackend
{
  public:
    using nn::GemmBackend::gemm;

    Matrix
    gemm(const Matrix &a, const Matrix &b) override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++in_flight_;
            max_in_flight_ = std::max(max_in_flight_, in_flight_);
            cv_.notify_all();
            if (max_in_flight_ < 2 && waits_ < 8) {
                ++waits_;
                cv_.wait_for(lock, std::chrono::milliseconds(500),
                             [&] { return in_flight_ >= 2; });
                max_in_flight_ = std::max(max_in_flight_, in_flight_);
            }
        }
        Matrix out = matmul(a, b);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
        }
        cv_.notify_all();
        return out;
    }

    int
    maxInFlight()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return max_in_flight_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int in_flight_ = 0;
    int max_in_flight_ = 0;
    int waits_ = 0;
};

TEST(ForwardBatch, RunsSamplesConcurrentlyOnThePool)
{
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.num_classes = 4;
    cfg.max_tokens = 9;
    cfg.patch_dim = 12;
    nn::TransformerClassifier model(cfg);

    Rng rng(57);
    std::vector<Matrix> batch;
    for (int i = 0; i < 8; ++i)
        batch.push_back(randomMatrix(8, 12, rng));

    ThreadPool::setGlobalThreads(8); // >= 4 workers
    ConcurrencyProbeBackend probe;
    nn::RunContext ctx{&probe, nn::QuantConfig::disabled()};
    std::vector<Matrix> logits = model.forwardVisionBatch(batch, ctx);
    ASSERT_EQ(logits.size(), batch.size());
    EXPECT_GE(probe.maxInFlight(), 2)
        << "forwardVisionBatch streamed samples sequentially";
    ThreadPool::setGlobalThreads(0);
}

TEST(ForwardBatch, SequenceLogitsMatchPerSampleCalls)
{
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.num_classes = 3;
    cfg.max_tokens = 9;
    cfg.vocab_size = 20;
    nn::TransformerClassifier model(cfg);

    std::vector<std::vector<int>> batch = {
        {1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12, 13, 14}};
    nn::IdealBackend ideal;
    nn::RunContext ctx{&ideal, nn::QuantConfig::disabled()};
    std::vector<Matrix> batched =
        model.forwardSequenceBatch(batch, ctx);
    ASSERT_EQ(batched.size(), batch.size());
    nn::ActivationWorkspace ws;
    nn::RunContext ref_ctx{&ideal, nn::QuantConfig::disabled()};
    for (size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batched[i].maxAbsDiff(
                      model.forwardSequence(batch[i], ws, ref_ctx)),
                  0.0)
            << "sample " << i;
}

// ---- sparse attention on the pool / engine ----------------------------

TEST(SparseAttention, ParallelBlockedMatchesDenseAtAnyThreadCount)
{
    // The dense reference's AV product rides the blocked matmul (whose
    // multi-accumulator kernel reorders the sum by ~1 ulp), so the
    // contract is the seed's 1e-12 — and the parallel chunk loop must
    // itself be deterministic: identical output at every thread count.
    Rng rng(71);
    nn::WindowAttentionConfig cfg{32, 7, 4, 8};
    Matrix q = randomMatrix(32, 8, rng);
    Matrix k = randomMatrix(32, 8, rng);
    Matrix v = randomMatrix(32, 8, rng);
    Matrix dense = nn::windowAttentionDense(q, k, v, cfg);
    Matrix first;
    for (size_t threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        Matrix blocked = nn::windowAttentionBlocked(q, k, v, cfg);
        EXPECT_LT(blocked.maxAbsDiff(dense), 1e-12)
            << threads << " threads";
        if (threads == 1)
            first = blocked;
        else
            EXPECT_EQ(blocked.maxAbsDiff(first), 0.0)
                << threads << " threads";
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(SparseAttention, BackendRoutedBlockedTracksDense)
{
    Rng rng(72);
    nn::WindowAttentionConfig cfg{24, 5, 4, 8};
    Matrix q = randomMatrix(24, 8, rng, 0.5);
    Matrix k = randomMatrix(24, 8, rng, 0.5);
    Matrix v = randomMatrix(24, 8, rng, 0.5);
    Matrix dense = nn::windowAttentionDense(q, k, v, cfg);

    // Ideal engine: the chunked GEMM list reproduces dense attention
    // up to tiling round-off.
    core::DptcConfig dcfg;
    dcfg.noise = core::NoiseConfig::ideal();
    nn::ExecutionEngine ideal_engine(dcfg, core::EvalMode::Ideal);
    Matrix on_ideal =
        nn::windowAttentionBlocked(q, k, v, cfg, &ideal_engine);
    EXPECT_LT(on_ideal.maxAbsDiff(dense), 1e-10);

    // Noisy engine: executes and stays in the right neighbourhood.
    nn::ExecutionEngine noisy_engine(core::DptcConfig{},
                                     core::EvalMode::Noisy);
    Matrix on_noisy =
        nn::windowAttentionBlocked(q, k, v, cfg, &noisy_engine);
    EXPECT_LT(on_noisy.maxAbsDiff(dense), 0.5);
    EXPECT_GT(noisy_engine.stats().calls.load(), 0u);
}

// ---- stats under concurrency ------------------------------------------

TEST(GemmStats, ConcurrentRecordLosesNothing)
{
    nn::GemmStats stats;
    constexpr size_t kRecords = 10000;
    ThreadPool::setGlobalThreads(8);
    ThreadPool::global().parallelForEach(
        kRecords, [&](size_t) { stats.record(2, 3, 4); });
    EXPECT_EQ(stats.calls.load(), kRecords);
    EXPECT_EQ(stats.macs.load(), kRecords * 24u);
    ThreadPool::setGlobalThreads(0);
}

// ---- thread pool ------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool::setGlobalThreads(4);
    std::vector<std::atomic<int>> hits(1000);
    ThreadPool::global().parallelForEach(
        hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
    ThreadPool::setGlobalThreads(0);
}

TEST(ThreadPool, ShardBoundariesIndependentOfThreadCount)
{
    // The same (n, numShards) split regardless of pool size.
    for (size_t threads : {1u, 3u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<size_t> owner(100, SIZE_MAX);
        ThreadPool::global().parallelFor(
            owner.size(),
            [&](size_t begin, size_t end, size_t shard) {
                for (size_t i = begin; i < end; ++i)
                    owner[i] = shard;
            },
            4);
        // 100 over 4 shards -> 25 each, contiguous.
        for (size_t i = 0; i < owner.size(); ++i)
            EXPECT_EQ(owner[i], i / 25) << i;
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool::setGlobalThreads(4);
    std::atomic<size_t> total{0};
    ThreadPool::global().parallelForEach(8, [&](size_t) {
        ThreadPool::global().parallelForEach(
            8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64u);
    ThreadPool::setGlobalThreads(0);
}

} // namespace
