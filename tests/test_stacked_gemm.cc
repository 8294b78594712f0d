/**
 * @file
 * Property tests for the stacked-row dispatch
 * (GemmBackend::gemmRowStacked, which the serve decode path rides
 * on).
 *
 * The contract under test: handing N requests' [1, k] rows to ONE
 * engine dispatch against a shared pre-encoded weight returns, for
 * every row i, EXACTLY the bits of the solo stream-addressed product
 * gemm(rows[i], w, streams[i]) — each row runs as its own solo
 * product, so the fusion is invisible to results. Asserted across
 * core counts, batch sizes, every evaluation mode, both noise
 * samplers, the fault-armed (checked) path, a k that leaves a partial
 * wavelength slice, and degenerate rows (all-zero).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/execution_engine.hh"
#include "util/rng.hh"

namespace {

using namespace lt;

core::DptcConfig
dptcConfig(core::NoiseSampler sampler)
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.noise.sampler = sampler;
    return dcfg;
}

Matrix
randomMatrix(size_t r, size_t c, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    for (double &v : m.data())
        v = rng.uniform(-1.0, 1.0);
    return m;
}

} // namespace

TEST(StackedGemm, MatchesPerRowStreamAddressedGemmBitwise)
{
    // Every branch of the stacked dispatch: each evaluation mode, both
    // noise samplers, and the fault-armed (checked) path; k = 24 fills
    // the 12-wavelength slices exactly, k = 25 leaves a 1-deep tail.
    struct Case
    {
        const char *name;
        core::EvalMode mode;
        core::NoiseSampler sampler;
        bool verify;
    };
    const Case cases[] = {
        {"Noisy/BitExact", core::EvalMode::Noisy,
         core::NoiseSampler::BitExact, false},
        {"Noisy/Fast", core::EvalMode::Noisy, core::NoiseSampler::Fast,
         false},
        {"Ideal", core::EvalMode::Ideal, core::NoiseSampler::BitExact,
         false},
        {"Quantized", core::EvalMode::Quantized,
         core::NoiseSampler::BitExact, false},
        {"Noisy/BitExact/verify", core::EvalMode::Noisy,
         core::NoiseSampler::BitExact, true},
    };
    const size_t m = 20;

    for (const Case &c : cases) {
        for (size_t k : {24u, 25u}) {
            const Matrix w = randomMatrix(k, m, 0xBEEF);
            for (size_t cores : {1u, 2u, 8u}) {
                nn::EngineConfig cfg;
                cfg.dptc = dptcConfig(c.sampler);
                cfg.mode = c.mode;
                cfg.num_cores = cores;
                cfg.fault_policy.verify = c.verify;
                nn::ExecutionEngine engine(cfg);
                core::EncodedOperand plan = engine.encodeWeight(w);

                for (size_t n : {1u, 2u, 5u, 16u}) {
                    std::vector<Matrix> rows;
                    std::vector<uint64_t> streams;
                    for (size_t i = 0; i < n; ++i) {
                        rows.push_back(
                            randomMatrix(1, k, 0xA11CE + 31 * i));
                        streams.push_back(1000 + 7 * i);
                    }
                    if (n >= 2)
                        // A silent row (beta 0) must not perturb its
                        // neighbours' quantization or noise.
                        rows[1] = Matrix(1, k, 0.0);

                    std::vector<Matrix> solo;
                    for (size_t i = 0; i < n; ++i)
                        solo.push_back(
                            engine.gemm(rows[i], plan, streams[i]));

                    std::vector<ConstMatrixView> views;
                    for (const Matrix &r : rows)
                        views.push_back(r.view());
                    engine.resetStats();
                    std::vector<Matrix> stacked =
                        engine.gemmRowStacked(views, plan, streams);

                    ASSERT_EQ(stacked.size(), n);
                    for (size_t i = 0; i < n; ++i) {
                        ASSERT_EQ(stacked[i].rows(), 1u);
                        ASSERT_EQ(stacked[i].cols(), m);
                        EXPECT_EQ(stacked[i].maxAbsDiff(solo[i]), 0.0)
                            << c.name << " k " << k << " cores "
                            << cores << " n " << n << " row " << i;
                    }
                    // One fused dispatch, still n per-product records.
                    EXPECT_EQ(engine.stats().stacked_calls.load(), 1u);
                    EXPECT_EQ(engine.stats().calls.load(), n);
                    EXPECT_EQ(engine.status().faults_detected, 0u)
                        << c.name;
                }
            }
        }
    }
}

TEST(StackedGemm, RepeatedStackedDispatchIsDeterministic)
{
    // Stream-addressed: same (rows, weight, streams) -> same bits,
    // no hidden counter advances across fused dispatches.
    const size_t k = 16, m = 12, n = 4;
    const Matrix w = randomMatrix(k, m, 0xD1CE);
    nn::EngineConfig cfg;
    cfg.dptc = dptcConfig(core::NoiseSampler::BitExact);
    cfg.mode = core::EvalMode::Noisy;
    cfg.num_cores = 4;
    nn::ExecutionEngine engine(cfg);
    core::EncodedOperand plan = engine.encodeWeight(w);

    std::vector<Matrix> rows;
    std::vector<uint64_t> streams;
    for (size_t i = 0; i < n; ++i) {
        rows.push_back(randomMatrix(1, k, 0xF00 + i));
        streams.push_back(42 + i);
    }
    std::vector<ConstMatrixView> views;
    for (const Matrix &r : rows)
        views.push_back(r.view());

    std::vector<Matrix> first = engine.gemmRowStacked(views, plan,
                                                      streams);
    std::vector<Matrix> second = engine.gemmRowStacked(views, plan,
                                                       streams);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(first[i].maxAbsDiff(second[i]), 0.0) << i;
}
