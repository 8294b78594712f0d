/**
 * @file
 * Tests for the NN substrate: tensor ops, quantization, GEMM backends,
 * and finite-difference gradient checks for every layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>

#include "nn/execution_engine.hh"
#include "nn/gemm_backend.hh"
#include "nn/layers.hh"
#include "nn/quant.hh"
#include "nn/tensor_ops.hh"
#include "nn/transformer.hh"
#include "util/rng.hh"

namespace {

using namespace lt;
using namespace lt::nn;

Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng, double scale = 1.0)
{
    Matrix m(rows, cols);
    for (double &v : m.data())
        v = rng.uniform(-scale, scale);
    return m;
}

// ---- tensor ops -------------------------------------------------------

TEST(TensorOps, AppendRowGrowsInPlaceOnceReserved)
{
    Rng rng(0xA11);
    Matrix m = randomMatrix(2, 5, rng);
    Matrix expected = m;
    m.reserve(6 * 5); // decode-cache pattern: reserve the max context
    const double *backing = m.data().data();
    for (size_t step = 0; step < 4; ++step) {
        Matrix row = randomMatrix(1, 5, rng);
        appendRow(m, row);
        appendRow(expected, row); // self-consistency of values below
    }
    EXPECT_EQ(m.rows(), 6u);
    EXPECT_EQ(m.data().data(), backing)
        << "reserved appendRow must not reallocate";
    EXPECT_EQ(m.maxAbsDiff(expected), 0.0);
}

TEST(TensorOps, AppendColumnGrowsInPlaceOnceReserved)
{
    Rng rng(0xA12);
    Matrix m = randomMatrix(4, 2, rng);
    // Reference via the transposed row view.
    Matrix ref_t = m.transposed();
    m.reserve(4 * 6);
    const double *backing = m.data().data();
    for (size_t step = 0; step < 4; ++step) {
        Matrix row = randomMatrix(1, 4, rng);
        appendColumn(m, row);
        appendRow(ref_t, row);
    }
    EXPECT_EQ(m.cols(), 6u);
    EXPECT_EQ(m.data().data(), backing)
        << "reserved appendColumn must not reallocate";
    EXPECT_EQ(m.maxAbsDiff(ref_t.transposed()), 0.0);
}

TEST(TensorOps, ResizeColsZeroFillsTheNewCells)
{
    Matrix m(3, 2);
    int v = 1;
    for (double &x : m.data())
        x = v++;
    m.resizeCols(4);
    for (size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(m(r, 0), 1.0 + 2 * static_cast<double>(r));
        EXPECT_EQ(m(r, 1), 2.0 + 2 * static_cast<double>(r));
        EXPECT_EQ(m(r, 2), 0.0);
        EXPECT_EQ(m(r, 3), 0.0);
    }
}

TEST(TensorOps, KvCacheReserveMakesDecodeAppendsAllocationFree)
{
    // Both dense mirrors are row-major [tokens, dk] now — a decode
    // step appends one row to each in amortized O(dk); the QK^T
    // dispatch reads K through a transposed view instead of
    // re-striding a pre-transposed copy.
    Rng rng(0xCAFE);
    AttentionKvCache kv;
    const size_t dk = 4, prefill = 3, max_tokens = 12;
    kv.tail.k.push_back(randomMatrix(prefill, dk, rng));
    kv.tail.v.push_back(randomMatrix(prefill, dk, rng));
    kv.tail.tokens = prefill;
    kv.reserve(max_tokens);
    const double *k_backing = kv.tail.k[0].data().data();
    const double *v_backing = kv.tail.v[0].data().data();
    for (size_t t = prefill; t < max_tokens; ++t) {
        Matrix row = randomMatrix(1, dk, rng);
        appendRow(kv.tail.k[0], row);
        appendRow(kv.tail.v[0], row);
        kv.tail.tokens += 1;
    }
    EXPECT_EQ(kv.tail.k[0].rows(), max_tokens);
    EXPECT_EQ(kv.tail.v[0].rows(), max_tokens);
    EXPECT_EQ(kv.tail.k[0].data().data(), k_backing);
    EXPECT_EQ(kv.tail.v[0].data().data(), v_backing);
}

TEST(TensorOps, RowSoftmaxNormalizes)
{
    Rng rng(1);
    Matrix s = randomMatrix(5, 7, rng, 3.0);
    Matrix p = rowSoftmax(s);
    for (size_t r = 0; r < p.rows(); ++r) {
        double sum = 0.0;
        for (size_t c = 0; c < p.cols(); ++c) {
            EXPECT_GT(p(r, c), 0.0);
            sum += p(r, c);
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(TensorOps, RowSoftmaxShiftInvariant)
{
    Rng rng(2);
    Matrix s = randomMatrix(3, 4, rng);
    Matrix shifted = s;
    for (double &v : shifted.data())
        v += 100.0;
    EXPECT_LT(rowSoftmax(s).maxAbsDiff(rowSoftmax(shifted)), 1e-12);
}

TEST(TensorOps, GeluKnownValues)
{
    Matrix x(1, 3);
    x(0, 0) = 0.0;
    x(0, 1) = 10.0;
    x(0, 2) = -10.0;
    Matrix y = gelu(x);
    EXPECT_NEAR(y(0, 0), 0.0, 1e-12);
    EXPECT_NEAR(y(0, 1), 10.0, 1e-6);   // ~identity for large x
    EXPECT_NEAR(y(0, 2), 0.0, 1e-6);    // ~0 for very negative x
}

TEST(TensorOps, SlicePasteRoundTrip)
{
    Rng rng(3);
    Matrix m = randomMatrix(4, 12, rng);
    Matrix slice = sliceCols(m, 4, 4);
    Matrix copy = m;
    pasteCols(copy, slice, 4);
    EXPECT_LT(copy.maxAbsDiff(m), 1e-15);
}

// ---- quantization -----------------------------------------------------

TEST(Quant, FakeQuantIdempotent)
{
    Rng rng(4);
    Matrix m = randomMatrix(6, 6, rng, 2.5);
    Matrix q1 = fakeQuant(m, 8);
    Matrix q2 = fakeQuant(q1, 8);
    EXPECT_LT(q2.maxAbsDiff(q1), 1e-12);
}

TEST(Quant, FakeQuantPreservesScaleAndZero)
{
    Rng rng(5);
    Matrix m = randomMatrix(4, 4, rng, 3.0);
    Matrix q = fakeQuant(m, 4);
    EXPECT_NEAR(tensorScale(q), tensorScale(m), 1e-12);
    Matrix zero(3, 3, 0.0);
    EXPECT_LT(fakeQuant(zero, 4).maxAbsDiff(zero), 1e-15);
}

TEST(Quant, ErrorShrinksWithBits)
{
    Rng rng(6);
    Matrix m = randomMatrix(16, 16, rng);
    double prev = 1e9;
    for (int bits : {2, 4, 6, 8}) {
        double err = fakeQuant(m, bits).maxAbsDiff(m);
        EXPECT_LT(err, prev);
        prev = err;
    }
}

// ---- backends ---------------------------------------------------------

TEST(Backends, IdealMatchesOperator)
{
    Rng rng(7);
    Matrix a = randomMatrix(5, 8, rng);
    Matrix b = randomMatrix(8, 3, rng);
    IdealBackend backend;
    EXPECT_LT(backend.gemm(a, b).maxAbsDiff(a * b), 1e-14);
    EXPECT_EQ(backend.stats().calls, 1u);
    EXPECT_EQ(backend.stats().macs, 5u * 8u * 3u);
}

TEST(Backends, PhotonicIdealModeMatchesReference)
{
    core::DptcConfig cfg;
    cfg.noise = core::NoiseConfig::ideal();
    ExecutionEngine backend(cfg, core::EvalMode::Ideal);
    Rng rng(8);
    Matrix a = randomMatrix(20, 30, rng);
    Matrix b = randomMatrix(30, 10, rng);
    EXPECT_LT(backend.gemm(a, b).maxAbsDiff(a * b), 1e-10);
}

TEST(Backends, PhotonicNoisyModeTracksReference)
{
    core::DptcConfig cfg;
    cfg.input_bits = 8;
    ExecutionEngine backend(cfg, core::EvalMode::Noisy);
    Rng rng(9);
    Matrix a = randomMatrix(13, 24, rng);
    Matrix b = randomMatrix(24, 13, rng);
    Matrix out = backend.gemm(a, b);
    Matrix ref = a * b;
    double err = 0.0;
    for (size_t i = 0; i < out.data().size(); ++i)
        err += std::abs(out.data()[i] - ref.data()[i]);
    err /= static_cast<double>(out.data().size()) * 24.0;
    EXPECT_LT(err, 0.05);
    EXPECT_GT(err, 0.0);
}

// ---- gradient checks --------------------------------------------------

/**
 * Central finite-difference gradient check harness: perturbs every
 * parameter (and the input) of a module and compares the numeric
 * gradient against the analytic one.
 */
class GradCheck
{
  public:
    static constexpr double kEps = 1e-5;
    static constexpr double kTol = 2e-5;

    /** Check dL/dx for scalar loss L = sum(weights .* forward(x)). */
    template <typename Forward, typename Backward>
    static void
    checkInput(Matrix &x, Forward fwd, Backward bwd, Rng &rng)
    {
        Matrix w = randomWeights(fwd(x), rng);
        Matrix dx = bwd(w);
        for (size_t i = 0; i < x.data().size(); ++i) {
            double orig = x.data()[i];
            x.data()[i] = orig + kEps;
            double lp = lossOf(fwd(x), w);
            x.data()[i] = orig - kEps;
            double lm = lossOf(fwd(x), w);
            x.data()[i] = orig;
            double numeric = (lp - lm) / (2.0 * kEps);
            EXPECT_NEAR(dx.data()[i], numeric, kTol)
                << "input element " << i;
        }
    }

    /** Check dL/dparam for every parameter exposed by visitParams. */
    template <typename Forward, typename Backward, typename Visit>
    static void
    checkParams(Matrix &x, Forward fwd, Backward bwd, Visit visit,
                Rng &rng)
    {
        Matrix w = randomWeights(fwd(x), rng);
        bwd(w); // populate gradients
        std::vector<std::pair<Matrix *, Matrix *>> params;
        visit([&](Matrix &p, Matrix &g) {
            params.push_back({&p, &g});
        });
        for (auto [p, g] : params) {
            for (size_t i = 0; i < p->data().size(); ++i) {
                double orig = p->data()[i];
                p->data()[i] = orig + kEps;
                double lp = lossOf(fwd(x), w);
                p->data()[i] = orig - kEps;
                double lm = lossOf(fwd(x), w);
                p->data()[i] = orig;
                double numeric = (lp - lm) / (2.0 * kEps);
                EXPECT_NEAR(g->data()[i], numeric, kTol)
                    << "param element " << i;
            }
        }
    }

  private:
    static Matrix
    randomWeights(const Matrix &like, Rng &rng)
    {
        Matrix w(like.rows(), like.cols());
        for (double &v : w.data())
            v = rng.uniform(-1.0, 1.0);
        return w;
    }

    static double
    lossOf(const Matrix &y, const Matrix &w)
    {
        double s = 0.0;
        for (size_t i = 0; i < y.data().size(); ++i)
            s += y.data()[i] * w.data()[i];
        return s;
    }
};

TEST(GradCheckTest, Linear)
{
    Rng rng(10);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    Linear layer(5, 4, rng);
    LinearCache cache;
    Matrix x = randomMatrix(3, 5, rng);

    auto fwd = [&](Matrix &in) {
        return layer.forward(in, cache, ctx);
    };
    auto bwd = [&](const Matrix &dy) {
        layer.zeroGrad();
        layer.forward(x, cache, ctx);
        return layer.backward(dy, cache);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
    GradCheck::checkParams(
        x, fwd, bwd,
        [&](const ParamVisitor &fn) { layer.visitParams(fn); }, rng);
}

TEST(GradCheckTest, LayerNorm)
{
    Rng rng(11);
    LayerNorm layer(6);
    LayerNormCache cache;
    Matrix x = randomMatrix(4, 6, rng, 2.0);

    auto fwd = [&](Matrix &in) { return layer.forward(in, cache); };
    auto bwd = [&](const Matrix &dy) {
        layer.zeroGrad();
        layer.forward(x, cache);
        return layer.backward(dy, cache);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
    GradCheck::checkParams(
        x, fwd, bwd,
        [&](const ParamVisitor &fn) { layer.visitParams(fn); }, rng);
}

TEST(GradCheckTest, Gelu)
{
    Rng rng(12);
    Gelu layer;
    GeluCache cache;
    Matrix x = randomMatrix(3, 5, rng, 2.0);
    auto fwd = [&](Matrix &in) { return layer.forward(in, cache); };
    auto bwd = [&](const Matrix &dy) {
        layer.forward(x, cache);
        return layer.backward(dy, cache);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
}

TEST(GradCheckTest, SoftmaxBackward)
{
    Rng rng(13);
    Matrix s = randomMatrix(3, 6, rng, 2.0);
    Matrix x = s;
    auto fwd = [&](Matrix &in) { return rowSoftmax(in); };
    auto bwd = [&](const Matrix &dy) {
        return rowSoftmaxBackward(rowSoftmax(x), dy);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
}

TEST(GradCheckTest, MultiHeadSelfAttention)
{
    Rng rng(14);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    MultiHeadSelfAttention attn(8, 2, rng);
    AttentionCache cache;
    Matrix x = randomMatrix(5, 8, rng);

    auto fwd = [&](Matrix &in) {
        return attn.forward(in, cache, ctx);
    };
    auto bwd = [&](const Matrix &dy) {
        attn.zeroGrad();
        attn.forward(x, cache, ctx);
        return attn.backward(dy, cache);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
    GradCheck::checkParams(
        x, fwd, bwd,
        [&](const ParamVisitor &fn) { attn.visitParams(fn); }, rng);
}

TEST(GradCheckTest, CausalAttention)
{
    // The causal mask must also be consistent with backward: gradients
    // through masked (zero-probability) scores vanish.
    Rng rng(141);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    MultiHeadSelfAttention attn(8, 2, rng, /*causal=*/true);
    AttentionCache cache;
    Matrix x = randomMatrix(5, 8, rng);

    auto fwd = [&](Matrix &in) {
        return attn.forward(in, cache, ctx);
    };
    auto bwd = [&](const Matrix &dy) {
        attn.zeroGrad();
        attn.forward(x, cache, ctx);
        return attn.backward(dy, cache);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
}

TEST(Layers, CausalAttentionRowPrefixInvariance)
{
    // Under the causal mask, row i of the output depends only on rows
    // <= i: truncating the input must reproduce the leading rows.
    Rng rng(142);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    MultiHeadSelfAttention attn(8, 2, rng, /*causal=*/true);
    Matrix x = randomMatrix(6, 8, rng);
    AttentionCache full_cache;
    Matrix full = attn.forward(x, full_cache, ctx);

    Matrix prefix(4, 8);
    for (size_t r = 0; r < 4; ++r)
        for (size_t c = 0; c < 8; ++c)
            prefix(r, c) = x(r, c);
    AttentionCache prefix_cache;
    Matrix out = attn.forward(prefix, prefix_cache, ctx);
    for (size_t r = 0; r < 4; ++r)
        for (size_t c = 0; c < 8; ++c)
            EXPECT_NEAR(out(r, c), full(r, c), 1e-12)
                << r << "," << c;
}

TEST(GradCheckTest, TransformerBlock)
{
    Rng rng(15);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    TransformerBlock block(8, 2, 16, rng);
    TransformerBlockCache cache;
    Matrix x = randomMatrix(4, 8, rng);

    auto fwd = [&](Matrix &in) {
        return block.forward(in, cache, ctx);
    };
    auto bwd = [&](const Matrix &dy) {
        block.zeroGrad();
        block.forward(x, cache, ctx);
        return block.backward(dy, cache);
    };
    GradCheck::checkInput(x, fwd, bwd, rng);
}

TEST(GradCheckTest, TokenEmbedding)
{
    Rng rng(16);
    TokenEmbedding emb(10, 6, rng);
    TokenEmbeddingCache cache;
    std::vector<int> tokens{1, 4, 9, 4};

    Matrix y = emb.forward(tokens, cache);
    Matrix w = randomMatrix(y.rows(), y.cols(), rng);
    emb.zeroGrad();
    emb.forward(tokens, cache);
    emb.backward(w, cache);

    std::vector<std::pair<Matrix *, Matrix *>> params;
    emb.visitParams([&](Matrix &p, Matrix &g) {
        params.push_back({&p, &g});
    });
    ASSERT_EQ(params.size(), 1u);
    auto [table, grad] = params[0];
    constexpr double eps = 1e-5;
    for (size_t i = 0; i < table->data().size(); ++i) {
        double orig = table->data()[i];
        auto loss = [&]() {
            Matrix out = emb.forward(tokens, cache);
            double s = 0.0;
            for (size_t j = 0; j < out.data().size(); ++j)
                s += out.data()[j] * w.data()[j];
            return s;
        };
        table->data()[i] = orig + eps;
        double lp = loss();
        table->data()[i] = orig - eps;
        double lm = loss();
        table->data()[i] = orig;
        EXPECT_NEAR(grad->data()[i], (lp - lm) / (2.0 * eps), 1e-6);
    }
}

TEST(Layers, AttentionHeadsPartitionDim)
{
    Rng rng(17);
    MultiHeadSelfAttention attn(12, 3, rng);
    EXPECT_EQ(attn.heads(), 3u);
    EXPECT_EQ(attn.headDim(), 4u);
}

TEST(Layers, AttentionRejectsIndivisibleHeads)
{
    Rng rng(18);
    EXPECT_EXIT({ MultiHeadSelfAttention attn(10, 3, rng); },
                ::testing::ExitedWithCode(1), "not divisible");
}

// ---- forward-path input validation ------------------------------------

TEST(ForwardValidation, TooManyPatchesThrows)
{
    TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.max_tokens = 9; // 8 patches + CLS
    cfg.patch_dim = 12;
    TransformerClassifier model(cfg);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    ActivationWorkspace ws;

    Rng rng(19);
    Matrix ok = randomMatrix(8, 12, rng);
    EXPECT_NO_THROW(model.forwardVision(ok, ws, ctx));
    // 9 patches + CLS = 10 > max_tokens: must throw, not read past
    // the positional-embedding table.
    Matrix too_many = randomMatrix(9, 12, rng);
    EXPECT_THROW(model.forwardVision(too_many, ws, ctx),
                 std::invalid_argument);
}

TEST(ForwardValidation, WrongPatchWidthThrows)
{
    TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.max_tokens = 9;
    cfg.patch_dim = 12;
    TransformerClassifier model(cfg);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    ActivationWorkspace ws;

    Rng rng(20);
    Matrix wrong_width = randomMatrix(4, 10, rng);
    EXPECT_THROW(model.forwardVision(wrong_width, ws, ctx),
                 std::invalid_argument);
}

TEST(ForwardValidation, TooManyTokensAndBadIdsThrow)
{
    TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.max_tokens = 5; // 4 tokens + CLS
    cfg.vocab_size = 10;
    TransformerClassifier model(cfg);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};
    ActivationWorkspace ws;

    EXPECT_NO_THROW(model.forwardSequence({1, 2, 3, 4}, ws, ctx));
    EXPECT_THROW(model.forwardSequence({1, 2, 3, 4, 5}, ws, ctx),
                 std::invalid_argument);
    EXPECT_THROW(model.forwardSequence({1, 12}, ws, ctx),
                 std::invalid_argument);
    EXPECT_THROW(model.forwardSequence({-1}, ws, ctx),
                 std::invalid_argument);
    EXPECT_THROW(model.forwardSequence({}, ws, ctx),
                 std::invalid_argument);
}

TEST(ForwardValidation, BatchEntryPointsPropagateWorkerThrows)
{
    // Validation failures inside the parallel batch must surface on
    // the caller, not kill a pool worker.
    TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 1;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.max_tokens = 9;
    cfg.patch_dim = 12;
    TransformerClassifier model(cfg);
    IdealBackend backend;
    RunContext ctx{&backend, QuantConfig::disabled()};

    Rng rng(21);
    std::vector<Matrix> batch;
    for (int i = 0; i < 3; ++i)
        batch.push_back(randomMatrix(8, 12, rng));
    batch.push_back(randomMatrix(20, 12, rng)); // too many patches
    EXPECT_THROW(model.forwardVisionBatch(batch, ctx),
                 std::invalid_argument);
}

} // namespace
