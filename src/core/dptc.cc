#include "dptc.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <type_traits>
#include <vector>

#include "util/fast_rng.hh"
#include "util/logging.hh"
#include "util/quantize.hh"

namespace lt {
namespace core {

double
Dptc::maxAbs(const ConstMatrixView &m)
{
    double beta = 0.0;
    if (m.rowsContiguous()) {
        // Contiguous logical rows: walk each row's run directly (the
        // dense-Matrix fast path, ld == cols for a full view).
        for (size_t r = 0; r < m.rows(); ++r) {
            const double *row = m.rowPtr(r);
            for (size_t c = 0; c < m.cols(); ++c)
                beta = std::max(beta, std::abs(row[c]));
        }
        return beta;
    }
    // Transposed views: the underlying storage rows are the logical
    // columns; max is order-insensitive, so walk storage order.
    for (size_t c = 0; c < m.cols(); ++c) {
        const double *col = m.colPtr(c);
        for (size_t r = 0; r < m.rows(); ++r)
            beta = std::max(beta, std::abs(col[r]));
    }
    return beta;
}

Matrix
Dptc::normalizeQuantize(const Matrix &m, double beta, int bits)
{
    Matrix out(m.rows(), m.cols());
    if (beta <= 0.0)
        return out;
    for (size_t i = 0; i < m.data().size(); ++i)
        out.data()[i] =
            quantizeSymmetricUnit(m.data()[i] / beta, bits);
    return out;
}

EncodedOperand
Dptc::encode(const ConstMatrixView &m, OperandSide side,
             EvalMode mode) const
{
    EncodedOperand op;
    op.rows_ = m.rows();
    op.cols_ = m.cols();
    op.side_ = side;
    if (mode == EvalMode::Ideal) {
        // Raw values, unit scale: x / 1.0 quantized to 0 bits is x.
        op.beta_ = 1.0;
        op.bits_ = 0;
        op.dynamic_beta_ = false;
    } else {
        op.beta_ = maxAbs(m);
        op.bits_ = cfg_.input_bits;
        op.dynamic_beta_ = true;
    }

    auto cdiv = [](size_t a, size_t b) { return (a + b - 1) / b; };
    // One quantization rule for fresh encodes AND incremental appends
    // (beta_/bits_ are set above, so the operand's own quantizer is
    // exactly the element map appendColumn/appendRow will apply).
    auto q = [&](double v) { return op.quantizeValue(v); };

    if (side == OperandSide::A) {
        // Row-major panels: identical layout to the dense operand, so
        // a row's k-slice is one contiguous pointer.
        op.data_.resize(m.rows() * m.cols());
        for (size_t r = 0; r < m.rows(); ++r)
            for (size_t c = 0; c < m.cols(); ++c)
                op.data_[r * m.cols() + c] = q(m(r, c));
        return op;
    }

    // B side: pack each (column tile, k-slice) block as contiguous
    // columns. Blocks are padded to nv x nlambda so indexing is
    // uniform; padding is zero and never read (the kernel bounds its
    // loops by the true operand edges).
    op.nv_ = cfg_.nv;
    op.nlambda_ = cfg_.nlambda;
    op.tiles_k_ = cdiv(m.rows(), cfg_.nlambda);
    op.tiles_k_cap_ = op.tiles_k_;
    const size_t tiles_c = cdiv(m.cols(), cfg_.nv);
    op.data_.assign(tiles_c * op.tiles_k_ * cfg_.nv * cfg_.nlambda,
                    0.0);
    for (size_t k = 0; k < m.rows(); ++k) {
        const size_t tk = k / cfg_.nlambda;
        const size_t ki = k % cfg_.nlambda;
        for (size_t c = 0; c < m.cols(); ++c) {
            const size_t tc = c / cfg_.nv;
            const size_t ci = c % cfg_.nv;
            op.data_[((tc * op.tiles_k_ + tk) * cfg_.nv + ci) *
                         cfg_.nlambda +
                     ki] = q(m(k, c));
        }
    }
    return op;
}

bool
Dptc::acceptsEncoded(const EncodedOperand &op, EvalMode mode) const
{
    const int bits = mode == EvalMode::Ideal ? 0 : cfg_.input_bits;
    if (op.bits_ != bits)
        return false;
    if (op.side_ == OperandSide::B)
        return op.nv_ == cfg_.nv && op.nlambda_ == cfg_.nlambda;
    return true;
}

Dptc::Dptc(const DptcConfig &cfg)
    : cfg_(cfg), ddot_(cfg.nlambda, cfg.noise), rng_(cfg.seed)
{
    if (cfg.nh == 0 || cfg.nv == 0 || cfg.nlambda == 0)
        lt_fatal("DptcConfig dimensions must be positive");
    if (cfg.channel_calibration) {
        Rng probe_rng(cfg.seed ^ 0xCA11ULL);
        calibration_ = calibrateDDot(ddot_, probe_rng, 64);
    }
}

void
Dptc::multiplyNormalized(const Matrix &a_hat, const Matrix &b_hat,
                         size_t row0, size_t col0, size_t k0,
                         EvalMode mode, double scale, Rng &rng,
                         Matrix &out) const
{
    const size_t rows = std::min(cfg_.nh, a_hat.rows() - row0);
    const size_t cols = std::min(cfg_.nv, b_hat.cols() - col0);
    const size_t depth = std::min(cfg_.nlambda, a_hat.cols() - k0);

    std::vector<double> x(depth), y(depth);
    for (size_t r = 0; r < rows; ++r) {
        for (size_t i = 0; i < depth; ++i)
            x[i] = a_hat(row0 + r, k0 + i);
        for (size_t c = 0; c < cols; ++c) {
            for (size_t i = 0; i < depth; ++i)
                y[i] = b_hat(k0 + i, col0 + c);
            double io;
            if (mode == EvalMode::Noisy) {
                io = cfg_.channel_calibration
                         ? calibratedNoisyDot(ddot_, calibration_, x,
                                              y, rng)
                         : ddot_.analyticNoisyDot(x, y, rng);
                if (cfg_.noise.enable_systematic_noise) {
                    double eps = rng.gaussian(
                        0.0, cfg_.noise.systematic_output_std);
                    io *= (1.0 + eps);
                }
            } else {
                io = DDot::idealDot(x, y);
            }
            out(row0 + r, col0 + c) += io * scale;
        }
    }
}

Matrix
Dptc::multiply(const Matrix &a, const Matrix &b, EvalMode mode)
{
    if (a.rows() > cfg_.nh || a.cols() > cfg_.nlambda ||
        b.rows() != a.cols() || b.cols() > cfg_.nv) {
        lt_fatal("Dptc::multiply shape [", a.rows(), ",", a.cols(),
                 "]x[", b.rows(), ",", b.cols(),
                 "] exceeds core geometry [", cfg_.nh, ",", cfg_.nlambda,
                 "]x[", cfg_.nlambda, ",", cfg_.nv, "]");
    }
    // One shared encoding implementation (encode() handles the
    // Ideal-mode raw/unit-beta case too); noise draws advance the
    // stateful member RNG exactly as before (always BitExact — the
    // member Rng IS the historical stream).
    EncodedOperand ea = encode(a, OperandSide::A, mode);
    EncodedOperand eb = encode(b, OperandSide::B, mode);
    Matrix out(a.rows(), b.cols(), 0.0);
    NoiseScratch scratch;
    scratch.ensure(sliceNoiseValues(), slicePhaseValues());
    packedSlice(ea, eb, 0, 0, 0, mode, ea.beta() * eb.beta(), rng_,
                out, scratch);
    return out;
}

void
Dptc::gemmTiles(const Matrix &a_hat, const Matrix &b_hat, EvalMode mode,
                double scale, size_t tile_begin, size_t tile_end,
                Matrix &out, uint64_t stream_seed) const
{
    auto cdiv = [](size_t a, size_t b) { return (a + b - 1) / b; };
    const size_t tiles_c = cdiv(b_hat.cols(), cfg_.nv);
    const size_t tiles_k = cdiv(a_hat.cols(), cfg_.nlambda);

    Rng unused(0); // non-noisy modes never draw from it
    for (size_t t = tile_begin; t < tile_end; ++t) {
        const size_t r0 = (t / tiles_c) * cfg_.nh;
        const size_t c0 = (t % tiles_c) * cfg_.nv;
        if (mode == EvalMode::Noisy) {
            // Counter-based seeding: (stream, output-tile index)
            // alone determines the tile's noise; its k-slices consume
            // the stream in fixed ascending order.
            Rng tile_rng(deriveSeed(stream_seed, t));
            for (size_t tk = 0; tk < tiles_k; ++tk)
                multiplyNormalized(a_hat, b_hat, r0, c0,
                                   tk * cfg_.nlambda, mode, scale,
                                   tile_rng, out);
        } else {
            for (size_t tk = 0; tk < tiles_k; ++tk)
                multiplyNormalized(a_hat, b_hat, r0, c0,
                                   tk * cfg_.nlambda, mode, scale,
                                   unused, out);
        }
    }
}

template <typename RngT>
void
Dptc::packedSlice(const EncodedOperand &a, const EncodedOperand &b,
                  size_t r0, size_t tc, size_t tk, EvalMode mode,
                  double scale, RngT &rng, Matrix &out,
                  NoiseScratch &scratch) const
{
    const size_t k0 = tk * cfg_.nlambda;
    const size_t c0 = tc * cfg_.nv;
    const size_t rows = std::min(cfg_.nh, a.rows() - r0);
    const size_t cols = std::min(cfg_.nv, b.cols() - c0);
    const size_t depth = std::min(cfg_.nlambda, a.cols() - k0);
    const NoiseConfig &noise = cfg_.noise;

    if (mode != EvalMode::Noisy) {
        for (size_t r = 0; r < rows; ++r) {
            const double *x = a.row(r0 + r) + k0;
            for (size_t c = 0; c < cols; ++c)
                out(r0 + r, c0 + c) +=
                    DDot::idealDot(
                        std::span<const double>(x, depth),
                        std::span<const double>(b.tileColumn(tc, tk, c),
                                                depth)) *
                    scale;
        }
        return;
    }

    if (cfg_.channel_calibration) {
        // Calibration probes draw from the historical stream; the
        // calibrated dot draws per element and is BitExact-only.
        if constexpr (std::is_same_v<RngT, Rng>) {
            for (size_t r = 0; r < rows; ++r) {
                const double *x = a.row(r0 + r) + k0;
                for (size_t c = 0; c < cols; ++c) {
                    double io = calibratedNoisyDot(
                        ddot_, calibration_,
                        std::span<const double>(x, depth),
                        std::span<const double>(b.tileColumn(tc, tk, c),
                                                depth),
                        rng);
                    if (noise.enable_systematic_noise)
                        io *= (1.0 + rng.gaussian(
                                         0.0, noise.systematic_output_std));
                    out(r0 + r, c0 + c) += io * scale;
                }
            }
        } else {
            lt_fatal("packedSlice: channel calibration requires the "
                     "BitExact sampler");
        }
        return;
    }

    // The stream takes, dot by dot in (row, column) order, the dot's
    // 3n encoding draws and then its systematic eps. A zero std — a
    // zero operand, or a term that is off — writes 0 and consumes
    // nothing, so one bulk fill over consecutive dots' stds draws
    // exactly the per-dot sequence, for either sampler; io * (1 + 0)
    // is io.
    const double sys_std = noise.enable_systematic_noise
                               ? noise.systematic_output_std
                               : 0.0;
    double *draws = scratch.draws();
    if (!noise.enable_encoding_noise) {
        // Each dot's only draw is its eps: one constant-std fill for
        // the pass, then column pairs run two accumulation chains
        // side by side (an odd last column pairs with itself).
        rng.fillGaussian(std::span<double>(draws, rows * cols), 0.0,
                         sys_std);
        for (size_t r = 0; r < rows; ++r) {
            const double *x = a.row(r0 + r) + k0;
            const double *eps = draws + r * cols;
            for (size_t c = 0; c < cols; c += 2) {
                const size_t c1 = std::min(c + 1, cols - 1);
                double io0;
                double io1;
                ddot_.noiselessDotPackedPair(x, b.tileColumn(tc, tk, c),
                                             b.tileColumn(tc, tk, c1),
                                             depth, io0, io1);
                out(r0 + r, c0 + c) += io0 * (1.0 + eps[c]) * scale;
                if (c1 != c)
                    out(r0 + r, c0 + c1) +=
                        io1 * (1.0 + eps[c1]) * scale;
            }
        }
        return;
    }

    // Encoding noise: one fillGaussianScaled per row of the pass over
    // the row's dots (see NoiseScratch), one sin pass over the row's
    // cols x depth drifted phases, then each dot's arithmetic over its
    // draws and sines. A row bounds the scratch to nv dots.
    const size_t enc = 3 * depth;
    const size_t stride = enc + 1;
    double *stds = scratch.stds();
    const double *sines = scratch.sines();
    for (size_t r = 0; r < rows; ++r) {
        const double *x = a.row(r0 + r) + k0;
        for (size_t c = 0; c < cols; ++c) {
            double *s = stds + c * stride;
            ddot_.encodingStds(x, b.tileColumn(tc, tk, c), depth, s);
            s[enc] = sys_std;
        }
        rng.fillGaussianScaled(std::span<double>(draws, cols * stride),
                               std::span<const double>(stds, cols * stride),
                               0.0);
        ddot_.encodingSines(draws, cols, stride, depth, scratch.phases(),
                            scratch.sines());
        const double *d = draws;
        for (size_t c = 0; c < cols; ++c, d += stride) {
            double io = ddot_.noisyDotFromDraws(
                x, b.tileColumn(tc, tk, c), depth, d, sines + c * depth);
            io *= (1.0 + d[enc]);
            out(r0 + r, c0 + c) += io * scale;
        }
    }
}

void
Dptc::gemmTiles(const EncodedOperand &a, const EncodedOperand &b,
                EvalMode mode, double scale, size_t tile_begin,
                size_t tile_end, Matrix &out, uint64_t stream_seed,
                uint64_t *gaussian_draws) const
{
    if (a.side() != OperandSide::A || b.side() != OperandSide::B ||
        !acceptsEncoded(a, mode) || !acceptsEncoded(b, mode))
        lt_fatal("Dptc::gemmTiles: operands not encoded for this "
                 "core geometry/mode");
    if (a.cols() != b.rows())
        lt_fatal("Dptc::gemmTiles inner dimension mismatch: ",
                 a.cols(), " vs ", b.rows());

    auto cdiv = [](size_t x, size_t y) { return (x + y - 1) / y; };
    const size_t tiles_c = cdiv(b.cols(), cfg_.nv);
    const size_t tiles_k = cdiv(a.cols(), cfg_.nlambda);

    // Per-shard workspace: the pass's noise stddevs and draws,
    // allocated once per call (one call per shard under the
    // ExecutionEngine) — the hot loop itself never allocates.
    NoiseScratch scratch;
    scratch.ensure(sliceNoiseValues(), slicePhaseValues());
    uint64_t draws = 0;

    const bool fast = mode == EvalMode::Noisy &&
                      cfg_.noise.sampler == NoiseSampler::Fast &&
                      !cfg_.channel_calibration;

    FastRng unused(0); // non-noisy modes never draw from it; no seed chain
    for (size_t t = tile_begin; t < tile_end; ++t) {
        const size_t r0 = (t / tiles_c) * cfg_.nh;
        const size_t tc = t % tiles_c;
        if (fast) {
            // Fast sampler, same counter-based addressing: the tile's
            // noise is a pure function of (stream, tile index), so
            // results stay thread-count-invariant — just on the
            // Ziggurat stream instead of the bit-exact one.
            FastRng tile_rng(deriveSeed(stream_seed, t));
            for (size_t tk = 0; tk < tiles_k; ++tk)
                packedSlice(a, b, r0, tc, tk, mode, scale, tile_rng,
                            out, scratch);
            draws += tile_rng.drawCount();
        } else if (mode == EvalMode::Noisy) {
            // Counter-based seeding, identical to the reference
            // kernel: (stream, output-tile index) alone determines
            // the tile's noise; its k-slices consume the stream in
            // fixed ascending order.
            Rng tile_rng(deriveSeed(stream_seed, t));
            for (size_t tk = 0; tk < tiles_k; ++tk)
                packedSlice(a, b, r0, tc, tk, mode, scale, tile_rng,
                            out, scratch);
            draws += tile_rng.drawCount();
        } else {
            for (size_t tk = 0; tk < tiles_k; ++tk)
                packedSlice(a, b, r0, tc, tk, mode, scale, unused,
                            out, scratch);
        }
    }
    if (gaussian_draws != nullptr)
        *gaussian_draws += draws;
}

Matrix
Dptc::gemm(const ConstMatrixView &a, const ConstMatrixView &b,
           EvalMode mode) const
{
    if (a.cols() != b.rows())
        lt_fatal("Dptc::gemm inner dimension mismatch: ", a.cols(),
                 " vs ", b.rows());
    Matrix out(a.rows(), b.cols(), 0.0);
    const size_t tiles = outputTilesFor(a.rows(), b.cols());
    EncodedOperand ea = encode(a, OperandSide::A, mode);
    EncodedOperand eb = encode(b, OperandSide::B, mode);
    gemmTiles(ea, eb, mode, ea.beta() * eb.beta(), 0, tiles, out,
              cfg_.seed);
    return out;
}

size_t
Dptc::invocationsFor(size_t m, size_t k, size_t n) const
{
    auto ceil_div = [](size_t a, size_t b) { return (a + b - 1) / b; };
    return ceil_div(m, cfg_.nh) * ceil_div(k, cfg_.nlambda) *
           ceil_div(n, cfg_.nv);
}

} // namespace core
} // namespace lt
