/**
 * @file
 * DPTC: the dynamically-operated photonic tensor core (Section III-B).
 *
 * An Nv x Nh crossbar of DDot engines sharing modulated WDM signals via
 * intra-core optical broadcast. One DPTC invocation computes a one-shot
 * [Nh, Nlambda] x [Nlambda, Nv] matrix multiply; arbitrary GEMMs are
 * tiled over invocations with digital accumulation (output-stationary).
 *
 * The functional model follows the paper's software stack: operands are
 * scaled into [-1, 1] by their max-abs (beta normalization), quantized
 * to the DAC precision, pushed through the noisy DDot transfer (Eq. 9),
 * and the per-output systematic multiplicative noise is applied.
 */

#ifndef LT_CORE_DPTC_HH
#define LT_CORE_DPTC_HH

#include <cstdint>
#include <memory>

#include "core/calibration.hh"
#include "core/ddot.hh"
#include "core/encoded_operand.hh"
#include "core/noise_model.hh"
#include "util/linalg.hh"
#include "util/rng.hh"

namespace lt {
namespace core {

/** Functional-evaluation fidelity for a DPTC multiply. */
enum class EvalMode
{
    Ideal,      ///< exact arithmetic, no quantization, no noise
    Quantized,  ///< beta-normalized + DAC quantization, ideal optics
    Noisy,      ///< quantization + Eq. 9 noise + systematic output term
};

/** Geometry and precision of one DPTC core. */
struct DptcConfig
{
    size_t nh = 12;       ///< horizontal input waveguides
    size_t nv = 12;       ///< vertical input waveguides
    size_t nlambda = 12;  ///< WDM wavelengths per waveguide
    int input_bits = 4;   ///< operand DAC precision
    NoiseConfig noise = NoiseConfig::paperDefault();
    uint64_t seed = 0x4c54'2024ULL;

    /**
     * Apply the per-channel dispersion calibration (gain pre-scaling
     * plus digital additive correction — see core/calibration.hh) to
     * every noisy dot product. The noise-mitigation extension of
     * Section V-E ([20], [56]).
     */
    bool channel_calibration = false;

    /** MACs performed by one invocation. */
    size_t
    macsPerShot() const
    {
        return nh * nv * nlambda;
    }
};

/** Functional model of one DPTC core. */
class Dptc
{
  public:
    explicit Dptc(const DptcConfig &cfg);

    const DptcConfig &config() const { return cfg_; }
    const DDot &ddot() const { return ddot_; }

    /**
     * One-shot matrix multiply: a is [nh, nlambda], b is [nlambda, nv].
     * Dimension mismatches are fatal (caller tiles larger GEMMs).
     * Noise draws advance the core's stateful member RNG.
     */
    Matrix multiply(const Matrix &a, const Matrix &b, EvalMode mode);

    /**
     * Arbitrary GEMM [m, k] x [k, n] tiled over DPTC invocations with
     * digital accumulation of partial products (OS dataflow).
     *
     * Noise is seeded per output tile from (stream seed, tile index)
     * — see deriveSeed() — so the result is a pure function of
     * (operands, config, stream): bit-identical whether the tiles run
     * sequentially here or sharded across the ExecutionEngine's
     * worker cores. This entry point always uses stream seed
     * DptcConfig::seed; the engine derives a fresh stream per call so
     * repeated GEMMs draw independent noise. The view overload
     * encodes strided/transposed operands in place; results are
     * bit-identical to materializing the views first.
     */
    Matrix gemm(const ConstMatrixView &a, const ConstMatrixView &b,
                EvalMode mode) const;

    Matrix
    gemm(const Matrix &a, const Matrix &b, EvalMode mode) const
    {
        return gemm(a.view(), b.view(), mode);
    }

    /**
     * REFERENCE KERNEL: process output tiles [tile_begin, tile_end)
     * of a tiled GEMM on pre-normalized dense operands, accumulating
     * every k-slice of each output tile into `out` (which must be
     * [a_hat.rows(), b_hat.cols()], zero-filled in the covered
     * region). Output tiles are numbered row-major: tile =
     * tr * ceil(n/nv) + tc.
     *
     * Each output tile draws its noise from an Rng seeded
     * deriveSeed(stream_seed, tile); its k-slices consume that stream
     * in fixed ascending order (a tile never spans shards).
     *
     * This is the pre-packing implementation (strided B-column
     * gathers, per-slice scratch), kept only as the golden reference
     * the packed overload below is pinned bit-identical against
     * (tests). It always draws the BitExact stream. Every engine
     * product runs the EncodedOperand overload, checked or not, the
     * fault layer's digital fallback included: the stacked-row
     * dispatch's per-row products, and bench_engine_scaling's "cache
     * off" decode column (it re-encodes the operands per call).
     *
     * @param scale multiplies every output (beta_a * beta_b; 1 for
     *        Ideal mode on raw operands)
     * @param stream_seed base seed of this GEMM's noise stream
     */
    void gemmTiles(const Matrix &a_hat, const Matrix &b_hat,
                   EvalMode mode, double scale, size_t tile_begin,
                   size_t tile_end, Matrix &out,
                   uint64_t stream_seed) const;

    /**
     * PACKED KERNEL: same contract as the reference gemmTiles, on
     * pre-encoded operands (Dptc::encode). Bit-identical to the
     * reference kernel — element visit order and RNG draw order are
     * preserved exactly — but cache-friendly: the x row-slice is one
     * contiguous pointer, every B-tile column is a contiguous packed
     * run (packed once at encode time instead of re-gathered Nh times
     * per tile), per-channel noise coefficients come from flat
     * arrays, and the only scratch (one pass's noise stddevs, draws,
     * phases and sines, NoiseScratch) is a per-call workspace hoisted
     * out of the hot loop — no allocations per tile or k-slice.
     * Thread-safe for disjoint tile ranges: a shard of an
     * ExecutionEngine dispatch calls it once per product, over that
     * product's contiguous run of the shard's tiles (a stacked-row
     * dispatch's products are [1, k] rows of their own), or, while the
     * fault layer is armed, once per attempt of each checked tile.
     *
     * `scale` is normally a.beta() * b.beta(); operands must have
     * been encoded for this core's geometry and mode (fatal
     * otherwise).
     *
     * Noise draws follow cfg_.noise.sampler: BitExact replays the
     * historical std:: stream bit-for-bit through the blocked Rng
     * pipeline (each row of a (tile, k-slice) pass draws all its
     * encoding and systematic noise in one bulk fill, sequence-exact);
     * Fast runs the Ziggurat sampler seeded by the SAME
     * deriveSeed(stream, tile) scheme — still thread-count-invariant
     * and deterministic, not stream-compatible. When `gaussian_draws`
     * is non-null the Gaussian draws this call takes are added to it
     * (the engine folds shard counts into GemmStats::gaussian_draws).
     */
    void gemmTiles(const EncodedOperand &a, const EncodedOperand &b,
                   EvalMode mode, double scale, size_t tile_begin,
                   size_t tile_end, Matrix &out, uint64_t stream_seed,
                   uint64_t *gaussian_draws = nullptr) const;

    /**
     * Prepare one operand for the packed kernel: beta normalization
     * (maxAbs), DAC quantization to input_bits, and the side-specific
     * packed layout, fused in one pass. Ideal mode encodes raw values
     * with beta = 1 and no quantization. This is the single encoding
     * implementation behind multiply(), gemm(), and the
     * ExecutionEngine (and the unit the nn-layer WeightPlan caches
     * hold on to across calls). The view overload reads strided /
     * transposed operands in place (the decode K cache encodes its
     * packed K^T straight from the row-major K mirror); encoding a
     * view is bit-identical to encoding its materialized copy.
     */
    EncodedOperand encode(const ConstMatrixView &m, OperandSide side,
                          EvalMode mode) const;

    EncodedOperand
    encode(const Matrix &m, OperandSide side, EvalMode mode) const
    {
        return encode(m.view(), side, mode);
    }

    /** True when `op` was encoded compatibly with this core + mode. */
    bool acceptsEncoded(const EncodedOperand &op, EvalMode mode) const;

    /** Output-tile count of a tiled [m,k]x[k,n] GEMM (rows x cols). */
    size_t
    outputTilesFor(size_t m, size_t n) const
    {
        auto cdiv = [](size_t a, size_t b) { return (a + b - 1) / b; };
        return cdiv(m, cfg_.nh) * cdiv(n, cfg_.nv);
    }

    /** Number of one-shot invocations a tiled [m,k]x[k,n] GEMM needs. */
    size_t invocationsFor(size_t m, size_t k, size_t n) const;

    /** Max absolute value of an operand (beta normalization factor). */
    static double maxAbs(const ConstMatrixView &m);

    static double
    maxAbs(const Matrix &m)
    {
        return maxAbs(m.view());
    }

    /**
     * Scale into [-1, 1] by beta and quantize to `bits` (the shared
     * operand-preparation step of multiply()/gemm(), exposed so the
     * ExecutionEngine normalizes once per GEMM, not once per tile).
     */
    static Matrix normalizeQuantize(const Matrix &m, double beta,
                                    int bits);

    Rng &rng() { return rng_; }

  private:
    /**
     * One core invocation on pre-normalized (and pre-quantized)
     * operands; `scale` multiplies every output (beta_a * beta_b).
     * All noise draws come from `rng`, which the caller seeds — either
     * the stateful member (multiply()) or a per-tile counter-derived
     * generator (gemm()/gemmTiles()).
     */
    void multiplyNormalized(const Matrix &a_hat, const Matrix &b_hat,
                            size_t row0, size_t col0, size_t k0,
                            EvalMode mode, double scale, Rng &rng,
                            Matrix &out) const;

    /**
     * One (output tile, k-slice) pass of the packed kernel: rows/cols
     * bounded by the operand edges, x and y read as contiguous
     * pointers into the encoded layouts. Every uncalibrated noisy
     * configuration draws in bulk: under encoding noise, ONE
     * fillGaussianScaled per row of the pass over the stddevs of the
     * row's dots in stream order (per dot, 3n encoding stds, then the
     * systematic std; see NoiseScratch), which draws one unit value
     * per positive std and expands them over the row, then ONE
     * glibc-exact sin pass over the row's cols x depth drifted phases
     * (DDot::encodingSines), and the dot arithmetic then runs over the
     * draws and sines; without it, one constant-std fill of the pass's
     * systematic eps, and the dots run in column pairs with the
     * -sin(phase) gain hoisted. Zero stds consume nothing, so the draw
     * sequence is exactly multiplyNormalized's for RngT = Rng, and the
     * per-dot one for FastRng; every sine is glibc's, as the reference
     * kernel's per-element std::sin. Channel-calibrated dots draw per
     * element (BitExact only). `scratch` must hold sliceNoiseValues()
     * values and slicePhaseValues() phases. The pass covers rows
     * [r0, r0 + nh) clipped to a's edge: a one-row operand makes a
     * one-row pass.
     */
    template <typename RngT>
    void packedSlice(const EncodedOperand &a, const EncodedOperand &b,
                     size_t r0, size_t tc, size_t tk, EvalMode mode,
                     double scale, RngT &rng, Matrix &out,
                     NoiseScratch &scratch) const;

    /**
     * NoiseScratch values a packedSlice pass needs: one row of nv dots
     * under encoding noise, else one eps per output of the tile.
     */
    size_t
    sliceNoiseValues() const
    {
        return cfg_.nv * (cfg_.noise.enable_encoding_noise
                              ? 3 * cfg_.nlambda + 1
                              : cfg_.nh);
    }

    /** NoiseScratch phases: one row's nv x nlambda under encoding noise. */
    size_t
    slicePhaseValues() const
    {
        return cfg_.noise.enable_encoding_noise ? cfg_.nv * cfg_.nlambda
                                                : 0;
    }

    DptcConfig cfg_;
    DDot ddot_;
    Rng rng_;
    ChannelCalibration calibration_; ///< used when configured
};

} // namespace core
} // namespace lt

#endif // LT_CORE_DPTC_HH
