/**
 * @file
 * DDot: the dynamically-operated full-range optical dot-product engine
 * (paper Section III-A).
 *
 * Two length-N vectors are encoded onto N WDM wavelengths (one (x_i,
 * y_i) pair per wavelength), interfered in a 3 dB directional coupler
 * with a -90 degree phase shifter, and read out with a balanced
 * photodetector pair. The differential photocurrent is proportional to
 * x . y (Eq. 5); signs ride on optical phase, so operands and outputs
 * are full-range.
 *
 * Three evaluation paths are provided, from most to least physical:
 *  - fieldSimDot(): complex transfer-matrix simulation of the actual
 *    circuit (the Lumerical-INTERCONNECT substitute) including
 *    dispersion and encoding noise.
 *  - analyticNoisyDot(): the paper's Eq. 9 closed form with the same
 *    noise; equals fieldSimDot() to numerical precision.
 *  - idealDot(): exact arithmetic dot product.
 */

#ifndef LT_CORE_DDOT_HH
#define LT_CORE_DDOT_HH

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "core/noise_model.hh"
#include "photonics/coupler.hh"
#include "photonics/phase_shifter.hh"
#include "photonics/wavelength.hh"
#include "util/rng.hh"

namespace lt {
namespace core {

/**
 * Caller-owned workspace of the packed tile kernel's noise: one
 * allocation per kernel call (never per tile, k-slice or dot), sized
 * by Dptc::sliceNoiseValues and Dptc::slicePhaseValues. For capacities
 * of v values and p phases:
 *
 *   [0, v)            under encoding noise, one row of a (tile,
 *                     k-slice) pass's stddevs in stream order: per dot
 *                     (column) the 3n encoding stds of
 *                     DDot::encodingStds, then its systematic std (0
 *                     when that term is off);
 *   [v, 2v)           the matching draws, from one fillGaussianScaled;
 *                     without encoding noise, the pass's systematic
 *                     eps, one per output, from one fillGaussian;
 *   [2v, 2v + p)      under encoding noise, the row's drifted phases,
 *                     n per dot (DDot::encodingSines);
 *   [2v + p, 2v + 2p) their sines.
 *
 * where n is the slice depth (<= the wavelength count).
 */
struct NoiseScratch
{
    void
    ensure(size_t values, size_t phases)
    {
        capacity_ = values;
        phases_ = phases;
        buf_.resize(2 * values + 2 * phases);
    }

    double *stds() { return buf_.data(); }
    double *draws() { return buf_.data() + capacity_; }
    double *phases() { return buf_.data() + 2 * capacity_; }
    double *sines() { return buf_.data() + 2 * capacity_ + phases_; }

  private:
    std::vector<double> buf_;
    size_t capacity_ = 0;
    size_t phases_ = 0;
};

/**
 * Per-wavelength circuit coefficients, precomputed from the coupler and
 * phase-shifter dispersion models over a WDM grid.
 */
struct ChannelCoefficients
{
    double t;            ///< coupler transmission sqrt(1 - kappa)
    double k;            ///< coupler cross-coupling sqrt(kappa)
    double phase_error;  ///< dispersion-induced PS phase error [rad]
};

/** The DDot dot-product engine over a fixed WDM grid. */
class DDot
{
  public:
    /**
     * @param num_wavelengths WDM parallelism (vector length per shot)
     * @param noise noise configuration (Section III-C)
     */
    explicit DDot(size_t num_wavelengths,
                  const NoiseConfig &noise = NoiseConfig::paperDefault());

    size_t numWavelengths() const { return channels_.size(); }
    const NoiseConfig &noiseConfig() const { return noise_; }
    const std::vector<ChannelCoefficients> &channels() const
    {
        return channels_;
    }

    /**
     * Exact dot product (no optics). Inputs may be any length <= the
     * wavelength count; both spans must have equal length.
     */
    static double idealDot(std::span<const double> x,
                           std::span<const double> y);

    /**
     * Transfer-matrix (field-level) simulation of the circuit:
     * per-wavelength interference through PS + DC, WDM intensity
     * accumulation on the two photodiodes, balanced subtraction.
     * Inputs must be pre-normalized to [-1, 1].
     */
    double fieldSimDot(std::span<const double> x,
                       std::span<const double> y, Rng &rng) const;

    /** The paper's Eq. 9 closed form with identical noise draws. */
    double analyticNoisyDot(std::span<const double> x,
                            std::span<const double> y, Rng &rng) const;

    /**
     * The encoding-noise stddevs of one dot into stds[0, 3n), in the
     * order analyticNoisyDot draws them: x magnitude, y magnitude and
     * phase drift per wavelength. A zero operand gives a zero std,
     * which draws nothing.
     */
    void encodingStds(const double *x, const double *y, size_t n,
                      double *stds) const;

    /**
     * The drifted phase of every wavelength of `dots` dots whose
     * encoding draws sit `stride` apart in `draws` (encodingStds'
     * layout): phases[c n + i] = -pi/2 + phase error_i + draws[c stride
     * + 3i + 2], the phase analyticNoisyDot takes the sine of, then
     * sines[c n + i] = sin(phases[c n + i]) from ONE call of the
     * process's RngKernels::glibcSin (glibc's sin bit for bit; vector
     * form on the band the drifted phases occupy). The packed tile
     * kernel calls it once per row of a pass.
     */
    void encodingSines(const double *draws, size_t dots, size_t stride,
                       size_t n, double *phases, double *sines) const;

    /**
     * analyticNoisyDot's arithmetic over encoding noise drawn ahead:
     * draws[0, 3n) in encodingStds' layout and sines[0, n) the sines
     * of their drifted phases from encodingSines, per-channel
     * coefficients from flat arrays. It calls no libm function: each
     * MAC's sin is the one encodingSines computed. Bit-identical to
     * analyticNoisyDot when the draws are the ones it would take; the
     * packed tile kernel draws a whole row of a (tile, k-slice) pass
     * in one fill, takes its sines in one pass, and runs each dot
     * through here.
     */
    double noisyDotFromDraws(const double *x, const double *y, size_t n,
                             const double *draws,
                             const double *sines) const;

    /**
     * Two encoding-noise-free packed dots sharing one x row, with
     * the per-channel gain -sin(phase) hoisted (mult_noiseless_).
     * Each accumulator is bit-identical to analyticNoisyDot with
     * encoding noise off — the pairing only interleaves the two
     * independent accumulation chains so they pipeline instead of
     * serializing on FP-add latency. Pass y1 == y0 for a lone dot.
     */
    void noiselessDotPackedPair(const double *x, const double *y0,
                                const double *y1, size_t n,
                                double &io0, double &io1) const;

    /**
     * Per-channel noiseless contribution coefficients, exposing the
     * multiplicative factor 2*t*k*(-sin phi) and additive factor
     * (2k^2 - 1)/2 for channel i (used by tests and the fast GEMM
     * path in nn/).
     */
    double multiplicativeGain(size_t channel) const;
    double additiveGain(size_t channel) const;

  private:
    NoiseConfig noise_;
    std::vector<ChannelCoefficients> channels_;

    // Flat per-channel coefficient arrays mirroring channels_,
    // precomputed once so the packed kernel never re-derives them:
    //   mult_base_[i]  = 2 * t_i * k_i
    //   add_coef_[i]   = 2 * k_i^2 - 1
    //   phase_base_[i] = -pi/2 + phase_error_i
    //   mult_noiseless_[i] = mult_base_[i] * (-sin(phase_base_[i]))
    // (the exact subexpressions analyticNoisyDot computes, in the
    // same association order, so reuse is bit-identical).
    std::vector<double> mult_base_;
    std::vector<double> add_coef_;
    std::vector<double> phase_base_;
    std::vector<double> mult_noiseless_;
    /** The draw kernels Rng picks, for their glibc-exact sin pass. */
    const detail::RngKernels *kernels_ = &detail::rngKernelVariants().back();
};

// Defined in the header so the packed tile kernel's slice loop can
// inline them: they run once per output element per k-slice, and a
// cross-TU call was a measurable fraction of decode time.
inline void
DDot::encodingStds(const double *x, const double *y, size_t n,
                   double *stds) const
{
    const double mag = noise_.magnitude_noise_std;
    const double phase_std = noise_.phaseNoiseStdRad();
    for (size_t i = 0; i < n; ++i) {
        stds[3 * i] = mag * std::abs(x[i]);
        stds[3 * i + 1] = mag * std::abs(y[i]);
        stds[3 * i + 2] = phase_std;
    }
}

inline void
DDot::encodingSines(const double *draws, size_t dots, size_t stride,
                    size_t n, double *phases, double *sines) const
{
    for (size_t c = 0; c < dots; ++c)
        for (size_t i = 0; i < n; ++i)
            phases[c * n + i] = phase_base_[i] + draws[c * stride + 3 * i + 2];
    kernels_->glibcSin(phases, dots * n, sines);
}

inline double
DDot::noisyDotFromDraws(const double *x, const double *y, size_t n,
                        const double *draws, const double *sines) const
{
    double io = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double xh = x[i] + draws[3 * i];
        double yh = y[i] + draws[3 * i + 1];
        double mult = mult_base_[i] * (-sines[i]);
        double add = add_coef_[i] * (xh * xh - yh * yh) / 2.0;
        io += mult * xh * yh + add;
    }
    return io;
}

inline void
DDot::noiselessDotPackedPair(const double *x, const double *y0,
                             const double *y1, size_t n, double &io0,
                             double &io1) const
{
    double a0 = 0.0;
    double a1 = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double xi = x[i];
        double x2 = xi * xi;
        double add0 = add_coef_[i] * (x2 - y0[i] * y0[i]) / 2.0;
        double add1 = add_coef_[i] * (x2 - y1[i] * y1[i]) / 2.0;
        a0 += mult_noiseless_[i] * xi * y0[i] + add0;
        a1 += mult_noiseless_[i] * xi * y1[i] + add1;
    }
    io0 = a0;
    io1 = a1;
}

} // namespace core
} // namespace lt

#endif // LT_CORE_DDOT_HH
