/**
 * @file
 * Deterministic random number generation for reproducible simulations.
 *
 * All stochastic components of the simulator (noise injection, synthetic
 * datasets, Monte-Carlo sweeps) draw from an explicitly-seeded Rng so that
 * every experiment is bit-reproducible from its seed.
 *
 * Implementation note (the fast noise pipeline): Rng reimplements the
 * libstdc++ draw algorithms it has always used — mt19937_64 and the
 * rejection-based polar normal_distribution with fresh-distribution
 * semantics per draw — so that every existing noise stream is
 * preserved BIT-EXACTLY. The class keeps the control flow (block
 * position, chunking, zero-std compaction); the arithmetic runs in
 * three kernels in util/rng_kernels.cc — the mt19937-64 refill, the
 * polar candidate pass and the sqrt/divide half of the transform —
 * compiled as baseline, AVX2 and AVX-512 variants and picked once per
 * process from cpuid (no setting selects them). That file is compiled
 * with fp-contract=off, since a fused x*x + y*y changes the sequence.
 * tests/test_util.cc pins the sequences of every variant the CPU
 * supports directly against the std:: reference types.
 *
 * The contract every consumer relies on:
 *  - uniform()/uniformInt()/bernoulli() run the std:: distributions over
 *    a facade URBG with mt19937_64's exact output sequence and range, so
 *    their value AND consumption sequences are unchanged;
 *  - gaussian()/fillGaussian()/fillGaussianScaled() reproduce a fresh
 *    std::normal_distribution per element (no saved second polar value
 *    carries across elements) and a non-positive stddev writes the mean
 *    without consuming engine state;
 *  - fork() and urbg() (std::shuffle's generator) consume the same raw
 *    engine outputs the pre-blocked implementation did.
 */

#ifndef LT_UTIL_RNG_HH
#define LT_UTIL_RNG_HH

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace lt {

/**
 * SplitMix64 finalizer: a cheap, high-quality bit mixer used to derive
 * decorrelated seeds from (base seed, counter) pairs. Counter-based
 * seeding is what makes the parallel execution engine deterministic:
 * every tile's noise stream depends only on its tile index, never on
 * which thread happens to run it.
 */
inline uint64_t
splitMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Derive the seed for stream `counter` of generator family `base`. */
inline uint64_t
deriveSeed(uint64_t base, uint64_t counter)
{
    return splitMix64(base ^ splitMix64(counter));
}

namespace detail {

/**
 * One ISA variant of Rng's draw kernels (util/rng_kernels.cc). Every
 * variant produces identical bits; they differ only in speed.
 */
struct RngKernels
{
    const char *name; ///< "baseline", "avx2" or "avx512"

    /**
     * mt19937-64 twist of the 312-word `state` in place, tempered
     * into `out`.
     */
    void (*refill)(uint64_t *state, uint64_t *out);

    /**
     * Polar candidate pass over the word pairs (u[2p], u[2p+1]),
     * p < pairs, in order: stores the accepted (y, r^2) pairs to
     * ys/r2s, stopping at the pair that yields the want-th accept.
     * Sets *accepted (<= want) and returns the pairs consumed. ys and
     * r2s must hold `want` elements.
     */
    size_t (*polarPairs)(const uint64_t *u, size_t pairs, size_t want,
                         double *ys, double *r2s, size_t *accepted);

    /**
     * out[j] = ys[j] * sqrt(-2 ln r2s[j] / r2s[j]) * stds[j] + mean
     * for j < n; `out` must not overlap the inputs.
     */
    void (*polarFinish)(const double *ys, const double *r2s,
                        const double *stds, size_t n, double mean,
                        double *out);
};

/**
 * The variants compiled in that this CPU can run, baseline first and
 * the fastest last, found once per process from cpuid. Rng uses the
 * last; tests and benchmarks pin the others. It is not a user setting.
 */
std::span<const RngKernels> rngKernelVariants();

} // namespace detail

/**
 * A seeded generator with the distributions the simulator needs, drawing
 * from a blocked reimplementation of std::mt19937_64 (sequence-exact; the
 * whole 312-word state block is generated and tempered at once, which is
 * ~2x cheaper per output than the std:: per-call path). Copyable; copies
 * advance independently.
 */
class Rng
{
  public:
    /** Words per mt19937-64 state block. */
    static constexpr size_t kBlockWords = 312;

    explicit Rng(uint64_t seed = 0x4c54'2024ULL)
        : Rng(seed, detail::rngKernelVariants().back())
    {
    }

    /** A generator on one given kernel variant (tests, benchmarks). */
    Rng(uint64_t seed, const detail::RngKernels &kernels)
        : k_(&kernels)
    {
        reseed(seed);
    }

    /**
     * The raw engine output stream — identical, u64 for u64, to
     * std::mt19937_64 seeded the same way. Every consumer below (and
     * the Urbg facade) draws through here, so buffering can never
     * reorder consumption between call styles.
     */
    uint64_t
    nextU64()
    {
        if (pos_ == kN)
            refill();
        return out_[pos_++];
    }

    /**
     * Facade URBG with mt19937_64's exact result range, for std::
     * algorithms that take a generator (std::shuffle in the dataset
     * builders). Consumes the owner's stream; sequences match handing
     * std::shuffle the underlying mt19937_64 directly.
     */
    class Urbg
    {
      public:
        using result_type = uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~0ULL; }
        result_type operator()() { return rng_->nextU64(); }

      private:
        friend class Rng;
        explicit Urbg(Rng *rng) : rng_(rng) {}
        Rng *rng_;
    };

    Urbg urbg() { return Urbg(this); }

    /** Uniform real in [lo, hi). */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        Urbg g(this);
        return dist(g);
    }

    /**
     * Gaussian sample with the given mean and standard deviation.
     * Bit-exact replay of a fresh std::normal_distribution draw over
     * mt19937_64; a non-positive stddev returns the mean without
     * consuming engine state.
     */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        if (stddev <= 0.0)
            return mean;
        double y, r2, out;
        drawPolar(&y, &r2, 1);
        k_->polarFinish(&y, &r2, &stddev, 1, mean, &out);
        return out;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        std::uniform_int_distribution<int64_t> dist(lo, hi);
        Urbg g(this);
        return dist(g);
    }

    /** Bernoulli trial with probability p of returning true. */
    bool
    bernoulli(double p)
    {
        std::bernoulli_distribution dist(p);
        Urbg g(this);
        return dist(g);
    }

    /** Bulk uniform fill into caller-owned storage (per-call sequence). */
    void
    fillUniform(std::span<double> out, double lo = -1.0, double hi = 1.0)
    {
        std::uniform_real_distribution<double> dist(lo, hi);
        Urbg g(this);
        for (double &x : out)
            x = dist(g);
    }

    /** Fill a vector with n uniform samples in [lo, hi). */
    std::vector<double>
    uniformVector(size_t n, double lo = -1.0, double hi = 1.0)
    {
        std::vector<double> v(n);
        fillUniform(v, lo, hi);
        return v;
    }

    /** Fill a vector with n Gaussian samples. */
    std::vector<double>
    gaussianVector(size_t n, double mean = 0.0, double stddev = 1.0)
    {
        std::vector<double> v(n);
        fillGaussian(v, mean, stddev);
        return v;
    }

    /**
     * Bulk Gaussian fill into caller-owned storage. Reproduces the
     * per-call gaussian() draw sequence EXACTLY — each element draws
     * from a fresh std::normal_distribution (no saved second polar
     * value carries over between elements) and a non-positive stddev
     * writes `mean` without consuming engine state — so replacing a
     * loop of gaussian() calls with one fillGaussian() never changes
     * a noise stream. The DPTC tile kernel uses it to batch the
     * constant-std phase and systematic-output draws of a dot product.
     */
    void
    fillGaussian(std::span<double> out, double mean = 0.0,
                 double stddev = 1.0)
    {
        if (stddev <= 0.0) {
            std::fill(out.begin(), out.end(), mean);
            return;
        }
        double ys[kChunk], r2s[kChunk], stds[kChunk];
        std::fill_n(stds, std::min(out.size(), kChunk), stddev);
        for (size_t done = 0; done < out.size(); done += kChunk) {
            const size_t n = std::min(out.size() - done, kChunk);
            drawPolar(ys, r2s, n);
            k_->polarFinish(ys, r2s, stds, n, mean, out.data() + done);
        }
    }

    /**
     * Bulk Gaussian fill with a PER-ELEMENT stddev: out[i] ~
     * N(mean, stddevs[i]^2), drawn in index order with the same
     * fresh-distribution semantics as gaussian() — element i of a
     * scalar loop `out[i] = gaussian(mean, stddevs[i])` bit-for-bit,
     * including the rule that a non-positive stddevs[i] writes `mean`
     * and consumes nothing. This is the form the full-encoding-noise
     * DDot path batches its |x[i]|-scaled magnitude draws through
     * (one call per dot product instead of 3 scalar draws per MAC).
     */
    void
    fillGaussianScaled(std::span<double> out,
                       std::span<const double> stddevs, double mean = 0.0)
    {
        assert(out.size() == stddevs.size());
        double ys[kChunk], r2s[kChunk], stds[kChunk], vals[kChunk];
        size_t idxs[kChunk];
        for (size_t base = 0; base < out.size(); base += kChunk) {
            const size_t n = std::min(out.size() - base, kChunk);
            // Compact the positive stddevs without branching: every
            // element is stored at the write index, which advances
            // only past positive ones; holes keep the mean.
            size_t cnt = 0;
            for (size_t i = 0; i < n; ++i) {
                const double s = stddevs[base + i];
                stds[cnt] = s;
                idxs[cnt] = base + i;
                cnt += s > 0.0;
                out[base + i] = mean;
            }
            drawPolar(ys, r2s, cnt);
            k_->polarFinish(ys, r2s, stds, cnt, mean, vals);
            for (size_t j = 0; j < cnt; ++j)
                out[idxs[j]] = vals[j];
        }
    }

    /** Derive a child generator with decorrelated state. */
    Rng
    fork()
    {
        uint64_t child_seed = nextU64();
        child_seed = child_seed * 0x9e3779b97f4a7c15ULL + nextU64();
        return Rng(child_seed);
    }

    /**
     * Gaussian draws taken so far (accepted samples; zero-stddev
     * writes consume nothing and are not counted). The execution
     * engine folds per-tile counts into GemmStats::gaussian_draws.
     */
    uint64_t drawCount() const { return draws_; }

  private:
    static constexpr size_t kN = kBlockWords;
    static constexpr size_t kChunk = 256; ///< bulk-fill batch size

    void
    reseed(uint64_t seed)
    {
        state_[0] = seed;
        for (size_t i = 1; i < kN; ++i)
            state_[i] = 6364136223846793005ULL *
                            (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                        i;
        pos_ = kN;
    }

    /** Regenerate and temper the whole state block at once. */
    void
    refill()
    {
        k_->refill(state_, out_);
        pos_ = 0;
    }

    /**
     * Produce `count` ACCEPTED polar pairs (y, r2) in draw-sequence
     * order, consuming engine outputs exactly as `count` scalar
     * rejection loops of a fresh std::normal_distribution would. The
     * candidate pass reads straight from the tempered block; the
     * consumed position advances only past pairs actually inspected.
     */
    void
    drawPolar(double *ys, double *r2s, size_t count)
    {
        size_t idx = 0;
        while (idx < count) {
            if (pos_ == kN)
                refill();
            size_t accepted;
            if (pos_ == kN - 1) {
                // One leftover word: the candidate pair straddles a
                // block boundary.
                uint64_t pair[2];
                pair[0] = out_[kN - 1];
                refill();
                pair[1] = out_[0];
                pos_ = 1;
                k_->polarPairs(pair, 1, count - idx, ys + idx, r2s + idx,
                               &accepted);
            } else {
                pos_ += 2 * k_->polarPairs(out_ + pos_, (kN - pos_) / 2,
                                           count - idx, ys + idx,
                                           r2s + idx, &accepted);
            }
            idx += accepted;
        }
        draws_ += count;
    }

    const detail::RngKernels *k_;
    uint64_t state_[kN];
    uint64_t out_[kN];
    size_t pos_ = kN;
    uint64_t draws_ = 0;
};

} // namespace lt

#endif // LT_UTIL_RNG_HH
