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
 * position, chunking, counting the positive stddevs); the arithmetic
 * runs in kernels in util/rng_kernels.cc — the mt19937-64 refill, the
 * polar candidate pass, the transform to unit draws, their expansion
 * over a chunk's stddevs, and the candidate pass and transform fused
 * for gaussian()'s single draw (one call per draw) — compiled as
 * baseline, AVX2 and AVX-512 variants and picked once per process from
 * cpuid (no setting selects them). That file is compiled with
 * fp-contract=off, since a fused x*x + y*y (or unit * stddev + mean)
 * changes the sequence. The transform takes one log per accepted draw
 * (the fresh-distribution semantics discard the pair's second value),
 * and the SIMD variants compute it in vector form with glibc's
 * rounding, in the same pass as the divide, sqrt and multiply, and
 * recompute with glibc's scalar log only the lanes whose rounding they
 * cannot vouch for (RngKernels::polarUnit). tests/test_util.cc pins the
 * sequences of every variant the CPU supports directly against the
 * std:: reference types, each variant's transform against the scalar
 * formula with glibc's log, and its sin against glibc's.
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
     * ys[0, *accepted) and r2s[0, *accepted), stopping at the pair
     * that yields the want-th accept. Sets *accepted (<= want) and
     * returns the pairs consumed. ys and r2s must hold `want`
     * elements, and no variant writes at or past index `want` (the
     * scalar-compaction variants may leave a rejected candidate just
     * past the accepted ones; the AVX-512 one stores accepts only).
     */
    size_t (*polarPairs)(const uint64_t *u, size_t pairs, size_t want,
                         double *ys, double *r2s, size_t *accepted);

    /**
     * out[j] = ys[j] * sqrt(-2 ln r2s[j] / r2s[j]) for j < n: the
     * accepted pairs' draws at mean 0 and stddev 1, in libstdc++'s
     * order, with glibc's log. The SIMD variants run each vector's
     * log, divide, sqrt and multiply in one pass and recompute in
     * scalar code a short tail and the lanes whose log lies within
     * 1/40 ulp of a rounding midpoint (about 1 in 20) or outside
     * (0, 1]. Returns the elements recomputed (n for the baseline
     * variant, which is the scalar formula). `out` must not overlap
     * the inputs.
     */
    size_t (*polarUnit)(const double *ys, const double *r2s, size_t n,
                        double *out);

    /**
     * out[i] = unit[k] * stds[i] + mean, where k counts the positive
     * stds before i, and out[i] = mean where stds[i] is not positive:
     * unit draws spread over a chunk's positive stddevs in order.
     * Uses unit below the count c of positive stds, and may also read
     * unit[c] when c < n, so that slot must be initialized. `out` must
     * not overlap the inputs.
     */
    void (*expandScaled)(const double *unit, const double *stds, size_t n,
                         double mean, double *out);

    /**
     * One draw in one call: polarPairs with want == 1 fused with
     * polarUnit and the scaling. Writes *out and sets *accepted to 1
     * when a pair among the `pairs` is accepted (else 0, *out
     * untouched); returns the pairs consumed.
     */
    size_t (*polarOne)(const uint64_t *u, size_t pairs, double mean,
                       double stddev, double *out, size_t *accepted);

    /**
     * out[j] = std::sin(x[j]) for j < n, equal to glibc's scalar sin
     * bit for bit, in either of glibc's libm variants. The SIMD
     * variants compute the phase band |x + pi/2| <= 1/4 that DDot's
     * drifted phases occupy in vector form and call glibc for the
     * lanes within 1/16 ulp of a rounding midpoint (about 1 in 8) and
     * for inputs outside the band. Returns the elements that called
     * glibc (n for the baseline variant). `out` must not overlap `x`.
     */
    size_t (*glibcSin)(const double *x, size_t n, double *out);
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
        double out = mean;
        size_t accepted = 0;
        while (accepted == 0)
            candidatePass([&](const uint64_t *u, size_t pairs) {
                return k_->polarOne(u, pairs, mean, stddev, &out,
                                    &accepted);
            });
        ++draws_;
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
     * a noise stream. The DPTC tile kernel uses it for a (tile,
     * k-slice) pass's systematic-output draws when encoding noise is
     * off.
     */
    void
    fillGaussian(std::span<double> out, double mean = 0.0,
                 double stddev = 1.0)
    {
        if (stddev <= 0.0) {
            std::fill(out.begin(), out.end(), mean);
            return;
        }
        double stds[kChunk];
        std::fill_n(stds, std::min(out.size(), kChunk), stddev);
        for (size_t base = 0; base < out.size(); base += kChunk) {
            const size_t n = std::min(out.size() - base, kChunk);
            fillChunk(out.data() + base, stds, n, n, mean);
        }
    }

    /**
     * Bulk Gaussian fill with a PER-ELEMENT stddev: out[i] ~
     * N(mean, stddevs[i]^2), drawn in index order with the same
     * fresh-distribution semantics as gaussian() — element i of a
     * scalar loop `out[i] = gaussian(mean, stddevs[i])` bit-for-bit,
     * including the rule that a non-positive stddevs[i] writes `mean`
     * and consumes nothing. Under encoding noise the DPTC tile kernel
     * draws each row of a (tile, k-slice) pass through one call: per
     * dot, the |value|-scaled magnitude and phase stds, then the
     * systematic std (Dptc::packedSlice).
     */
    void
    fillGaussianScaled(std::span<double> out,
                       std::span<const double> stddevs, double mean = 0.0)
    {
        assert(out.size() == stddevs.size());
        for (size_t base = 0; base < out.size(); base += kChunk) {
            const size_t n = std::min(out.size() - base, kChunk);
            const double *stds = stddevs.data() + base;
            size_t positive = 0;
            for (size_t i = 0; i < n; ++i)
                positive += stds[i] > 0.0;
            fillChunk(out.data() + base, stds, n, positive, mean);
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

    /**
     * One chunk of a bulk fill: draw `positive` unit values (the
     * count of positive stds[0, n)) and expand them over stds into
     * out[0, n).
     */
    void
    fillChunk(double *out, const double *stds, size_t n, size_t positive,
              double mean)
    {
        double ys[kChunk], r2s[kChunk], unit[kChunk + 1];
        drawPolar(ys, r2s, positive);
        k_->polarUnit(ys, r2s, positive, unit);
        unit[positive] = 0.0; // expandScaled may read it, never uses it
        k_->expandScaled(unit, stds, n, mean, out);
    }

    /** Regenerate and temper the whole state block at once. */
    void
    refill()
    {
        k_->refill(state_, out_);
        pos_ = 0;
    }

    /**
     * Hand the candidate pairs at the block position to
     * `pass(u, pairs)`, which returns how many it consumed, and
     * advance past them. The pairs are read straight from the
     * tempered block; a single leftover word is paired with the first
     * word of the next block (the pair straddles the refill).
     */
    template <typename Pass>
    void
    candidatePass(Pass &&pass)
    {
        if (pos_ == kN)
            refill();
        if (pos_ == kN - 1) {
            uint64_t pair[2];
            pair[0] = out_[kN - 1];
            refill();
            pair[1] = out_[0];
            pos_ = 1;
            pass(pair, size_t{1});
        } else {
            pos_ += 2 * pass(out_ + pos_, (kN - pos_) / 2);
        }
    }

    /**
     * Produce `count` ACCEPTED polar pairs (y, r2) in draw-sequence
     * order, consuming engine outputs exactly as `count` scalar
     * rejection loops of a fresh std::normal_distribution would: the
     * position advances only past pairs actually inspected.
     */
    void
    drawPolar(double *ys, double *r2s, size_t count)
    {
        size_t idx = 0;
        while (idx < count)
            candidatePass([&](const uint64_t *u, size_t pairs) {
                size_t accepted;
                const size_t used =
                    k_->polarPairs(u, pairs, count - idx, ys + idx,
                                   r2s + idx, &accepted);
                idx += accepted;
                return used;
            });
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
