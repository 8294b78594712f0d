/**
 * @file
 * The bit-exact Gaussian draw kernels behind lt::Rng, compiled once
 * per ISA and picked once per process from cpuid.
 *
 * Four entries over contiguous buffers (see detail::RngKernels), whose
 * conversion and arithmetic passes take no data-dependent branch:
 *  - refill: the mt19937-64 twist over the 312-word state block plus
 *    the temper into the output block;
 *  - polarPairs: the polar candidate pass — exact u64 -> double,
 *    the 2^-64 scale, the below-1.0 clamp as a select, r^2, and the
 *    accepted (y, r^2) pairs compacted: by advancing a write index by
 *    the accept flag (baseline, AVX2), or by compressing each vector's
 *    accept mask in registers (AVX-512). It stops at the pair holding
 *    the want-th accept, so it consumes words exactly as that many
 *    scalar rejection loops do. The caller's ys/r2s hold `want`
 *    elements; nothing is written at or past index `want`;
 *  - polarFinish: y * sqrt(-2 ln r^2 / r^2) * stddev + mean, with
 *    glibc's scalar log kept and the sqrt/divide half vectorized;
 *  - polarOne: one draw in one call (Rng::gaussian), built from the
 *    polarPairs and polarFinish bodies with want == 1.
 *
 * Each kernel is one always-inlined body, instantiated in a baseline
 * function and in [[gnu::target("avx2")]] and
 * [[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] ones (the
 * AVX-512 candidate pass has its own body); rngKernelVariants() lists
 * those this CPU runs (__builtin_cpu_supports), and Rng uses the
 * last. No flag, option or environment variable selects a variant:
 * builds of src/ with other flags (servebench's) get the same dispatch.
 *
 * Every variant computes its values from the same source (candidates,
 * finishOne and the finish passes), so every variant reproduces the
 * libstdc++ sequence exactly: each operation is an IEEE-exact one
 * (conversions, power-of-two scales, min, sqrt, divide) or a
 * correctly rounded multiply/add that must stay unfused, which the
 * fp-contract pragma below guarantees. tests/test_util.cc runs every
 * variant the CPU supports against std::normal_distribution.
 */

// Keep every a*b + c as a rounded multiply followed by a rounded add.
// GCC's C++ default is fp-contract=fast, and under target("avx512f")
// it fuses x*x + y*y (and `* stddev + mean`) into vfmadd, intrinsics
// included, which changes r^2 and with it the draw sequence.
#pragma GCC optimize("fp-contract=off")

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#ifdef __x86_64__
#include <immintrin.h>
#endif

#include "util/rng.hh"

namespace lt {
namespace detail {

namespace {

// mt19937_64 standard parameters.
constexpr size_t kN = Rng::kBlockWords; // 312
constexpr size_t kM = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
constexpr uint64_t kLowerMask = 0x7FFFFFFFULL;

/** Candidate pairs per block of the scalar-compaction polarPairs. */
constexpr size_t kPairBlock = 16;

/**
 * The twist in three wrap-free regions with a branchless matrix-A
 * select, then the temper, which is independent per word. The bodies
 * below are always inlined into each target-attributed variant, so
 * every variant vectorizes them for its own ISA.
 */
[[gnu::always_inline]] inline void
refillBody(uint64_t *__restrict state, uint64_t *__restrict out)
{
    for (size_t i = 0; i < kN - kM; ++i) {
        uint64_t x = (state[i] & kUpperMask) | (state[i + 1] & kLowerMask);
        state[i] = state[i + kM] ^ (x >> 1) ^ ((-(x & 1)) & kMatrixA);
    }
    for (size_t i = kN - kM; i < kN - 1; ++i) {
        uint64_t x = (state[i] & kUpperMask) | (state[i + 1] & kLowerMask);
        state[i] =
            state[i + kM - kN] ^ (x >> 1) ^ ((-(x & 1)) & kMatrixA);
    }
    uint64_t x = (state[kN - 1] & kUpperMask) | (state[0] & kLowerMask);
    state[kN - 1] = state[kM - 1] ^ (x >> 1) ^ ((-(x & 1)) & kMatrixA);
    for (size_t i = 0; i < kN; ++i) {
        uint64_t y = state[i];
        y ^= (y >> 29) & 0x5555555555555555ULL;
        y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
        y ^= (y << 37) & 0xFFF7EEE000000000ULL;
        y ^= y >> 43;
        out[i] = y;
    }
}

/** GCC vector types of L doubles / u64 words (one SIMD register). */
template <size_t L>
struct Lanes
{
    typedef double D __attribute__((vector_size(8 * L)));
    typedef uint64_t U __attribute__((vector_size(8 * L)));
};

/**
 * std::generate_canonical<double, 64> over mt19937_64 words, lane by
 * lane: the word correctly rounded to double, scaled by 2^-64 (a power
 * of two, so exact) and clamped below 1.0 — words within half an ulp
 * of 2^64 round up to 2^64, so the clamp does fire. With AVX-512DQ the
 * conversion is one vcvtuqq2pd; without it, both 32-bit halves become
 * exact doubles by exponent-field biasing (2^84 + hi*2^32 and
 * 2^52 + lo), and the only rounding happens at the final add. Vectors
 * pass by reference so no vector crosses a call boundary (-Wpsabi).
 */
template <size_t L, bool kNativeCvt>
[[gnu::always_inline]] inline void
canonical(const typename Lanes<L>::U &u, typename Lanes<L>::D &r)
{
    using D = typename Lanes<L>::D;
    D d;
    if constexpr (kNativeCvt) {
        d = __builtin_convertvector(u, D);
    } else {
        d = ((D)((u >> 32) | 0x4530000000000000ULL) - 0x1.00000001p84) +
            (D)((u & 0xFFFFFFFFULL) | 0x4330000000000000ULL);
    }
    d *= 0x1p-64;
    const D below_one = D{} + 0x1.fffffffffffffp-1;
    r = d < below_one ? d : below_one;
}

/**
 * One vector of L candidate pairs from the 2L words at w: the pairs'
 * y and r^2 = x^2 + y^2, with x, y = 2 * canonical - 1.
 */
template <size_t L, bool kNativeCvt>
[[gnu::always_inline]] inline void
candidates(const uint64_t *w, typename Lanes<L>::D &y,
           typename Lanes<L>::D &r2)
{
    using D = typename Lanes<L>::D;
    using U = typename Lanes<L>::U;
    U even, odd; // shuffle masks: words 0, 2, 4, ... and 1, 3, 5, ...
    for (size_t i = 0; i < L; ++i) {
        even[i] = 2 * i;
        odd[i] = 2 * i + 1;
    }
    U a, b;
    std::memcpy(&a, w, sizeof(U));
    std::memcpy(&b, w + L, sizeof(U));
    D x;
    canonical<L, kNativeCvt>(__builtin_shuffle(a, b, even), x);
    canonical<L, kNativeCvt>(__builtin_shuffle(a, b, odd), y);
    x = 2.0 * x - 1.0;
    y = 2.0 * y - 1.0;
    r2 = x * x + y * y;
}

/**
 * The polar candidate pass, L lanes wide, for the baseline and AVX2
 * variants. Each block of up to kPairBlock pairs is converted with no
 * branches (a short block from a zero-padded copy, whose pairs r^2 = 2
 * rejects); a scalar pass then stores every candidate at the write
 * index and advances it by the accept flag, stopping at the want-th
 * accept so consumption matches the scalar rejection loop. Every
 * store lands below index `want`.
 */
template <size_t L, bool kNativeCvt>
[[gnu::always_inline]] inline size_t
polarPairsBody(const uint64_t *u, size_t pairs, size_t want, double *ys,
               double *r2s, size_t *accepted)
{
    using D = typename Lanes<L>::D;
    using U = typename Lanes<L>::U;
    static_assert(kPairBlock % L == 0);
    size_t idx = 0;
    size_t p = 0;
    if (want == 1 && pairs >= L) {
        // gaussian()'s single draw: one vector of candidates, and the
        // first accepted lane read straight from registers.
        D y, r2;
        candidates<L, kNativeCvt>(u, y, r2);
        for (size_t j = 0; j < L; ++j) {
            if (r2[j] <= 1.0 && r2[j] != 0.0) {
                ys[0] = y[j];
                r2s[0] = r2[j];
                *accepted = 1;
                return j + 1;
            }
        }
        p = L; // all L rejected
    }
    while (p < pairs && idx < want) {
        // Convert whole vectors, at least one pair per accept still
        // wanted; m of them are real pairs, the rest zero padding.
        const size_t span =
            std::min(kPairBlock, (want - idx + L - 1) / L * L);
        const size_t m = std::min(span, pairs - p);
        const uint64_t *w = u + 2 * p;
        uint64_t pad[2 * kPairBlock];
        if (m < span) {
            std::fill(std::copy(w, w + 2 * m, pad), pad + 2 * span, 0);
            w = pad;
        }
        double ty[kPairBlock];
        double tr[kPairBlock];
        uint64_t ta[kPairBlock]; // accept flags, 0 or 1
        for (size_t j = 0; j < span; j += L) {
            D y, r2;
            candidates<L, kNativeCvt>(w + 2 * j, y, r2);
            const U accept = (U)((r2 <= 1.0) & (r2 != 0.0)) & 1;
            std::memcpy(ty + j, &y, sizeof(D));
            std::memcpy(tr + j, &r2, sizeof(D));
            std::memcpy(ta + j, &accept, sizeof(U));
        }
        size_t j = 0;
        while (j < m) {
            ys[idx] = ty[j];
            r2s[idx] = tr[j];
            idx += ta[j];
            ++j;
            if (idx == want)
                break;
        }
        p += j;
    }
    *accepted = idx;
    return p;
}

/**
 * One accepted pair's draw, in libstdc++'s association order:
 * (y * sqrt(-2 * log(r2) / r2)) * stddev + mean.
 */
[[gnu::always_inline]] inline double
finishOne(double y, double r2, double stddev, double mean)
{
    return y * std::sqrt(-2.0 * std::log(r2) / r2) * stddev + mean;
}

/**
 * The transform: glibc's scalar log, then the sqrt/divide/scale half,
 * which vectorizes, in finishOne's association order. The sqrt runs
 * through `sqrtInPlace`, the variant's packed sqrt, because std::sqrt
 * stays scalar under GCC's default -fmath-errno.
 */
template <void (*sqrtInPlace)(double *, size_t)>
[[gnu::always_inline]] inline void
polarFinishBody(const double *__restrict ys,
                const double *__restrict r2s,
                const double *__restrict stds, size_t n, double mean,
                double *__restrict out)
{
    if (n < 4) {
        // Too short for the passes below to pay: the same operations,
        // fused per element.
        for (size_t j = 0; j < n; ++j)
            out[j] = finishOne(ys[j], r2s[j], stds[j], mean);
        return;
    }
    // `out` doubles as the scratch row: log, then -2 log / r2, then
    // its sqrt, then the scaled draw.
    for (size_t j = 0; j < n; ++j)
        out[j] = std::log(r2s[j]);
    for (size_t j = 0; j < n; ++j)
        out[j] = -2.0 * out[j] / r2s[j];
    sqrtInPlace(out, n);
    for (size_t j = 0; j < n; ++j)
        out[j] = ys[j] * out[j] * stds[j] + mean;
}

/** Scalar tail of the packed sqrt loops below. */
[[gnu::always_inline]] inline void
sqrtTail(double *t, size_t j, size_t m)
{
    for (; j < m; ++j)
        t[j] = std::sqrt(t[j]);
}

/** polarOne from the scalar-compaction pass: want == 1, finished here. */
template <size_t L, bool kNativeCvt>
[[gnu::always_inline]] inline size_t
polarOneBody(const uint64_t *u, size_t pairs, double mean, double stddev,
             double *out, size_t *accepted)
{
    double y, r2;
    const size_t used =
        polarPairsBody<L, kNativeCvt>(u, pairs, 1, &y, &r2, accepted);
    if (*accepted != 0)
        *out = finishOne(y, r2, stddev, mean);
    return used;
}

void
refillBaseline(uint64_t *state, uint64_t *out)
{
    refillBody(state, out);
}

size_t
polarPairsBaseline(const uint64_t *u, size_t pairs, size_t want,
                   double *ys, double *r2s, size_t *accepted)
{
    return polarPairsBody<2, false>(u, pairs, want, ys, r2s, accepted);
}

/** sqrtpd is IEEE correctly rounded, exactly like the scalar sqrt. */
void
sqrtBaseline(double *t, size_t m)
{
    size_t j = 0;
#ifdef __x86_64__
    for (; j + 2 <= m; j += 2)
        _mm_storeu_pd(t + j, _mm_sqrt_pd(_mm_loadu_pd(t + j)));
#endif
    sqrtTail(t, j, m);
}

void
polarFinishBaseline(const double *ys, const double *r2s,
                    const double *stds, size_t n, double mean,
                    double *out)
{
    polarFinishBody<sqrtBaseline>(ys, r2s, stds, n, mean, out);
}

size_t
polarOneBaseline(const uint64_t *u, size_t pairs, double mean,
                 double stddev, double *out, size_t *accepted)
{
    return polarOneBody<2, false>(u, pairs, mean, stddev, out, accepted);
}

#ifdef __x86_64__

[[gnu::target("avx2")]] void
refillAvx2(uint64_t *state, uint64_t *out)
{
    refillBody(state, out);
}

[[gnu::target("avx2")]] size_t
polarPairsAvx2(const uint64_t *u, size_t pairs, size_t want, double *ys,
               double *r2s, size_t *accepted)
{
    return polarPairsBody<4, false>(u, pairs, want, ys, r2s, accepted);
}

[[gnu::target("avx2")]] void
sqrtAvx2(double *t, size_t m)
{
    size_t j = 0;
    for (; j + 4 <= m; j += 4)
        _mm256_storeu_pd(t + j, _mm256_sqrt_pd(_mm256_loadu_pd(t + j)));
    sqrtTail(t, j, m);
}

[[gnu::target("avx2")]] void
polarFinishAvx2(const double *ys, const double *r2s, const double *stds,
                size_t n, double mean, double *out)
{
    polarFinishBody<sqrtAvx2>(ys, r2s, stds, n, mean, out);
}

[[gnu::target("avx2")]] size_t
polarOneAvx2(const uint64_t *u, size_t pairs, double mean, double stddev,
             double *out, size_t *accepted)
{
    return polarOneBody<4, false>(u, pairs, mean, stddev, out, accepted);
}

/**
 * The AVX-512 candidate pass: eight pairs per 512-bit vector, their
 * accepts as a mask, and no scalar compaction pass (512-bit candidate
 * stores would stall such a pass's scalar loads on store forwarding).
 * A short last block converts from a zero-padded copy, whose pairs
 * have r^2 = 2 and are rejected. When a vector holds the want-th
 * accept, pdep puts a one on that set bit of the mask, and the mask
 * is cut after it, so consumption stops at that pair. vcompresspd
 * packs the accepted lanes into the low lanes of a register, and a
 * masked store writes exactly those lanes: no branch per pair, and no
 * store past the accepted ones. (The memory form of vcompresspd is
 * avoided; it is microcoded on Zen 4.) Needs BMI2 (pdep) and POPCNT.
 */
[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] size_t
polarPairsAvx512(const uint64_t *u, size_t pairs, size_t want,
                 double *ys, double *r2s, size_t *accepted)
{
    size_t idx = 0;
    size_t p = 0;
    while (p < pairs && idx < want) {
        const size_t m = std::min<size_t>(8, pairs - p);
        const uint64_t *w = u + 2 * p;
        uint64_t pad[16];
        if (m < 8) {
            std::fill(std::copy(w, w + 2 * m, pad), pad + 16, 0);
            w = pad;
        }
        Lanes<8>::D y, r2;
        candidates<8, true>(w, y, r2);
        unsigned mask =
            _mm512_cmp_pd_mask(r2, _mm512_set1_pd(1.0), _CMP_LE_OQ) &
            _mm512_cmp_pd_mask(r2, _mm512_setzero_pd(), _CMP_NEQ_UQ);
        size_t take = __builtin_popcount(mask);
        size_t used = m;
        if (take >= want - idx) {
            take = want - idx; // <= 8, so the shifts below are in range
            const unsigned last =
                __builtin_ctz(_pdep_u32(1u << (take - 1), mask));
            mask &= (2u << last) - 1;
            used = last + 1;
        }
        const __mmask8 low = (1u << take) - 1;
        _mm512_mask_storeu_pd(ys + idx, low,
                              _mm512_maskz_compress_pd(mask, y));
        _mm512_mask_storeu_pd(r2s + idx, low,
                              _mm512_maskz_compress_pd(mask, r2));
        idx += take;
        p += used;
    }
    *accepted = idx;
    return p;
}

[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] void
refillAvx512(uint64_t *state, uint64_t *out)
{
    refillBody(state, out);
}

[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] void
polarFinishAvx512(const double *ys, const double *r2s,
                  const double *stds, size_t n, double mean, double *out)
{
    polarFinishBody<sqrtAvx2>(ys, r2s, stds, n, mean, out);
}

// One draw converts one 256-bit vector of four pairs, which nearly
// always holds an accept: 512-bit candidates measured slower here.
[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] size_t
polarOneAvx512(const uint64_t *u, size_t pairs, double mean,
               double stddev, double *out, size_t *accepted)
{
    return polarOneBody<4, true>(u, pairs, mean, stddev, out, accepted);
}
#endif

} // namespace

std::span<const RngKernels>
rngKernelVariants()
{
    // A plain array, so no destructor runs at exit while a static
    // Rng elsewhere may still draw.
    struct Supported
    {
        RngKernels list[3];
        size_t count = 0;
    };
    static const Supported supported = [] {
        Supported s{};
        s.list[s.count++] = {"baseline", refillBaseline,
                             polarPairsBaseline, polarFinishBaseline,
                             polarOneBaseline};
#ifdef __x86_64__
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2"))
            s.list[s.count++] = {"avx2", refillAvx2, polarPairsAvx2,
                                 polarFinishAvx2, polarOneAvx2};
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512dq") &&
            __builtin_cpu_supports("avx512vl") &&
            __builtin_cpu_supports("bmi2") &&
            __builtin_cpu_supports("popcnt"))
            s.list[s.count++] = {"avx512", refillAvx512, polarPairsAvx512,
                                 polarFinishAvx512, polarOneAvx512};
#endif
        return s;
    }();
    return {supported.list, supported.count};
}

} // namespace detail
} // namespace lt
