/**
 * @file
 * The bit-exact Gaussian draw kernels behind lt::Rng, and the
 * glibc-exact vector log and sin of the noise arithmetic, compiled once
 * per ISA and picked once per process from cpuid.
 *
 * Six entries over contiguous buffers (see detail::RngKernels), whose
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
 *  - polarUnit: the transform y * sqrt(-2 ln r^2 / r^2) in one pass:
 *    each vector's glibc-exact log (LogLanes), divide, sqrt and
 *    multiply stay in registers, and the lanes whose log it cannot
 *    vouch for, plus a short tail, are recomputed whole with glibc's
 *    log after the loop;
 *  - expandScaled: the unit draws spread over a chunk's positive
 *    stddevs as unit * stddev + mean, the mean elsewhere (a compare
 *    mask and a register vexpandpd on AVX-512, branchless scalar code
 *    otherwise);
 *  - polarOne: one draw in one call (Rng::gaussian), built from the
 *    polarPairs body with want == 1 and finishOne (its one log is
 *    glibc's scalar call);
 *  - glibcSin: glibc's sin on the phase band |phi + pi/2| <= 1/4, bit
 *    for bit (see sinPassBody), with glibc called after the vector
 *    loop for the lanes it cannot vouch for.
 *
 * The vector log (in polarUnit) and sin compute their function per
 * lane as an unevaluated sum y + e and keep y when y + e lies more than
 * the function's kGuard ulp from a rounding midpoint; every other lane
 * (about 1 in 20 for log, 1 in 8 for sin, plus any input outside the
 * domain) runs glibc's scalar call. The baseline polarUnit and
 * glibcSin are the scalar code.
 *
 * Each kernel is one always-inlined body, instantiated in a baseline
 * function and in [[gnu::target("avx2,fma")]] and
 * [[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] ones (the
 * AVX-512 candidate pass has its own body); rngKernelVariants() lists
 * those this CPU runs (__builtin_cpu_supports), and Rng uses the
 * last. No flag, option or environment variable selects a variant:
 * builds of src/ with other flags (servebench's) get the same dispatch.
 *
 * Every variant computes its draws from the same source (candidates,
 * unitOne and polarUnitBody, the expand), so every variant reproduces
 * the libstdc++ sequence exactly: each operation is an IEEE-exact one
 * (conversions, power-of-two scales, min, sqrt, divide) or a
 * correctly rounded multiply/add that must stay unfused, which the
 * fp-contract pragma below guarantees; the one libm call, log, returns
 * glibc's value in every variant. tests/test_util.cc runs every
 * variant the CPU supports against std::normal_distribution, its
 * polarUnit against the scalar formula with glibc's log, and its
 * glibcSin against glibc's scalar sin.
 */

// Keep every a*b + c as a rounded multiply followed by a rounded add.
// GCC's C++ default is fp-contract=fast, and under target("avx512f")
// it fuses x*x + y*y (and `* stddev + mean`) into vfmadd, intrinsics
// included, which changes r^2 and with it the draw sequence.
#pragma GCC optimize("fp-contract=off")

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>

#ifdef __x86_64__
#include <immintrin.h>
#endif

#include "util/libm_tables.hh"
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
 * One accepted pair's unit draw, y * sqrt(-2 * log(r2) / r2), with
 * glibc's log.
 */
[[gnu::always_inline]] inline double
unitOne(double y, double r2)
{
    return y * std::sqrt(-2.0 * std::log(r2) / r2);
}

/** One draw, in libstdc++'s order: (y * mult) * stddev + mean. */
[[gnu::always_inline]] inline double
finishOne(double y, double r2, double stddev, double mean)
{
    return unitOne(y, r2) * stddev + mean;
}

// ---- glibc-exact vector log and sin -----------------------------------
//
// A lane evaluates its function as an unevaluated double-double sum
// y + e (y = round(y + e)) whose error is below 2^-9 ulp(y) (against
// __float128 over 2^22 inputs each, at most 2^-15.9 ulp for log and
// 2^-10.5 ulp for sin, the latter at the band edge). glibc's
// own sources bound its results' errors at 0.519 ulp (log) and 0.548
// ulp (sin) in both its FMA and its baseline variants. When y + e lies
// more than g ulp from a rounding midpoint, the true value lies within
// 1/2 - g + 2^-9 ulp of y and more than 1/2 + g - 2^-9 ulp from either
// neighbor of y, so glibc must return y too once its bound is below
// that: each function's kGuard g is 1/40 for log (0.523 > 0.519) and
// 1/16 for sin (0.560 > 0.548). Every other lane, a power-of-two y
// (whose lower neighbor is half an ulp closer), and every input outside
// the lane's domain, calls glibc after the vector loop.

/** Elements per block of an exact pass (its deferred-index array). */
constexpr size_t kExactBlock = 256;

/** Knuth's TwoSum: s + err == a + b exactly, for any magnitudes. */
template <typename D>
[[gnu::always_inline]] inline void
twoSum(const D &a, const D &b, D &s, D &err)
{
    s = a + b;
    const D bb = s - a;
    err = (a - (s - bb)) + (b - bb);
}

#ifdef __x86_64__
// The target-specific lane operations of the exact passes. They are
// plain inline functions with the variant's target, inlined into the
// [[gnu::flatten]] kernels below (an always_inline body without the
// target could not inline them), and take vectors by reference so no
// vector crosses a call boundary (-Wpsabi). Lane masks are intrinsics:
// GCC 12 splits 512-bit vector-extension compares into scalar ones.

/** r = a * b + c with one rounding: the exact-product building block. */
[[gnu::target("avx2,fma")]] inline void
fmaLanes(const Lanes<4>::D &a, const Lanes<4>::D &b, const Lanes<4>::D &c,
         Lanes<4>::D &r)
{
    r = _mm256_fmadd_pd(a, b, c);
}

[[gnu::target("avx512f")]] inline void
fmaLanes(const Lanes<8>::D &a, const Lanes<8>::D &b, const Lanes<8>::D &c,
         Lanes<8>::D &r)
{
    r = _mm512_fmadd_pd(a, b, c);
}

/** r[l] = table[i[l]]. */
[[gnu::target("avx2,fma")]] inline void
gatherLanes(const double *table, const Lanes<4>::U &i, Lanes<4>::D &r)
{
    r = _mm256_i64gather_pd(table, (__m256i)i, 8);
}

[[gnu::target("avx512f")]] inline void
gatherLanes(const double *table, const Lanes<8>::U &i, Lanes<8>::D &r)
{
    r = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, (__m512i)i,
                                 table, 8);
}

/** r = sqrt(a), correctly rounded like the scalar sqrt. */
[[gnu::target("avx2,fma")]] inline void
sqrtLanes(const Lanes<4>::D &a, Lanes<4>::D &r)
{
    r = _mm256_sqrt_pd(a);
}

[[gnu::target("avx512f")]] inline void
sqrtLanes(const Lanes<8>::D &a, Lanes<8>::D &r)
{
    // The masked form with a defined source: GCC 12's unmasked
    // _mm512_sqrt_pd passes _mm512_undefined_pd, which trips
    // -Wmaybe-uninitialized.
    r = _mm512_mask_sqrt_pd(a, 0xFF, a);
}

/**
 * Bit l set for every lane l that must call glibc: all but the lanes
 * with d in [lo, hi] whose y is not a power of two (nor 0, subnormal
 * or NaN) and whose |e| is below (1/2 - guard) ulp(y).
 */
[[gnu::target("avx2,fma")]] inline unsigned
deferredLanes(const Lanes<4>::D &y, const Lanes<4>::D &e,
              const Lanes<4>::D &d, double lo, double hi, double guard)
{
    const __m256i yb = _mm256_castpd_si256(y);
    const __m256d ulp = _mm256_castsi256_pd(_mm256_and_si256(
        yb, _mm256_set1_epi64x(0x7ff0000000000000LL)));
    const __m256d abs_e = _mm256_andnot_pd(_mm256_set1_pd(-0.0), e);
    const __m256i mant_zero = _mm256_cmpeq_epi64(
        _mm256_and_si256(yb, _mm256_set1_epi64x(0x000fffffffffffffLL)),
        _mm256_setzero_si256());
    const __m256d keep = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(d, _mm256_set1_pd(lo), _CMP_GE_OQ),
                      _mm256_cmp_pd(d, _mm256_set1_pd(hi), _CMP_LE_OQ)),
        _mm256_andnot_pd(
            _mm256_castsi256_pd(mant_zero),
            _mm256_cmp_pd(abs_e,
                          _mm256_mul_pd(ulp, _mm256_set1_pd(
                                                 (0.5 - guard) * 0x1p-52)),
                          _CMP_LT_OQ)));
    return ~static_cast<unsigned>(_mm256_movemask_pd(keep)) & 0xFu;
}

[[gnu::target("avx512f,avx512dq,avx512vl,popcnt")]] inline unsigned
deferredLanes(const Lanes<8>::D &y, const Lanes<8>::D &e,
              const Lanes<8>::D &d, double lo, double hi, double guard)
{
    const __m512i yb = _mm512_castpd_si512(y);
    const __m512d ulp = _mm512_castsi512_pd(_mm512_and_si512(
        yb, _mm512_set1_epi64(0x7ff0000000000000LL)));
    const __m512d abs_e = _mm512_abs_pd(e);
    const __mmask8 keep =
        _mm512_cmp_pd_mask(d, _mm512_set1_pd(lo), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(d, _mm512_set1_pd(hi), _CMP_LE_OQ) &
        _mm512_test_epi64_mask(yb,
                               _mm512_set1_epi64(0x000fffffffffffffLL)) &
        _mm512_cmp_pd_mask(
            abs_e,
            _mm512_mul_pd(ulp, _mm512_set1_pd((0.5 - guard) * 0x1p-52)),
            _CMP_LT_OQ);
    return ~static_cast<unsigned>(keep) & 0xFFu;
}

/**
 * Append j + l to idx[cnt...] for every set bit l of `defer`, in lane
 * order, and advance cnt past them. idx must hold L slots past cnt.
 * AVX2 stores every lane and advances by its bit; AVX-512 compresses
 * the lane numbers in a register and stores them.
 */
[[gnu::target("avx2,fma")]] inline void
collectLanes(std::integral_constant<size_t, 4>, unsigned defer, uint32_t j,
             uint32_t *idx, size_t &cnt)
{
    for (unsigned l = 0; l < 4; ++l) {
        idx[cnt] = j + l;
        cnt += (defer >> l) & 1;
    }
}

[[gnu::target("avx512f,avx512dq,avx512vl,popcnt")]] inline void
collectLanes(std::integral_constant<size_t, 8>, unsigned defer, uint32_t j,
             uint32_t *idx, size_t &cnt)
{
    const __m256i lanes = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(j)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i *>(idx + cnt),
        _mm256_maskz_compress_epi32(static_cast<__mmask8>(defer), lanes));
    cnt += __builtin_popcount(defer);
}

#endif

/**
 * log on [2^-1022, 1]. With x = z 2^k, z in [kLogOff, 2 kLogOff), and
 * interval i's 1/c and log c = ch + cl from the table:
 * log x = k ln2 + log c + log1p(r), r = z / c - 1 = rh + rl exactly (an
 * FMA product error and two exact subtractions; |r| <= 2^-7), and
 * log1p(r) = r - r^2/2 + r^3 Q(r) with rh - rh^2/2 as a double-double
 * and the rest, each term far below ulp(y), summed in `lo`. The domain
 * value d is x.
 */
struct LogLanes
{
    static constexpr double kLo = 0x1p-1022;
    static constexpr double kHi = 1.0;
    /** Distance from a rounding midpoint, in ulp, below which glibc runs. */
    static constexpr double kGuard = 1.0 / 40;

    template <size_t L>
    [[gnu::always_inline]] static void
    eval(const typename Lanes<L>::D &x, typename Lanes<L>::D &y,
         typename Lanes<L>::D &e, typename Lanes<L>::D &d)
    {
        using D = typename Lanes<L>::D;
        using U = typename Lanes<L>::U;
        namespace m = libm;
        const U ix = (U)x;
        const U tmp = ix - m::kLogOff;
        const U i = (tmp >> (52 - m::kLogTableBits)) &
                    ((1u << m::kLogTableBits) - 1);
        const D z = (D)(ix - (tmp & 0xfff0000000000000ULL));
        // k, the signed top 12 bits of tmp, to double: k + 2^11 is a
        // 12-bit unsigned field, which the exponent bits of 2^52 make
        // the exact double 2^52 + k + 2^11.
        const D k = (D)(((tmp >> 52) ^ 0x800) | 0x4330000000000000ULL) -
                    (0x1p52 + 0x1p11);
        D invc{}, ch{}, cl{};
        gatherLanes(m::kLogInvC, i, invc);
        gatherLanes(m::kLogCHi, i, ch);
        gatherLanes(m::kLogCLo, i, cl);

        const D p = z * invc;
        D pe{};
        fmaLanes(z, invc, -p, pe);
        const D r0 = p - 1.0; // exact: p is within 2^-7 of 1
        const D rh = r0 + pe; // fast two-sum: r0 is 0 or |r0| >= |pe|
        const D rl = pe - (rh - r0);

        const D sq = rh * rh;
        D sqe{};
        fmaLanes(rh, rh, -sq, sqe);
        const D half = 0.5 * sq;
        const D s1 = rh - half; // fast two-sum: |half| < |rh|
        const D e1 = (rh - s1) - half;
        D q = D{} + m::kLog1pQ[7];
        for (int j = 6; j >= 0; --j)
            fmaLanes(q, rh, D{} + m::kLog1pQ[j], q);

        const D kh = k * m::kLn2Hi;
        D kl{};
        fmaLanes(k, D{} + m::kLn2Hi, -kh, kl);
        D s2{}, e2{}, s3{}, e3{};
        twoSum(kh, ch, s2, e2);
        twoSum(s2, s1, s3, e3);
        const D lo = rh * sq * q + (rl - 0.5 * sqe - rh * rl) + e1 +
                     (e2 + e3) + (kl + k * m::kLn2Lo + cl);
        y = s3 + lo; // fast two-sum: |lo| < |s3|
        e = lo - (y - s3);
        d = x;
    }
};

/**
 * sin on the phase band |phi + pi/2| <= 1/4. t = phi + pi/2 = th + tl,
 * whose first step t1 = phi + kPio2Hi is exact in the band (Sterbenz);
 * then sin(phi) = -cos(t) = -1 + t^2/2 + t^4 S(t^2) with t^2 as a
 * double-double, so y lies in [-1, -cos(1/4)]. The domain value d is
 * t1.
 */
struct SinLanes
{
    static constexpr double kLo = -0.25;
    static constexpr double kHi = 0.25;
    /** Fills a short last vector. */
    static constexpr double kPad = -libm::kPio2Hi;
    static constexpr double kGuard = 1.0 / 16; ///< see LogLanes::kGuard

    template <size_t L>
    [[gnu::always_inline]] static void
    eval(const typename Lanes<L>::D &phi, typename Lanes<L>::D &y,
         typename Lanes<L>::D &e, typename Lanes<L>::D &d)
    {
        using D = typename Lanes<L>::D;
        namespace m = libm;
        const D t1 = phi + m::kPio2Hi;
        // Fast two-sum: t1 is 0 or a multiple of 2^-52 > kPio2Lo.
        const D th = t1 + m::kPio2Lo;
        const D tl = m::kPio2Lo - (th - t1);

        const D uh = th * th;
        D ue{};
        fmaLanes(th, th, -uh, ue);
        const D ul = ue + 2.0 * th * tl;
        D s = D{} + m::kCosS[5];
        for (int j = 4; j >= 0; --j)
            fmaLanes(s, uh, D{} + m::kCosS[j], s);
        const D hh = 0.5 * uh;
        const D hl = 0.5 * ul + uh * uh * s;
        const D s1 = hh - 1.0; // fast two-sum: |hh| < 1
        const D e1 = hh - (s1 + 1.0);
        const D lo = e1 + hl;
        y = s1 + lo; // fast two-sum: |lo| < |s1|
        e = lo - (y - s1);
        d = t1;
    }
};

#ifdef __x86_64__
/**
 * The glibc-exact sin pass: out[j] = std::sin(x[j]) for j < n, bit for
 * bit. Per block of kExactBlock elements, the vector loop stores every
 * lane's SinLanes value and collects the lanes it cannot vouch for
 * (deferredLanes), with no data-dependent branch; a short last vector
 * runs from a copy padded with SinLanes::kPad. The collected lanes then
 * call glibc. Returns how many elements called glibc. `out` must not
 * overlap `x`.
 */
template <size_t L>
[[gnu::always_inline]] inline size_t
sinPassBody(const double *__restrict x, size_t n, double *__restrict out)
{
    using D = typename Lanes<L>::D;
    const std::integral_constant<size_t, L> lanes;
    uint32_t idx[kExactBlock + L]; // only [0, cnt) is read
    size_t deferred = 0;
    for (size_t base = 0; base < n; base += kExactBlock) {
        const size_t m = std::min(kExactBlock, n - base);
        const double *xb = x + base;
        double *ob = out + base;
        size_t cnt = 0;
        double t[L] = {}; // the short last vector's padded copy
        for (size_t j = 0; j < m; j += L) {
            const size_t real = std::min(L, m - j);
            const double *src = xb + j;
            if (real < L) {
                std::fill(std::copy(xb + j, xb + m, t), t + L,
                          SinLanes::kPad);
                src = t;
            }
            D v{}, y{}, e{}, d{};
            std::memcpy(&v, src, sizeof(D));
            SinLanes::eval<L>(v, y, e, d);
            if (real == L) {
                std::memcpy(ob + j, &y, sizeof(D));
            } else {
                std::memcpy(t, &y, sizeof(D));
                std::copy(t, t + real, ob + j);
            }
            collectLanes(lanes,
                         deferredLanes(y, e, d, SinLanes::kLo, SinLanes::kHi,
                                       SinLanes::kGuard) &
                             ((1u << real) - 1),
                         static_cast<uint32_t>(j), idx, cnt);
        }
        for (size_t q = 0; q < cnt; ++q)
            ob[idx[q]] = std::sin(xb[idx[q]]);
        deferred += cnt;
    }
    return deferred;
}
#endif

#ifdef __x86_64__
/**
 * The transform in one pass, L lanes wide: per vector, LogLanes' log
 * of r^2, then -2 log / r^2, its sqrt and the y multiply, with every
 * value kept in registers, so the divider's work overlaps the log
 * polynomial. Per block of kExactBlock elements, the lanes
 * deferredLanes cannot vouch for are collected with no data-dependent
 * branch; after the vector loop they, and a short tail, are recomputed
 * whole by unitOne with glibc's log. Returns the elements recomputed.
 */
template <size_t L>
[[gnu::always_inline]] inline size_t
polarUnitBody(const double *__restrict ys, const double *__restrict r2s,
              size_t n, double *__restrict out)
{
    using D = typename Lanes<L>::D;
    const std::integral_constant<size_t, L> lanes;
    uint32_t idx[kExactBlock + L]; // only [0, cnt) is read
    size_t recomputed = 0;
    for (size_t base = 0; base < n; base += kExactBlock) {
        const size_t m = std::min(kExactBlock, n - base);
        const size_t full = m / L * L;
        const double *yb = ys + base;
        const double *rb = r2s + base;
        double *ob = out + base;
        size_t cnt = 0;
        for (size_t j = 0; j < full; j += L) {
            D y{}, r2{}, lg{}, e{}, d{}, mult{};
            std::memcpy(&y, yb + j, sizeof(D));
            std::memcpy(&r2, rb + j, sizeof(D));
            LogLanes::eval<L>(r2, lg, e, d);
            sqrtLanes(-2.0 * lg / r2, mult);
            const D v = y * mult;
            std::memcpy(ob + j, &v, sizeof(D));
            collectLanes(lanes,
                         deferredLanes(lg, e, d, LogLanes::kLo,
                                       LogLanes::kHi, LogLanes::kGuard),
                         static_cast<uint32_t>(j), idx, cnt);
        }
        for (size_t q = 0; q < cnt; ++q)
            ob[idx[q]] = unitOne(yb[idx[q]], rb[idx[q]]);
        for (size_t j = full; j < m; ++j)
            ob[j] = unitOne(yb[j], rb[j]);
        recomputed += cnt + (m - full);
    }
    return recomputed;
}
#endif

/**
 * expandScaled in scalar code: every element reads the next unit draw
 * and keeps it only when its std is positive, by a bit mask rather
 * than a select, which GCC compiles to a branch that the holes'
 * data-dependent pattern mispredicts. A hole after the last positive
 * std reads the value just past them (k <= i < n, so the read stays
 * below n).
 */
[[gnu::always_inline]] inline void
expandScaledBody(const double *__restrict unit,
                 const double *__restrict stds, size_t n, double mean,
                 double *__restrict out)
{
    const uint64_t mean_bits = std::bit_cast<uint64_t>(mean);
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
        const double s = stds[i];
        const uint64_t positive = s > 0.0;
        const uint64_t keep = 0 - positive;
        const double v = unit[k] * s + mean;
        out[i] = std::bit_cast<double>(
            (std::bit_cast<uint64_t>(v) & keep) | (mean_bits & ~keep));
        k += positive;
    }
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

size_t
glibcSinBaseline(const double *x, size_t n, double *out)
{
    for (size_t j = 0; j < n; ++j)
        out[j] = std::sin(x[j]);
    return n;
}

size_t
polarUnitBaseline(const double *ys, const double *r2s, size_t n,
                  double *out)
{
    for (size_t j = 0; j < n; ++j)
        out[j] = unitOne(ys[j], r2s[j]);
    return n;
}

void
expandScaledBaseline(const double *unit, const double *stds, size_t n,
                     double mean, double *out)
{
    expandScaledBody(unit, stds, n, mean, out);
}

size_t
polarOneBaseline(const uint64_t *u, size_t pairs, double mean,
                 double stddev, double *out, size_t *accepted)
{
    return polarOneBody<2, false>(u, pairs, mean, stddev, out, accepted);
}

#ifdef __x86_64__

[[gnu::target("avx2,fma")]] void
refillAvx2(uint64_t *state, uint64_t *out)
{
    refillBody(state, out);
}

[[gnu::target("avx2,fma")]] size_t
polarPairsAvx2(const uint64_t *u, size_t pairs, size_t want, double *ys,
               double *r2s, size_t *accepted)
{
    return polarPairsBody<4, false>(u, pairs, want, ys, r2s, accepted);
}

[[gnu::target("avx2,fma"), gnu::flatten]] size_t
glibcSinAvx2(const double *x, size_t n, double *out)
{
    return sinPassBody<4>(x, n, out);
}

[[gnu::target("avx2,fma"), gnu::flatten]] size_t
polarUnitAvx2(const double *ys, const double *r2s, size_t n, double *out)
{
    return polarUnitBody<4>(ys, r2s, n, out);
}

[[gnu::target("avx2,fma")]] void
expandScaledAvx2(const double *unit, const double *stds, size_t n,
                 double mean, double *out)
{
    expandScaledBody(unit, stds, n, mean, out);
}

[[gnu::target("avx2,fma")]] size_t
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

[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt"), gnu::flatten]] size_t
glibcSinAvx512(const double *x, size_t n, double *out)
{
    return sinPassBody<8>(x, n, out);
}

[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt"), gnu::flatten]] size_t
polarUnitAvx512(const double *ys, const double *r2s, size_t n, double *out)
{
    return polarUnitBody<8>(ys, r2s, n, out);
}

/**
 * expandScaled eight elements per step: the positive-std mask, the
 * next popcount(mask) unit draws by a masked load (nothing past them is
 * read), vexpandpd in register form onto the mask's lanes (the memory
 * form is microcoded on Zen 4), then unit * std + mean there and the
 * mean elsewhere. The last step runs under a mask of the live lanes.
 */
[[gnu::target("avx512f,avx512dq,avx512vl,bmi2,popcnt")]] void
expandScaledAvx512(const double *unit, const double *stds, size_t n,
                   double mean, double *out)
{
    const __m512d mv = _mm512_set1_pd(mean);
    size_t k = 0;
    for (size_t i = 0; i < n; i += 8) {
        const __mmask8 live =
            n - i >= 8 ? 0xFF : static_cast<__mmask8>((1u << (n - i)) - 1);
        const __m512d s = _mm512_maskz_loadu_pd(live, stds + i);
        const __mmask8 positive =
            _mm512_cmp_pd_mask(s, _mm512_setzero_pd(), _CMP_GT_OQ);
        const unsigned take = __builtin_popcount(positive);
        const __m512d u = _mm512_maskz_expand_pd(
            positive,
            _mm512_maskz_loadu_pd(static_cast<__mmask8>((1u << take) - 1),
                                  unit + k));
        _mm512_mask_storeu_pd(
            out + i, live,
            _mm512_mask_add_pd(mv, positive, _mm512_mul_pd(u, s), mv));
        k += take;
    }
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
        s.list[s.count++] = {"baseline",           refillBaseline,
                             polarPairsBaseline,   polarUnitBaseline,
                             expandScaledBaseline, polarOneBaseline,
                             glibcSinBaseline};
#ifdef __x86_64__
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
            s.list[s.count++] = {"avx2",           refillAvx2,
                                 polarPairsAvx2,   polarUnitAvx2,
                                 expandScaledAvx2, polarOneAvx2,
                                 glibcSinAvx2};
        if (__builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512dq") &&
            __builtin_cpu_supports("avx512vl") &&
            __builtin_cpu_supports("bmi2") &&
            __builtin_cpu_supports("popcnt"))
            s.list[s.count++] = {"avx512",           refillAvx512,
                                 polarPairsAvx512,   polarUnitAvx512,
                                 expandScaledAvx512, polarOneAvx512,
                                 glibcSinAvx512};
#endif
        return s;
    }();
    return {supported.list, supported.count};
}

} // namespace detail

} // namespace lt
