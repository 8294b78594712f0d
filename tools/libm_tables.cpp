/**
 * @file
 * libm_tables — writes src/util/libm_tables.hh, the constants of the
 * glibc-exact vector log and sin in src/util/rng_kernels.cc:
 *
 *   ./build/libm_tables > src/util/libm_tables.hh
 *
 * Every constant is computed in __float128 (113-bit significand, GCC's
 * software quad arithmetic; no libquadmath) and rounded once to double:
 *
 *  - log: z = x / 2^k lies in [kLogOff, 2 kLogOff), split by the top 7
 *    bits of (bits(z) - bits(kLogOff)) into 128 intervals. Interval i
 *    has a reciprocal center invc (a double) and log(c) = -log(invc)
 *    as a hi + lo pair, so log(x) = k ln2 + log(c) + log1p(z invc - 1)
 *    with z invc - 1 exact under FMA. The two intervals next to 1 take
 *    c = 1, so near 1 the result is log1p(z - 1) with no cancellation.
 *    Also ln2 as hi + lo and the log1p series coefficients 1/3 .. 1/10
 *    with alternating signs.
 *  - sin: pi/2 as hi + lo for the exact step t = phi + pi/2, and the
 *    cos series coefficients -1/4!, 1/6!, ..., -1/14!.
 *
 * The logs use 2 atanh((v - 1) / (v + 1)) and pi uses Machin's
 * formula, each summed until the terms fall below 2^-120 of the sum.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

using quad = __float128;

constexpr uint64_t kLogOff = 0x3fe6000000000000ULL;
constexpr int kTableBits = 7;
constexpr int kEntries = 1 << kTableBits;

quad
absq(quad v)
{
    return v < 0 ? -v : v;
}

/** sum_{j >= 0} sign^j v^(2j+1) / (2j+1): atanh (sign +1), atan (-1). */
quad
oddSeries(quad v, int sign)
{
    quad sum = 0;
    quad pow = v;
    for (int j = 0;; ++j) {
        const quad term = pow / (2 * j + 1);
        sum += (j % 2 != 0 && sign < 0) ? -term : term;
        if (absq(term) < absq(sum) * 0x1p-120)
            return sum;
        pow *= v * v;
    }
}

quad
logq(quad v)
{
    return 2 * oddSeries((v - 1) / (v + 1), +1);
}

double
bitsToDouble(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

uint64_t
doubleToBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** v as the pair hi = round(v), lo = round(v - hi). */
void
split(quad v, double &hi, double &lo)
{
    hi = static_cast<double>(v);
    lo = static_cast<double>(v - hi);
}

void
printArray(const char *name, const double *v, int n)
{
    std::printf("inline constexpr double %s[%d] = {\n", name, n);
    for (int i = 0; i < n; ++i)
        std::printf("    %a,%s", v[i], i % 2 == 1 || i + 1 == n ? "\n" : "");
    std::printf("};\n\n");
}

} // namespace

int
main()
{
    double invc[kEntries], logc_hi[kEntries], logc_lo[kEntries];
    const uint64_t one_index = (doubleToBits(1.0) - kLogOff) >>
                               (52 - kTableBits);
    for (int i = 0; i < kEntries; ++i) {
        const uint64_t lo_bits =
            kLogOff + (static_cast<uint64_t>(i) << (52 - kTableBits));
        const uint64_t hi_bits = lo_bits + (1ULL << (52 - kTableBits));
        if (i + 1 == static_cast<int>(one_index) ||
            i == static_cast<int>(one_index)) {
            invc[i] = 1.0;
            logc_hi[i] = 0.0;
            logc_lo[i] = 0.0;
            continue;
        }
        const quad center =
            (static_cast<quad>(bitsToDouble(lo_bits)) +
             static_cast<quad>(bitsToDouble(hi_bits))) /
            2;
        invc[i] = static_cast<double>(1 / center);
        split(-logq(static_cast<quad>(invc[i])), logc_hi[i], logc_lo[i]);
    }

    double ln2_hi, ln2_lo;
    split(2 * oddSeries(static_cast<quad>(1) / 3, +1), ln2_hi, ln2_lo);
    double log1p_q[8]; // r^3 Q(r): 1/3 - r/4 + r^2/5 - ... - r^7/10
    for (int j = 0; j < 8; ++j)
        log1p_q[j] = static_cast<double>(
            (j % 2 == 0 ? 1 : -1) / static_cast<quad>(j + 3));

    const quad pi = 16 * oddSeries(static_cast<quad>(1) / 5, -1) -
                    4 * oddSeries(static_cast<quad>(1) / 239, -1);
    double pio2_hi, pio2_lo;
    split(pi / 2, pio2_hi, pio2_lo);
    double cos_s[6]; // -cos(t) = -1 + t^2/2 + t^4 S(t^2)
    quad fact = 24;  // 4!
    for (int j = 0; j < 6; ++j) {
        cos_s[j] = static_cast<double>((j % 2 == 0 ? -1 : 1) / fact);
        fact *= static_cast<quad>(2 * j + 5) * (2 * j + 6);
    }

    std::printf(
        "/**\n"
        " * @file\n"
        " * Constants of the glibc-exact vector log and sin in\n"
        " * util/rng_kernels.cc. Generated by tools/libm_tables.cpp\n"
        " * (`./build/libm_tables > src/util/libm_tables.hh`); do not\n"
        " * edit by hand.\n"
        " */\n\n"
        "#ifndef LT_UTIL_LIBM_TABLES_HH\n"
        "#define LT_UTIL_LIBM_TABLES_HH\n\n"
        "#include <cstdint>\n\n"
        "namespace lt {\n"
        "namespace detail {\n"
        "namespace libm {\n\n"
        "/** log: z = x / 2^k in [kLogOff, 2 kLogOff), %d intervals. */\n"
        "inline constexpr uint64_t kLogOff = 0x%016" PRIx64 "ULL;\n"
        "inline constexpr int kLogTableBits = %d;\n\n",
        kEntries, kLogOff, kTableBits);
    std::printf("/** Interval i: 1/c (1 next to 1), log c = hi + lo. */\n");
    printArray("kLogInvC", invc, kEntries);
    printArray("kLogCHi", logc_hi, kEntries);
    printArray("kLogCLo", logc_lo, kEntries);
    std::printf("/** ln 2 = hi + lo. */\n"
                "inline constexpr double kLn2Hi = %a;\n"
                "inline constexpr double kLn2Lo = %a;\n\n",
                ln2_hi, ln2_lo);
    std::printf("/** log1p(r) = r - r^2/2 + r^3 (q0 + q1 r + ... + q7 "
                "r^7). */\n");
    printArray("kLog1pQ", log1p_q, 8);
    std::printf("/** sin: pi/2 = hi + lo. */\n"
                "inline constexpr double kPio2Hi = %a;\n"
                "inline constexpr double kPio2Lo = %a;\n\n",
                pio2_hi, pio2_lo);
    std::printf("/** -cos(t) = -1 + t^2/2 + t^4 (s0 + s1 t^2 + ... + s5 "
                "t^10). */\n");
    printArray("kCosS", cos_s, 6);
    std::printf("} // namespace libm\n"
                "} // namespace detail\n"
                "} // namespace lt\n\n"
                "#endif // LT_UTIL_LIBM_TABLES_HH\n");
    return 0;
}
