/**
 * @file
 * Constants of the glibc-exact vector log and sin in
 * util/rng_kernels.cc. Generated by tools/libm_tables.cpp
 * (`./build/libm_tables > src/util/libm_tables.hh`); do not
 * edit by hand.
 */

#ifndef LT_UTIL_LIBM_TABLES_HH
#define LT_UTIL_LIBM_TABLES_HH

#include <cstdint>

namespace lt {
namespace detail {
namespace libm {

/** log: z = x / 2^k in [kLogOff, 2 kLogOff), 128 intervals. */
inline constexpr uint64_t kLogOff = 0x3fe6000000000000ULL;
inline constexpr int kLogTableBits = 7;

/** Interval i: 1/c (1 next to 1), log c = hi + lo. */
inline constexpr double kLogInvC[128] = {
    0x1.734f0c541fe8dp+0,    0x1.713786d9c7c09p+0,
    0x1.6f26016f26017p+0,    0x1.6d1a62681c861p+0,
    0x1.6b1490aa31a3dp+0,    0x1.691473a88d0cp+0,
    0x1.6719f3601671ap+0,    0x1.6524f853b4aa3p+0,
    0x1.63356b88ac0dep+0,    0x1.614b36831ae94p+0,
    0x1.5f66434292dfcp+0,    0x1.5d867c3ece2a5p+0,
    0x1.5babcc647fa91p+0,    0x1.59d61f123ccaap+0,
    0x1.580560158056p+0,    0x1.56397ba7c52e2p+0,
    0x1.54725e6bb82fep+0,    0x1.52aff56a8054bp+0,
    0x1.50f22e111c4c5p+0,    0x1.4f38f62dd4c9bp+0,
    0x1.4d843bedc2c4cp+0,    0x1.4bd3edda68fe1p+0,
    0x1.4a27fad76014ap+0,    0x1.488052201488p+0,
    0x1.46dce34596066p+0,    0x1.453d9e2c776cap+0,
    0x1.43a2730abee4dp+0,    0x1.420b5265e5951p+0,
    0x1.40782d10e6566p+0,    0x1.3ee8f42a5af07p+0,
    0x1.3d5d991aa75c6p+0,    0x1.3bd60d9232955p+0,
    0x1.3a524387ac822p+0,    0x1.38d22d366088ep+0,
    0x1.3755bd1c945eep+0,    0x1.35dce5f9f2af8p+0,
    0x1.34679ace01346p+0,    0x1.32f5ced6a1dfap+0,
    0x1.3187758e9ebb6p+0,    0x1.301c82ac4026p+0,
    0x1.2eb4ea1fed14bp+0,    0x1.2d50a012d50ap+0,
    0x1.2bef98e5a3711p+0,    0x1.2a91c92f3c105p+0,
    0x1.293725bb804a5p+0,    0x1.27dfa38a1ce4dp+0,
    0x1.268b37cd60127p+0,    0x1.2539d7e9177b2p+0,
    0x1.23eb79717605bp+0,    0x1.22a0122a0122ap+0,
    0x1.21579804855e6p+0,    0x1.2012012012012p+0,
    0x1.1ecf43c7fb84cp+0,    0x1.1d8f5672e4abdp+0,
    0x1.1c522fc1ce059p+0,    0x1.1b17c67f2bae3p+0,
    0x1.19e0119e0119ep+0,    0x1.18ab083902bdbp+0,
    0x1.1778a191bd684p+0,    0x1.1648d50fc3201p+0,
    0x1.151b9a3fdd5c9p+0,    0x1.13f0e8d344724p+0,
    0x1.12c8b89edc0acp+0,    0x1.11a3019a74826p+0,
    0x1.107fbbe01108p+0,    0x1.0f5edfab325a2p+0,
    0x1.0e40655826011p+0,    0x1.0d24456359e3ap+0,
    0x1.0c0a7868b4171p+0,    0x1.0af2f722eecb5p+0,
    0x1.09ddba6af836p+0,    0x1.08cabb37565e2p+0,
    0x1.07b9f29b8eae2p+0,    0x1.06ab59c7912fbp+0,
    0x1.059eea0727586p+0,    0x1.04949cc1664c5p+0,
    0x1.038c6b78247fcp+0,    0x1.02864fc7729e9p+0,
    0x1.0182436517a37p+0,    0x1p+0,
    0x1p+0,    0x1.fa11caa01fa12p-1,
    0x1.f6310aca0dbb5p-1,    0x1.f25f644230ab5p-1,
    0x1.ee9c7f8458e02p-1,    0x1.eae807aba01ebp-1,
    0x1.e741aa59750e4p-1,    0x1.e3a9179dc1a73p-1,
    0x1.e01e01e01e01ep-1,    0x1.dca01dca01dcap-1,
    0x1.d92f2231e7f8ap-1,    0x1.d5cac807572b2p-1,
    0x1.d272ca3fc5b1ap-1,    0x1.cf26e5c44bfc6p-1,
    0x1.cbe6d9601cbe7p-1,    0x1.c8b265afb8a42p-1,
    0x1.c5894d10d4986p-1,    0x1.c26b5392ea01cp-1,
    0x1.bf583ee868d8bp-1,    0x1.bc4fd65883e7bp-1,
    0x1.b951e2b18ff23p-1,    0x1.b65e2e3beee05p-1,
    0x1.b37484ad806cep-1,    0x1.b094b31d922a4p-1,
    0x1.adbe87f94905ep-1,    0x1.aaf1d2f87ebfdp-1,
    0x1.a82e65130e159p-1,    0x1.a574107688a4ap-1,
    0x1.a2c2a87c51cap-1,    0x1.a01a01a01a01ap-1,
    0x1.9d79f176b682dp-1,    0x1.9ae24ea5510dap-1,
    0x1.9852f0d8ec0ffp-1,    0x1.95cbb0be377aep-1,
    0x1.934c67f9b2ce6p-1,    0x1.90d4f120190d5p-1,
    0x1.8e6527af1373fp-1,    0x1.8bfce8062ff3ap-1,
    0x1.899c0f601899cp-1,    0x1.87427bcc092b9p-1,
    0x1.84f00c2780614p-1,    0x1.82a4a0182a4ap-1,
    0x1.8060180601806p-1,    0x1.7e225515a4f1dp-1,
    0x1.7beb3922e017cp-1,    0x1.79baa6bb6398bp-1,
    0x1.77908119ac60dp-1,    0x1.756cac201756dp-1,
};

inline constexpr double kLogCHi[128] = {
    -0x1.7cc7f7db46a0ep-2,    -0x1.76feecb947176p-2,
    -0x1.713e33a46a17cp-2,    -0x1.6b85b4cffa3fdp-2,
    -0x1.65d558d4ce00bp-2,    -0x1.602d08af091ecp-2,
    -0x1.5a8cadbbedfa1p-2,    -0x1.54f431b7be1a8p-2,
    -0x1.4f637ebba981p-2,    -0x1.49da7f3bcc42p-2,
    -0x1.44591e0539f49p-2,    -0x1.3edf463c1683ep-2,
    -0x1.396ce359bbf53p-2,    -0x1.3401e12aecbap-2,
    -0x1.2e9e2bce12286p-2,    -0x1.2941afb186b7cp-2,
    -0x1.23ec5991eba49p-2,    -0x1.1e9e1678899f5p-2,
    -0x1.1956d3b9bc2f9p-2,    -0x1.14167ef367784p-2,
    -0x1.0edd060b78082p-2,    -0x1.09aa572e6c6d4p-2,
    -0x1.047e60cde83b7p-2,    -0x1.feb2233ea07cbp-3,
    -0x1.f474b134df228p-3,    -0x1.ea4449f04aaf5p-3,
    -0x1.e020cc6235ab5p-3,    -0x1.d60a17f903514p-3,
    -0x1.cc000c9db3c52p-3,    -0x1.c2028ab17f9b5p-3,
    -0x1.b811730b823d4p-3,    -0x1.ae2ca6f672bd8p-3,
    -0x1.a454082e6ab03p-3,    -0x1.9a8778debaa3ap-3,
    -0x1.90c6db9fcbcdbp-3,    -0x1.871213750e994p-3,
    -0x1.7d6903caf5acdp-3,    -0x1.73cb9074fd14dp-3,
    -0x1.6a399dabbd383p-3,    -0x1.60b3100b09474p-3,
    -0x1.5737cc9018cddp-3,    -0x1.4dc7b897bc1c7p-3,
    -0x1.4462b9dc9b3dcp-3,    -0x1.3b08b6757f2a7p-3,
    -0x1.31b994d3a4f86p-3,    -0x1.28753bc11aba2p-3,
    -0x1.1f3b925f25d44p-3,    -0x1.160c8024b27bp-3,
    -0x1.0ce7ecdccc28bp-3,    -0x1.03cdc0a51ec0dp-3,
    -0x1.f57bc7d9005dbp-4,    -0x1.e3707ee30487bp-4,
    -0x1.d179788219362p-4,    -0x1.bf968769fca18p-4,
    -0x1.adc77ee5aea8ep-4,    -0x1.9c0c32d4d254dp-4,
    -0x1.8a6477a91dc29p-4,    -0x1.78d02263d82d7p-4,
    -0x1.674f089365a78p-4,    -0x1.55e10050e0382p-4,
    -0x1.4485e03dbdfbp-4,    -0x1.333d7f8183f4ap-4,
    -0x1.2207b5c7854a1p-4,    -0x1.10e45b3cae829p-4,
    -0x1.ffa6911ab9309p-5,    -0x1.dda8adc67ee59p-5,
    -0x1.bbcebfc68f424p-5,    -0x1.9a187b573de81p-5,
    -0x1.788595a3577c8p-5,    -0x1.5715c4c03cee1p-5,
    -0x1.35c8bfaa13069p-5,    -0x1.149e3e4005a8dp-5,
    -0x1.e72bf2813ce6ap-6,    -0x1.a55f548c5c427p-6,
    -0x1.63d6178690bbep-6,    -0x1.228fb1fea2e0ap-6,
    -0x1.c317384c75f0dp-7,    -0x1.41929f968330cp-7,
    -0x1.8121214586b02p-8,    0x0p+0,
    0x0p+0,    0x1.7dc475f810a69p-7,
    0x1.3cea44346a584p-6,    0x1.b9fc027af919ap-6,
    0x1.1b0d98923d97fp-5,    0x1.58a5bafc8e4d3p-5,
    0x1.95c830ec8e3f2p-5,    0x1.d276b8adb0b56p-5,
    0x1.075983598e471p-4,    0x1.253f62f0a1417p-4,
    0x1.42edcbea646eep-4,    0x1.60658a93750c4p-4,
    0x1.7da766d7b12dp-4,    0x1.9ab42462033aep-4,
    0x1.b78c82bb0edap-4,    0x1.d4313d66cb35dp-4,
    0x1.f0a30c01162a4p-4,    0x1.0671512ca596fp-3,
    0x1.14785846742acp-3,    0x1.2266f190a5acdp-3,
    0x1.303d718e47fd5p-3,    0x1.3dfc2b0ecc62ap-3,
    0x1.4ba36f39a55e5p-3,    0x1.59338d9982085p-3,
    0x1.66acd4272ad51p-3,    0x1.740f8f54037a3p-3,
    0x1.815c0a14357e9p-3,    0x1.8e928de886d41p-3,
    0x1.9bb362e7dfb85p-3,    0x1.a8becfc882f19p-3,
    0x1.b5b519e8fb5a6p-3,    0x1.c2968558c18c2p-3,
    0x1.cf6354e09c5ddp-3,    0x1.dc1bca0abec7bp-3,
    0x1.e8c0252aa5a6p-3,    0x1.f550a564b7b37p-3,
    0x1.00e6c45ad501dp-2,    0x1.071b85fcd590dp-2,
    0x1.0d46b579ab74bp-2,    0x1.136870293a8bp-2,
    0x1.1980d2dd4236fp-2,    0x1.1f8ff9e48a2f3p-2,
    0x1.2596010df763ap-2,    0x1.2b9303ab89d25p-2,
    0x1.31871c9544185p-2,    0x1.3772662bfd85cp-2,
    0x1.3d54fa5c1f71p-2,    0x1.432ef2a04e813p-2,
};

inline constexpr double kLogCLo[128] = {
    -0x1.e3c7fdc323c2dp-56,    0x1.398d9eb4ea363p-56,
    0x1.f6cf40b5c71a6p-57,    0x1.1af2c8dafcb08p-57,
    0x1.4e05a4748480ap-56,    -0x1.a45db7cfd923p-56,
    -0x1.64f5081307f22p-60,    0x1.0b3f6ef6ae452p-58,
    0x1.68cb3124b9245p-56,    0x1.d964a168ccacbp-57,
    -0x1.a76d6dc2782dap-59,    0x1.c852fe587def8p-57,
    0x1.5c5663663d163p-59,    -0x1.f95523adc5c9fp-57,
    0x1.f3ed72e23e134p-57,    -0x1.6a4678ebaa3p-59,
    -0x1.76eba35bbf0dep-61,    -0x1.64b0dd2687939p-58,
    -0x1.0e75a3542856fp-58,    -0x1.ef824daaf53e9p-56,
    -0x1.2d4b610d7d4f6p-57,    -0x1.f9e17343426a9p-56,
    -0x1.08869cbf9e344p-56,    -0x1.8de00938b4c3p-61,
    0x1.9f1df7b5daab7p-60,    0x1.f33919ab94074p-57,
    0x1.f0adb91423f18p-57,    0x1.50df841a71b7ap-57,
    -0x1.67a2a8500729ep-58,    -0x1.c11aa3853a5fp-57,
    0x1.d7c46328983c6p-58,    0x1.a4a356155f779p-57,
    0x1.e0df823a3cb3dp-58,    -0x1.28fbfb0e3f0fcp-58,
    0x1.357718d7ca4cfp-58,    0x1.a97a0ca115d6p-57,
    0x1.0b17c301d6e14p-57,    0x1.721a000b4cf01p-57,
    -0x1.76332bd4b341fp-57,    -0x1.526cee0fd7f4ap-57,
    0x1.00b28ef013c72p-57,    -0x1.b60ae1ff0e82ep-59,
    0x1.85388d830c709p-59,    -0x1.5e1ad9be0a4cdp-57,
    0x1.1238b5efe0665p-57,    0x1.7394d9fa33313p-57,
    -0x1.08b27be4e6b15p-57,    0x1.355bfd870afebp-59,
    -0x1.1b57fea88da98p-59,    -0x1.19e2d3f8b7d1p-57,
    0x1.d361574fb24e2p-58,    -0x1.9399d9aaf3b33p-59,
    0x1.b12841044a96cp-58,    0x1.06e4fb7af9c69p-58,
    -0x1.d7d8f39bee658p-58,    0x1.627a0e199f569p-58,
    0x1.3d4190a482421p-58,    -0x1.cbca5b4fdb87ep-58,
    -0x1.ca64e9980e048p-59,    -0x1.9a0629e3973e4p-58,
    -0x1.3ba349aadbc6dp-58,    0x1.adaa06e211e9ep-59,
    -0x1.b3f0431efb154p-58,    -0x1.9b5ed72e6d974p-58,
    0x1.cd9f1f95c2ef1p-59,    0x1.31936790bb3b2p-59,
    0x1.cd1862f854848p-59,    -0x1.b13b26f298a69p-64,
    -0x1.2f7c4c5b3c8bdp-62,    -0x1.5101dc4ebf91fp-59,
    0x1.50830a65543a8p-63,    0x1.a9a4168fcebebp-60,
    0x1.8a4bba6a354fap-60,    -0x1.f60d2fc36a0d9p-61,
    0x1.18ed4d357c9dcp-60,    -0x1.3284991fe3d5cp-61,
    -0x1.806208c04c21fp-61,    -0x1.3aae809b43ddp-61,
    0x1.c7d68c0d910f2p-62,    0x0p+0,
    0x0p+0,    0x1.74944bc161072p-61,
    -0x1.865ad48159dp-61,    -0x1.90ae69229dc86p-60,
    -0x1.74d7444dd6241p-59,    -0x1.cab8569c56e4p-64,
    0x1.eb41d00a417e9p-60,    0x1.078f14c95ff53p-59,
    0x1.006d2999e22dcp-58,    0x1.1f6d34e01d981p-61,
    -0x1.511583653349bp-58,    -0x1.f108b1d8436d3p-59,
    0x1.a2240644d7da2p-59,    -0x1.a099e1c184e8ep-59,
    -0x1.3ef0e61f9b03cp-58,    0x1.b90dd951d90fap-58,
    0x1.8be64b8b7759bp-59,    -0x1.2f39b81479b67p-58,
    0x1.94409f1d3f83ap-60,    -0x1.dab840e7f6177p-57,
    -0x1.b5ae71f658247p-57,    0x1.ba62b8c13f7f4p-57,
    -0x1.f767e433c98aap-57,    0x1.8d16eaaba9419p-57,
    -0x1.9201c9c3d5165p-59,    0x1.6d9bf9d57b326p-58,
    0x1.141b7f8c5fa9ep-58,    0x1.2589eb96a624p-59,
    -0x1.51439c1ff83e7p-58,    -0x1.a8c37918c39ebp-58,
    -0x1.d5d8023e61e5fp-57,    0x1.6108e3ae024acp-60,
    0x1.339a07d55b696p-57,    0x1.c698a33316dfbp-58,
    -0x1.dc074737f9135p-60,    -0x1.13a09202fe73dp-57,
    -0x1.3b9568ff6feadp-57,    0x1.08b83fcbdef4p-57,
    0x1.21f640e1e5ec9p-56,    0x1.86cc531dba494p-57,
    -0x1.02c2e4f1b2eb9p-56,    -0x1.93fbf3418960dp-57,
    -0x1.9eed8ae0ebd3cp-59,    -0x1.85ad7f614ab51p-58,
    -0x1.ea3598981366fp-57,    0x1.02a7589fba088p-57,
    0x1.53668e578d9cdp-58,    -0x1.83262e2b59206p-57,
};

/** ln 2 = hi + lo. */
inline constexpr double kLn2Hi = 0x1.62e42fefa39efp-1;
inline constexpr double kLn2Lo = 0x1.abc9e3b39803fp-56;

/** log1p(r) = r - r^2/2 + r^3 (q0 + q1 r + ... + q7 r^7). */
inline constexpr double kLog1pQ[8] = {
    0x1.5555555555555p-2,    -0x1p-2,
    0x1.999999999999ap-3,    -0x1.5555555555555p-3,
    0x1.2492492492492p-3,    -0x1p-3,
    0x1.c71c71c71c71cp-4,    -0x1.999999999999ap-4,
};

/** sin: pi/2 = hi + lo. */
inline constexpr double kPio2Hi = 0x1.921fb54442d18p+0;
inline constexpr double kPio2Lo = 0x1.1a62633145c07p-54;

/** -cos(t) = -1 + t^2/2 + t^4 (s0 + s1 t^2 + ... + s5 t^10). */
inline constexpr double kCosS[6] = {
    -0x1.5555555555555p-5,    0x1.6c16c16c16c17p-10,
    -0x1.a01a01a01a01ap-16,    0x1.27e4fb7789f5cp-22,
    -0x1.1eed8eff8d898p-29,    0x1.93974a8c07c9dp-37,
};

} // namespace libm
} // namespace detail
} // namespace lt

#endif // LT_UTIL_LIBM_TABLES_HH
