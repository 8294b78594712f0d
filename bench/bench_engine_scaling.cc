/**
 * @file
 * Execution-engine scaling microbench: GEMM throughput of the
 * software model vs thread count, for both the noisy photonic engine
 * (tile-sharded across DPTC core replicas) and the ideal blocked
 * matmul. Establishes the perf trajectory for later batching /
 * sharding work; rerun after touching the engine, the pool, or the
 * matmul kernel.
 *
 * Also asserts the determinism contract on every row: the result at
 * N threads must be bit-identical to the 1-thread result.
 *
 * Decode-regime scenario: a REAL autoregressive decode
 * (InferenceSession over a 256-dim causal model) on the noisy engine,
 * across the three encoded-operand cache states:
 *
 *   plans off   — every operand re-encoded per step (pre-PR-4 path);
 *   weight plans— static weights served from plans, K/V caches still
 *                 re-encoded per step (the PR 4 steady state);
 *   weight+kv   — weights from plans AND per-head K/V held encoded,
 *                 grown by O(dk) packed appends per token (this PR).
 *
 * All three must produce bit-identical logits at every step (same
 * request id — this pins the encoded-append and operand-view
 * refactors in CI), the kv column must show zero steady-state K/V
 * encodes (kv_encode_misses == 0 after warmup), and both caches must
 * record hits. The scenario runs with encoding noise off (dispersion
 * + systematic output noise only): under full encoding noise the
 * per-MAC Gaussian draws dominate and no amount of operand caching
 * moves the needle — the regime where caching matters is exactly the
 * calibrated/systematic-noise serving configuration.
 *
 * Tracing-overhead scenario (observability PR): the decode bench runs
 * with NO obs::TraceRecorder installed, so every TraceScope in the
 * engine/session/decoder hot path must compile down to one relaxed
 * atomic load and a not-taken branch. The cache-on ms/step is gated
 * against the committed BENCH_engine.json baseline with a < 3%
 * regression budget — if disabled tracing ever costs measurable decode
 * time, this exits nonzero. A second, informational measurement reruns
 * the same decode WITH a recorder installed and reports the traced
 * overhead (not gated: recording cost is a price the user opts into).
 *
 * Paper-default decode row ("decode_paper"): the same model with
 * encoding noise ON (3 draws and one sin per MAC), bit-exact, on a
 * short prompt (each token is ~1.2M MACs). Its draws per step are
 * pinned: --csv/--json exit nonzero if they move.
 *
 * Gaussian-draw row ("rng"): ns/draw of per-call, bulk and Fast
 * sampling, plus the engine's real draw shape under encoding noise
 * (a fresh tile Rng, then per k-slice one fillGaussianScaled over the
 * pass's dots, 3n + 1 stddevs each) on the draw kernels cpuid picked
 * and on the baseline ones. Both must hash equal to the same pattern
 * drawn by per-call gaussian(), or --csv/--json exit nonzero. The row
 * also times two glibc-exact passes against their scalar code, per
 * element: the fused transform polarUnit over accepted polar pairs in
 * 256-element calls (a bulk fill's chunk) against the scalar
 * y * sqrt(-2 log r^2 / r^2), and glibcSin over engine phases in
 * 144-element calls (a row of 12 dots x 12 wavelengths) against
 * glibc's sin, with the fraction of elements each pass recomputes in
 * scalar code; both must equal their scalar code bitwise.
 *
 * Usage: bench_engine_scaling [--csv] [--json [path]]
 *
 * --csv prints the rows as CSV on stdout (the CI smoke mode) and
 * exits nonzero on any bit-identity violation or a dead cache;
 * --json writes the per-PR perf-trajectory snapshot (default path
 * BENCH_engine.json, committed at the repo root so the scaling
 * numbers are diffable across PRs; host hardware-thread count is
 * recorded so snapshots are comparable across machines).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/dptc.hh"
#include "nn/execution_engine.hh"
#include "nn/inference_session.hh"
#include "nn/transformer.hh"
#include "obs/trace.hh"
#include "util/fast_rng.hh"
#include "util/linalg.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace {

using namespace lt;

constexpr size_t kDim = 256; ///< 256 x 256 x 256 GEMM
constexpr int kReps = 3;

/**
 * The decode perf gate of the fast-noise-pipeline PR: the committed
 * bit-exact cache-on ms/step BEFORE the pipeline rewrite (PR 5's
 * BENCH_engine.json). The rewritten bit-exact path must beat it by at
 * least 1.5x, and the Fast sampler must beat the bit-exact path.
 */
constexpr double kPreRewriteDecodeMsPerStep = 7.42;
constexpr double kDecodeSpeedupGate = 1.5;

/**
 * Tracing-overhead gate of the observability PR: the committed
 * cache-on ms/step of BENCH_engine.json at the time the serve path
 * was instrumented. With tracing disabled (no recorder installed —
 * this bench's default state) the decode must stay within
 * kTracingOverheadBudget of it: disabled instrumentation is one
 * relaxed atomic load + branch per scope and must not show up in
 * ms/step. Re-pin the baseline whenever BENCH_engine.json is
 * regenerated for an unrelated perf change.
 */
constexpr double kCommittedCacheOnMsPerStep = 3.93543;
constexpr double kTracingOverheadBudget = 1.03; ///< < 3% regression

double
secondsOf(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Row
{
    size_t threads;
    double photonic_s;
    double photonic_gmacs;
    double photonic_speedup;
    bool identical;
    double matmul_s;
    double matmul_speedup;
};

struct DecodeResult
{
    size_t dim;
    size_t steps;
    size_t prompt;
    double plans_off_ms;     ///< per-step, every operand re-encoded
    double weight_plans_ms;  ///< per-step, PR 4 state: weights cached
    double kv_plans_ms;      ///< per-step, weights + encoded K/V
    double fast_ms;          ///< per-step, caches + NoiseSampler::Fast
    double speedup;          ///< plans_off / kv_plans
    double kv_speedup;       ///< weight_plans / kv_plans (this PR)
    double fast_speedup;     ///< kv_plans / fast (bit-exact vs Fast)
    bool identical;          ///< bit-exact columns bitwise equal
    size_t draws_per_step;      ///< Gaussian draws/step, bit-exact
    size_t fast_draws_per_step; ///< Gaussian draws/step, Fast
    size_t kv_requants;      ///< beta-growth requants over the run
    // Steady-state gate, measured over the record-free tail window:
    // every product a cache hit, ZERO encodes of either class.
    size_t weight_hits;
    size_t weight_misses;    ///< want 0
    size_t kv_hits;
    size_t kv_misses;        ///< want 0
    // KV memory of the run, in the serve layer's two models: what a
    // dense max_tokens reservation holds for the session's lifetime
    // vs the block-paged footprint of the tokens actually cached
    // (serve/kv_pool geometry: block_tokens x 2 x dim doubles/layer).
    size_t kv_context_tokens;       ///< final K/V tokens per layer
    size_t kv_dense_reserve_bytes;  ///< max_tokens worst case
    size_t kv_paged_resident_bytes; ///< blocks covering the context
    size_t kv_block_tokens;
};

/** Per-draw cost of the three Gaussian pipelines [ns]. */
struct RngBenchResult
{
    double scalar_ns;       ///< Rng::gaussian per-call (blocked engine)
    double blocked_ns;      ///< Rng::fillGaussian bulk fill
    double fast_ns;         ///< FastRng::fillGaussian (Ziggurat)
    const char *kernels;    ///< draw-kernel variant cpuid picked
    double dot_ns;          ///< engine dot pattern, that variant
    double dot_baseline_ns; ///< engine dot pattern, baseline kernels
    bool dot_identical;     ///< both match the per-call reference
    double unit_scalar_ns;  ///< scalar transform per accepted pair
    double unit_kernel_ns;  ///< that variant's polarUnit per pair
    double unit_deferred;   ///< its pairs recomputed in scalar [frac]
    double sin_glibc_ns;    ///< glibc's sin per element, engine phases
    double sin_kernel_ns;   ///< that variant's glibcSin per element
    double sin_deferred;    ///< its elements that called glibc [frac]
    bool exact_identical;   ///< both passes equal their scalar code
};

/** One element-wise pass timed against its scalar code. */
struct ExactPassTiming
{
    double scalar_ns;
    double kernel_ns;
    double deferred;
    bool identical;
};

/** Output hash and cost of one run of the engine's dot draw pattern. */
struct DotPatternRun
{
    uint64_t hash;
    uint64_t draws;
    double seconds;
};

/** Dots per (tile, k-slice) pass of a stacked decode row: 1 x nv. */
constexpr size_t kPatternDots = 12;
/** Its k-slice depths: a 32-deep product on 12 wavelengths. */
constexpr size_t kPatternDepths[3] = {12, 12, 8};

/**
 * The draw shape of the encoding-noise DPTC path (Dptc::packedSlice):
 * a fresh Rng(deriveSeed(stream, tile)) per output tile, then per
 * k-slice ONE fillGaussianScaled over the row's stddevs, which hold
 * per dot 3n encoding stds (x magnitude, y magnitude, phase per
 * wavelength; zero operands leave zero-std holes) and then the dot's
 * systematic std. A tile is one stacked decode row: kPatternDots dots
 * per pass, k-slices of depth 12, 12, 8. `stds` holds the three
 * passes' arrays back to back. With `per_call`, every element is
 * drawn by its own gaussian() call, the reference the bulk path must
 * reproduce bit for bit.
 */
DotPatternRun
runDotPattern(const detail::RngKernels &kernels,
              const std::vector<double> &stds, bool per_call)
{
    constexpr size_t kTiles = 512;
    std::vector<double> out(stds.size());
    DotPatternRun run{0xcbf29ce484222325ULL, 0, 0.0};
    auto mix = [&run](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        run.hash = (run.hash ^ bits) * 0x100000001b3ULL;
    };
    run.seconds = secondsOf([&] {
        for (size_t t = 0; t < kTiles; ++t) {
            Rng rng(deriveSeed(0xD07, t), kernels);
            size_t base = 0;
            for (size_t depth : kPatternDepths) {
                const size_t n = kPatternDots * (3 * depth + 1);
                double *o = out.data() + base;
                const double *sd = stds.data() + base;
                if (per_call) {
                    for (size_t i = 0; i < n; ++i)
                        o[i] = rng.gaussian(0.0, sd[i]);
                } else {
                    rng.fillGaussianScaled(std::span<double>(o, n),
                                           std::span<const double>(sd, n),
                                           0.0);
                }
                base += n;
            }
            for (double v : out)
                mix(v);
            run.draws += rng.drawCount();
        }
    });
    return run;
}

/**
 * ns per element of a kernel pass against its scalar code over `elems`
 * elements, best of kReps runs of 8 sweeps: `scalar(ref)` writes every
 * element's reference value, and `pass(b, m, out)` runs the kernel on
 * elements [b, b + m) (calls of `chunk` elements) and returns how many
 * it recomputed in scalar code. Also gives that fraction and whether
 * every output equals the reference bitwise.
 */
template <typename Scalar, typename Pass>
ExactPassTiming
timeExactPass(size_t elems, size_t chunk, Scalar scalar, Pass pass)
{
    constexpr int kSweeps = 8;
    std::vector<double> ref(elems), out(elems);
    ExactPassTiming t{1e30, 1e30, 0.0, true};
    size_t deferred = 0;
    for (int r = 0; r < kReps; ++r) {
        t.scalar_ns = std::min(t.scalar_ns, secondsOf([&] {
            for (int s = 0; s < kSweeps; ++s)
                scalar(ref.data());
        }));
        deferred = 0;
        t.kernel_ns = std::min(t.kernel_ns, secondsOf([&] {
            for (int s = 0; s < kSweeps; ++s)
                for (size_t b = 0; b < elems; b += chunk)
                    deferred += pass(b, std::min(chunk, elems - b),
                                     out.data() + b);
        }));
    }
    const double swept = static_cast<double>(kSweeps * elems);
    t.scalar_ns *= 1e9 / swept;
    t.kernel_ns *= 1e9 / swept;
    t.deferred = static_cast<double>(deferred) / swept;
    t.identical =
        std::memcmp(ref.data(), out.data(), elems * sizeof(double)) == 0;
    return t;
}

/** ns/draw of scalar vs blocked-bulk vs Fast sampling. */
RngBenchResult
runRngMicrobench()
{
    constexpr size_t kDraws = 2'000'000;
    constexpr size_t kBuf = 4096;
    RngBenchResult res;
    double sink = 0.0;
    {
        Rng rng(1);
        double s = secondsOf([&] {
            double acc = 0.0;
            for (size_t i = 0; i < kDraws; ++i)
                acc += rng.gaussian(0.0, 1.0);
            sink += acc;
        });
        res.scalar_ns = s / kDraws * 1e9;
    }
    std::vector<double> buf(kBuf);
    {
        Rng rng(2);
        double s = secondsOf([&] {
            for (size_t i = 0; i < kDraws / kBuf; ++i)
                rng.fillGaussian(buf, 0.0, 1.0);
        });
        res.blocked_ns = s / ((kDraws / kBuf) * kBuf) * 1e9;
    }
    {
        FastRng rng(3);
        double s = secondsOf([&] {
            for (size_t i = 0; i < kDraws / kBuf; ++i)
                rng.fillGaussian(buf, 0.0, 1.0);
        });
        res.fast_ns = s / ((kDraws / kBuf) * kBuf) * 1e9;
    }
    sink += buf[0];
    if (sink == 0.12345) // defeat dead-code elimination of the loops
        std::cerr << "";

    // Each pass's stddevs as Dptc::packedSlice builds them: per dot,
    // 0.04 x |operand| magnitude stds with quantized operands (one in
    // eight is zero), the phase std, then the systematic std.
    std::vector<double> stds;
    Rng sgen(0x57D);
    for (size_t depth : kPatternDepths)
        for (size_t d = 0; d < kPatternDots; ++d) {
            for (size_t i = 0; i < 3 * depth; ++i)
                stds.push_back(i % 3 == 2
                                   ? 0.01
                                   : 0.04 *
                                         static_cast<double>(
                                             sgen.uniformInt(0, 7)) /
                                         7.0);
            stds.push_back(0.02);
        }
    const auto variants = detail::rngKernelVariants();
    const detail::RngKernels &selected = variants.back();
    const detail::RngKernels &baseline = variants.front();
    const DotPatternRun ref = runDotPattern(baseline, stds, true);
    auto best = [&](const detail::RngKernels &k, bool &identical) {
        double s = 1e30;
        for (int r = 0; r < kReps; ++r) {
            const DotPatternRun run = runDotPattern(k, stds, false);
            identical &= run.hash == ref.hash && run.draws == ref.draws;
            s = std::min(s, run.seconds / static_cast<double>(run.draws));
        }
        return s * 1e9;
    };
    res.kernels = selected.name;
    res.dot_identical = true;
    res.dot_ns = best(selected, res.dot_identical);
    res.dot_baseline_ns = best(baseline, res.dot_identical);

    // The glibc-exact passes on their engine inputs: accepted polar
    // pairs from the selected candidate pass, and drifted phases of a
    // paper-default 12-wavelength DDot (dispersion + N(0, 2 deg)).
    constexpr size_t kExactElems = 1 << 15;
    std::vector<double> r2s(kExactElems), ys(kExactElems);
    {
        Rng words(0x1065);
        std::vector<uint64_t> u(2 * kExactElems);
        size_t got = 0;
        while (got < kExactElems) {
            for (uint64_t &w : u)
                w = words.nextU64();
            size_t accepted = 0;
            selected.polarPairs(u.data(), kExactElems, kExactElems - got,
                                ys.data() + got, r2s.data() + got,
                                &accepted);
            got += accepted;
        }
    }
    std::vector<double> phases(kExactElems);
    {
        const core::DDot ddot(12);
        Rng drift(0x5157);
        drift.fillGaussian(phases, 0.0, ddot.noiseConfig().phaseNoiseStdRad());
        for (size_t i = 0; i < kExactElems; ++i)
            phases[i] += -M_PI / 2.0 + ddot.channels()[i % 12].phase_error;
    }
    const ExactPassTiming unit_t = timeExactPass(
        kExactElems, 256,
        [&](double *ref) {
            for (size_t i = 0; i < kExactElems; ++i)
                ref[i] = ys[i] * std::sqrt(-2.0 * std::log(r2s[i]) / r2s[i]);
        },
        [&](size_t b, size_t m, double *out) {
            return selected.polarUnit(ys.data() + b, r2s.data() + b, m, out);
        });
    const ExactPassTiming sin_t = timeExactPass(
        kExactElems, 144,
        [&](double *ref) {
            for (size_t i = 0; i < kExactElems; ++i)
                ref[i] = std::sin(phases[i]);
        },
        [&](size_t b, size_t m, double *out) {
            return selected.glibcSin(phases.data() + b, m, out);
        });
    res.unit_scalar_ns = unit_t.scalar_ns;
    res.unit_kernel_ns = unit_t.kernel_ns;
    res.unit_deferred = unit_t.deferred;
    res.sin_glibc_ns = sin_t.scalar_ns;
    res.sin_kernel_ns = sin_t.kernel_ns;
    res.sin_deferred = sin_t.deferred;
    res.exact_identical = unit_t.identical && sin_t.identical;
    return res;
}

/** Shape of the decode rows (see file header): a 256-dim causal LM
 *  decoding kSteps tokens after a kPrompt-token prompt. */
constexpr size_t kDecodeDim = 256;
constexpr size_t kPrompt = 96;
constexpr size_t kSteps = 32;

/** What every decode row runs: the engine's noise config, the model,
 *  its prompt, and the token fed at each step. */
struct DecodeWorkload
{
    core::DptcConfig dcfg;
    nn::TransformerClassifier model;
    std::vector<int> prompt;
    std::vector<int> next;

    DecodeWorkload();
};

nn::TransformerConfig
decodeModelConfig()
{
    nn::TransformerConfig mcfg;
    mcfg.dim = kDecodeDim;
    mcfg.depth = 2;
    mcfg.heads = 8;
    mcfg.mlp_hidden = 2 * kDecodeDim;
    mcfg.num_classes = 256;
    mcfg.vocab_size = 256;
    mcfg.max_tokens = kPrompt + kSteps;
    mcfg.pooling = nn::Pooling::LastToken;
    mcfg.causal = true;
    return mcfg;
}

DecodeWorkload::DecodeWorkload()
    : model(decodeModelConfig()), prompt(kPrompt), next(kSteps)
{
    dcfg.input_bits = 8;
    dcfg.noise.enable_encoding_noise = false;

    Rng rng(0xDEC0DE);
    for (int &t : prompt)
        t = static_cast<int>(rng.uniformInt(0, 255));
    for (int &t : next)
        t = static_cast<int>(rng.uniformInt(0, 255));
}

/** The decode-regime cache comparison (see file header). */
DecodeResult
runDecodeScenario()
{
    constexpr int kDecodeReps = 6;
    const auto &[dcfg, model, prompt, next] = DecodeWorkload();

    // One engine per cache state; same request id everywhere, so the
    // three columns must agree bit-for-bit at every step.
    nn::ExecutionEngine off_engine(
        nn::EngineConfig{dcfg, core::EvalMode::Noisy, 8, false,
                         false});
    nn::ExecutionEngine weights_engine(
        nn::EngineConfig{dcfg, core::EvalMode::Noisy, 8, true, false});
    nn::ExecutionEngine kv_engine(
        nn::EngineConfig{dcfg, core::EvalMode::Noisy, 8, true, true});
    // The Fast-sampler column: same caches, same request id, Ziggurat
    // noise stream (deterministic, but NOT bitwise comparable to the
    // bit-exact columns — it is excluded from the identity gate).
    core::DptcConfig fast_cfg = dcfg;
    fast_cfg.noise.sampler = core::NoiseSampler::Fast;
    nn::ExecutionEngine fast_engine(
        nn::EngineConfig{fast_cfg, core::EvalMode::Noisy, 8, true,
                         true});

    auto runColumn = [&](nn::ExecutionEngine &engine,
                         std::vector<Matrix> &out, double &best_s) {
        best_s = 1e30;
        for (int r = 0; r < kDecodeReps; ++r) {
            nn::InferenceSession session(model, engine,
                                         nn::QuantConfig::w8a8(),
                                         /*request_id=*/7);
            session.prefill(prompt);
            // Warm one step (plan builds; KV seeding already happened
            // at prefill), then reset stats so the measured counters
            // are the steady state.
            session.decodeStep(next[0]);
            engine.resetStats();
            std::vector<Matrix> logits(kSteps - 1);
            double s = secondsOf([&] {
                for (size_t i = 1; i < kSteps; ++i)
                    logits[i - 1] = session.decodeStep(next[i]);
            });
            best_s = std::min(best_s, s);
            out = std::move(logits);
        }
    };

    std::vector<Matrix> off_out, weights_out, kv_out, fast_out;
    double off_s, weights_s, kv_s, fast_s;
    runColumn(off_engine, off_out, off_s);
    runColumn(weights_engine, weights_out, weights_s);
    runColumn(kv_engine, kv_out, kv_s);
    // Stats survive from the last measured rep (31 steps): the
    // bit-exact draw load of one decode step.
    const size_t kv_draws = kv_engine.stats().gaussian_draws.load();
    runColumn(fast_engine, fast_out, fast_s);
    const size_t fast_draws =
        fast_engine.stats().gaussian_draws.load();
    // Beta-growth requantizations over the whole measured run: a new
    // token whose magnitude sets a per-operand record forces one
    // (bit-identity-preserving) in-place requant; records decay like
    // ln(T) — report them honestly.
    const size_t kv_requants =
        kv_engine.stats().kv_encode_misses.load();

    // Steady-state gate: replay the decode and measure only the tail
    // window, after the running betas have seen (for this fixed seed
    // — everything here is bit-reproducible) their last record: every
    // weight GEMM must be a plan hit and every K/V product an
    // encoded-cache hit, with ZERO encodes of either class. This is
    // the nonzero-exit acceptance gate of the encoded K/V cache.
    constexpr size_t kSteadyTail = 3;
    {
        nn::InferenceSession session(model, kv_engine,
                                     nn::QuantConfig::w8a8(),
                                     /*request_id=*/7);
        session.prefill(prompt);
        for (size_t i = 0; i + kSteadyTail < kSteps; ++i)
            session.decodeStep(next[i]);
        kv_engine.resetStats();
        for (size_t i = kSteps - kSteadyTail; i < kSteps; ++i)
            session.decodeStep(next[i]);
    }

    DecodeResult res;
    res.dim = kDecodeDim;
    res.steps = kSteps;
    res.prompt = kPrompt;
    res.plans_off_ms = off_s / (kSteps - 1) * 1e3;
    res.weight_plans_ms = weights_s / (kSteps - 1) * 1e3;
    res.kv_plans_ms = kv_s / (kSteps - 1) * 1e3;
    res.fast_ms = fast_s / (kSteps - 1) * 1e3;
    res.speedup = res.plans_off_ms / res.kv_plans_ms;
    res.kv_speedup = res.weight_plans_ms / res.kv_plans_ms;
    res.fast_speedup = res.kv_plans_ms / res.fast_ms;
    res.draws_per_step = kv_draws / (kSteps - 1);
    res.fast_draws_per_step = fast_draws / (kSteps - 1);
    res.identical = off_out.size() == weights_out.size() &&
                    off_out.size() == kv_out.size();
    for (size_t s = 0; res.identical && s < off_out.size(); ++s)
        res.identical =
            off_out[s].maxAbsDiff(weights_out[s]) == 0.0 &&
            off_out[s].maxAbsDiff(kv_out[s]) == 0.0;
    res.kv_requants = kv_requants;
    res.weight_hits = kv_engine.stats().weight_encode_hits.load();
    res.weight_misses = kv_engine.stats().weight_encode_misses.load();
    res.kv_hits = kv_engine.stats().kv_encode_hits.load();
    res.kv_misses = kv_engine.stats().kv_encode_misses.load();

    constexpr size_t kBlockTokens = 16;
    const size_t bytes_per_token_layer =
        2 * kDecodeDim * sizeof(double);
    res.kv_context_tokens = kPrompt + kSteps;
    res.kv_block_tokens = kBlockTokens;
    const nn::TransformerConfig &mcfg = model.config();
    res.kv_dense_reserve_bytes =
        mcfg.max_tokens * mcfg.depth * bytes_per_token_layer;
    res.kv_paged_resident_bytes =
        mcfg.depth *
        ((res.kv_context_tokens + kBlockTokens - 1) / kBlockTokens) *
        kBlockTokens * bytes_per_token_layer;
    return res;
}

/** Shape of the paper-default decode row (see file header). */
constexpr size_t kPaperPrompt = 8;
constexpr size_t kPaperSteps = 4;
/**
 * Gaussian draws per measured step of that row: three encoding draws
 * per MAC of nonzero operands plus the systematic draws. It moves only
 * if the work or the noise stream changes.
 */
constexpr uint64_t kPaperDrawsPerStep = 3454879;

struct PaperDecodeResult
{
    double ms_per_step;
    uint64_t draws_per_step;
};

/**
 * The paper-default decode row: DecodeWorkload's model and engine
 * (weight and K/V plans on, bit-exact) with encoding noise on, so
 * every MAC takes its magnitude and phase draws and one sin. Prefill
 * the first kPaperPrompt prompt tokens, warm one step, then time
 * kPaperSteps steps; best of two sessions.
 */
PaperDecodeResult
runPaperDecode()
{
    constexpr int kPaperReps = 2;
    DecodeWorkload w;
    w.dcfg.noise.enable_encoding_noise = true;
    nn::ExecutionEngine engine(
        nn::EngineConfig{w.dcfg, core::EvalMode::Noisy, 8, true, true});
    const std::vector<int> prompt(w.prompt.begin(),
                                  w.prompt.begin() + kPaperPrompt);
    PaperDecodeResult res{1e30, 0};
    for (int r = 0; r < kPaperReps; ++r) {
        nn::InferenceSession session(w.model, engine,
                                     nn::QuantConfig::w8a8(),
                                     /*request_id=*/7);
        session.prefill(prompt);
        session.decodeStep(w.next[0]);
        engine.resetStats();
        const double s = secondsOf([&] {
            for (size_t i = 1; i <= kPaperSteps; ++i)
                session.decodeStep(w.next[i]);
        });
        res.ms_per_step = std::min(res.ms_per_step, s / kPaperSteps * 1e3);
        res.draws_per_step =
            engine.stats().gaussian_draws.load() / kPaperSteps;
    }
    return res;
}

/**
 * Fault-layer acceptance gate (robustness PR). Three engines on the
 * same 256^3 operands and stream:
 *
 *   off       — fault layer inactive (the default config);
 *   verify    — ABFT checksums armed, injection off;
 *   recovered — a dead replica injected, detected, retried onto
 *               healthy replicas, and (past the threshold)
 *               quarantined.
 *
 * All three results must be bitwise identical: verification never
 * changes values, and recovery re-executes tiles on replicas whose
 * noise is replica-independent. The injected run must actually
 * detect and quarantine — a silent fault layer is a failure. The
 * fault-OFF hot-loop cost is gated separately by the decode ms/step
 * budget above (the default engine carries the fault branch).
 */
struct FaultGateResult
{
    bool off_vs_verify = false;    ///< bitwise equal
    bool off_vs_recovered = false; ///< bitwise equal
    uint64_t faults_detected = 0;  ///< injected run, want > 0
    uint64_t quarantines = 0;      ///< injected run, want >= 1
    bool ok() const
    {
        return off_vs_verify && off_vs_recovered &&
               faults_detected > 0 && quarantines >= 1;
    }
};

FaultGateResult
runFaultGate(const Matrix &a, const Matrix &b)
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;

    nn::EngineConfig off_cfg{dcfg, core::EvalMode::Noisy, 8, true,
                             true};
    nn::EngineConfig verify_cfg = off_cfg;
    verify_cfg.fault_policy.verify = true;
    nn::EngineConfig faulty_cfg = off_cfg;
    faulty_cfg.faults.replicas.resize(8);
    faulty_cfg.faults.replicas[2].dead = true;

    nn::ExecutionEngine off_engine(off_cfg);
    nn::ExecutionEngine verify_engine(verify_cfg);
    nn::ExecutionEngine faulty_engine(faulty_cfg);

    Matrix want = off_engine.gemm(a, b, /*stream=*/0);
    Matrix verified = verify_engine.gemm(a, b, /*stream=*/0);
    Matrix recovered = faulty_engine.gemm(a, b, /*stream=*/0);

    FaultGateResult res;
    res.off_vs_verify = want.maxAbsDiff(verified) == 0.0;
    res.off_vs_recovered = want.maxAbsDiff(recovered) == 0.0;
    nn::EngineStatus status = faulty_engine.status();
    res.faults_detected = status.faults_detected;
    res.quarantines = status.quarantines;
    return res;
}

/**
 * The kv_plans decode column re-timed WITH a TraceRecorder installed:
 * the informational traced counterpart of the tracing-off overhead
 * gate. Ring capacity is sized so nothing drops mid-run; the recorder
 * is uninstalled before returning.
 */
double
runTracedDecodeMsPerStep(uint64_t *dropped)
{
    constexpr int kDecodeReps = 3;
    const auto &[dcfg, model, prompt, next] = DecodeWorkload();

    nn::ExecutionEngine engine(
        nn::EngineConfig{dcfg, core::EvalMode::Noisy, 8, true, true});

    obs::TraceRecorder recorder(1 << 18);
    obs::installRecorder(&recorder);
    double best_s = 1e30;
    for (int r = 0; r < kDecodeReps; ++r) {
        nn::InferenceSession session(model, engine,
                                     nn::QuantConfig::w8a8(),
                                     /*request_id=*/7);
        session.prefill(prompt);
        session.decodeStep(next[0]); // warm plan builds
        double s = secondsOf([&] {
            for (size_t i = 1; i < kSteps; ++i)
                session.decodeStep(next[i]);
        });
        best_s = std::min(best_s, s);
    }
    obs::installRecorder(nullptr);
    *dropped = recorder.droppedEvents();
    return best_s / (kSteps - 1) * 1e3;
}

} // namespace

int
main(int argc, char **argv)
{
    bool csv = false;
    bool json = false;
    std::string json_path = "BENCH_engine.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--csv") {
            csv = true;
        } else if (arg == "--json") {
            json = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                json_path = argv[++i];
        } else {
            std::cerr << "usage: bench_engine_scaling [--csv] "
                         "[--json [path]]\n";
            return 2;
        }
    }

    Rng rng(0xBE7C);
    Matrix a(kDim, kDim), b(kDim, kDim);
    for (double &v : a.data())
        v = rng.uniform(-1.0, 1.0);
    for (double &v : b.data())
        v = rng.uniform(-1.0, 1.0);

    core::DptcConfig dcfg;
    dcfg.input_bits = 8;

    const double macs = static_cast<double>(kDim) * kDim * kDim;
    std::vector<Row> rows;
    Matrix reference;

    for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);

        Matrix out = engine.gemm(a, b); // warm-up + correctness probe
        double ph_best = 1e30;
        for (int r = 0; r < kReps; ++r)
            ph_best = std::min(
                ph_best, secondsOf([&] { out = engine.gemm(a, b); }));

        double mm_best = 1e30;
        Matrix mm_out;
        for (int r = 0; r < kReps; ++r)
            mm_best = std::min(
                mm_best, secondsOf([&] { mm_out = matmul(a, b); }));

        Row row;
        row.threads = threads;
        row.photonic_s = ph_best;
        row.photonic_gmacs = macs / ph_best / 1e9;
        row.matmul_s = mm_best;
        if (threads == 1) {
            reference = out;
            row.photonic_speedup = 1.0;
            row.matmul_speedup = 1.0;
        } else {
            row.photonic_speedup = rows.front().photonic_s / ph_best;
            row.matmul_speedup = rows.front().matmul_s / mm_best;
        }
        row.identical = out.maxAbsDiff(reference) == 0.0;
        rows.push_back(row);
    }
    ThreadPool::setGlobalThreads(0);

    DecodeResult decode = runDecodeScenario();
    const PaperDecodeResult paper = runPaperDecode();
    FaultGateResult fault = runFaultGate(a, b);
    RngBenchResult rngb = runRngMicrobench();
    uint64_t traced_dropped = 0;
    const double traced_ms = runTracedDecodeMsPerStep(&traced_dropped);
    const double traced_overhead =
        decode.kv_plans_ms > 0.0 ? traced_ms / decode.kv_plans_ms
                                 : 0.0;

    if (json) {
        // The committed perf-trajectory snapshot: one object per
        // thread count, plus enough host context to interpret it.
        std::ofstream out(json_path);
        out << "{\n  \"bench\": \"engine_scaling\",\n"
            << "  \"gemm\": \"" << kDim << "x" << kDim << "x" << kDim
            << "\",\n  \"hardware_threads\": "
            << std::thread::hardware_concurrency() << ",\n"
            << "  \"rows\": [\n";
        for (size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            out << "    {\"threads\": " << r.threads
                << ", \"photonic_s\": " << r.photonic_s
                << ", \"photonic_gmacs\": " << r.photonic_gmacs
                << ", \"photonic_speedup\": " << r.photonic_speedup
                << ", \"bit_identical\": "
                << (r.identical ? "true" : "false")
                << ", \"matmul_s\": " << r.matmul_s
                << ", \"matmul_speedup\": " << r.matmul_speedup << "}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        out << "  ],\n"
            << "  \"rng\": {\"scalar_ns_per_draw\": " << rngb.scalar_ns
            << ", \"blocked_ns_per_draw\": " << rngb.blocked_ns
            << ", \"fast_ns_per_draw\": " << rngb.fast_ns
            << ", \"kernels\": \"" << rngb.kernels << "\""
            << ", \"dot_pattern_ns_per_draw\": " << rngb.dot_ns
            << ", \"dot_pattern_baseline_ns_per_draw\": "
            << rngb.dot_baseline_ns << ", \"dot_pattern_identical\": "
            << (rngb.dot_identical ? "true" : "false")
            << ", \"unit_scalar_ns_per_draw\": " << rngb.unit_scalar_ns
            << ", \"unit_kernel_ns_per_draw\": " << rngb.unit_kernel_ns
            << ", \"unit_deferred_frac\": " << rngb.unit_deferred
            << ", \"sin_glibc_ns_per_elem\": " << rngb.sin_glibc_ns
            << ", \"sin_kernel_ns_per_elem\": " << rngb.sin_kernel_ns
            << ", \"sin_deferred_frac\": " << rngb.sin_deferred
            << ", \"exact_identical\": "
            << (rngb.exact_identical ? "true" : "false") << "},\n"
            << "  \"decode\": {\"model\": \"dim" << decode.dim
            << "x2L8H\", \"prompt\": " << decode.prompt
            << ", \"steps\": " << decode.steps
            << ", \"noise\": \"systematic+dispersion\""
            << ", \"cache_off_ms_per_step\": " << decode.plans_off_ms
            << ", \"weight_plans_ms_per_step\": "
            << decode.weight_plans_ms
            << ", \"cache_on_ms_per_step\": " << decode.kv_plans_ms
            << ", \"fast_sampler_ms_per_step\": " << decode.fast_ms
            << ", \"cache_speedup\": " << decode.speedup
            << ", \"kv_cache_speedup_vs_pr4\": " << decode.kv_speedup
            << ", \"fast_speedup_vs_bitexact\": "
            << decode.fast_speedup
            << ", \"gaussian_draws_per_step\": "
            << decode.draws_per_step
            << ", \"fast_gaussian_draws_per_step\": "
            << decode.fast_draws_per_step
            << ", \"bit_identical\": "
            << (decode.identical ? "true" : "false")
            << ", \"kv_requants_over_run\": " << decode.kv_requants
            << ", \"steady_weight_encode_hits\": "
            << decode.weight_hits
            << ", \"steady_weight_encode_misses\": "
            << decode.weight_misses
            << ", \"steady_kv_encode_hits\": " << decode.kv_hits
            << ", \"steady_kv_encode_misses\": " << decode.kv_misses
            << ", \"kv_context_tokens\": "
            << decode.kv_context_tokens
            << ", \"kv_block_tokens\": " << decode.kv_block_tokens
            << ", \"kv_dense_reserve_bytes\": "
            << decode.kv_dense_reserve_bytes
            << ", \"kv_paged_resident_bytes\": "
            << decode.kv_paged_resident_bytes << "},\n"
            << "  \"decode_paper\": {\"model\": \"dim" << decode.dim
            << "x2L8H\", \"prompt\": " << kPaperPrompt
            << ", \"steps\": " << kPaperSteps
            << ", \"noise\": \"paper default\""
            << ", \"bit_exact_ms_per_step\": " << paper.ms_per_step
            << ", \"gaussian_draws_per_step\": " << paper.draws_per_step
            << ", \"pinned_draws_per_step\": " << kPaperDrawsPerStep
            << "},\n"
            << "  \"fault_gate\": {\"off_vs_verify_identical\": "
            << (fault.off_vs_verify ? "true" : "false")
            << ", \"off_vs_recovered_identical\": "
            << (fault.off_vs_recovered ? "true" : "false")
            << ", \"faults_detected\": " << fault.faults_detected
            << ", \"quarantines\": " << fault.quarantines << "},\n"
            << "  \"tracing\": {\"committed_cache_on_ms_per_step\": "
            << kCommittedCacheOnMsPerStep
            << ", \"overhead_budget\": " << kTracingOverheadBudget
            << ", \"traced_cache_on_ms_per_step\": " << traced_ms
            << ", \"traced_overhead_vs_untraced\": " << traced_overhead
            << ", \"trace_dropped_events\": " << traced_dropped
            << "}\n}\n";
        // stderr: keeps the CSV stream clean when modes are combined.
        std::cerr << "wrote " << json_path << "\n";
    }

    // The determinism contracts are this bench's CI signal: a
    // non-bit-identical scaling row, a cached-vs-uncached decode
    // mismatch, or a dead encode cache is a hard failure in every
    // output mode.
    bool all_identical = true;
    for (const Row &r : rows)
        all_identical &= r.identical;
    // Steady-state decode: both caches alive, ZERO re-encodes of
    // weights or K/V after warmup — the acceptance gate of the
    // encoded K/V cache (a dead KV cache fails CI here).
    const bool decode_ok = decode.identical && decode.weight_hits > 0 &&
                           decode.weight_misses == 0 &&
                           decode.kv_hits > 0 && decode.kv_misses == 0;
    const bool paper_draws_ok = paper.draws_per_step == kPaperDrawsPerStep;
    // Noise-pipeline perf gates: the rewritten bit-exact path must
    // hold >= 1.5x over the committed pre-rewrite decode baseline, and
    // the Fast sampler must beat the bit-exact path outright.
    const bool bitexact_fast_enough =
        decode.kv_plans_ms <=
        kPreRewriteDecodeMsPerStep / kDecodeSpeedupGate;
    const bool fast_beats_bitexact = decode.fast_ms < decode.kv_plans_ms;
    // Observability gate: with no recorder installed the decode must
    // not regress more than the tracing-overhead budget vs the
    // committed baseline — disabled instrumentation has to be free.
    const bool tracing_off_free =
        decode.kv_plans_ms <=
        kCommittedCacheOnMsPerStep * kTracingOverheadBudget;
    const bool perf_ok =
        bitexact_fast_enough && fast_beats_bitexact && tracing_off_free;
    // Fault-layer gate: verification and recovery both bit-identical
    // to the fault-free engine, and the injected run actually fired.
    const bool fault_ok = fault.ok();

    if (csv) {
        std::cout << "threads,photonic_s,photonic_gmacs,"
                     "photonic_speedup,bit_identical,matmul_s,"
                     "matmul_speedup,hardware_threads\n";
        for (const Row &r : rows)
            std::cout << r.threads << "," << r.photonic_s << ","
                      << r.photonic_gmacs << "," << r.photonic_speedup
                      << "," << (r.identical ? 1 : 0) << ","
                      << r.matmul_s << "," << r.matmul_speedup << ","
                      << std::thread::hardware_concurrency() << "\n";
        std::cout << "\ndecode_model,cache_off_ms_per_step,"
                     "weight_plans_ms_per_step,cache_on_ms_per_step,"
                     "fast_sampler_ms_per_step,"
                     "cache_speedup,kv_cache_speedup_vs_pr4,"
                     "fast_speedup_vs_bitexact,"
                     "gaussian_draws_per_step,"
                     "fast_gaussian_draws_per_step,"
                     "bit_identical,kv_requants_over_run,"
                     "steady_weight_encode_hits,"
                     "steady_weight_encode_misses,"
                     "steady_kv_encode_hits,steady_kv_encode_misses\n"
                  << "dim" << decode.dim << "x2L8H,"
                  << decode.plans_off_ms << ","
                  << decode.weight_plans_ms << ","
                  << decode.kv_plans_ms << "," << decode.fast_ms << ","
                  << decode.speedup << ","
                  << decode.kv_speedup << ","
                  << decode.fast_speedup << ","
                  << decode.draws_per_step << ","
                  << decode.fast_draws_per_step << ","
                  << (decode.identical ? 1 : 0) << ","
                  << decode.kv_requants << "," << decode.weight_hits
                  << "," << decode.weight_misses << ","
                  << decode.kv_hits << "," << decode.kv_misses
                  << "\n";
        std::cout << "\ndecode_paper_model,decode_paper_prompt,"
                     "decode_paper_steps,decode_paper_ms_per_step,"
                     "decode_paper_gaussian_draws_per_step,"
                     "decode_paper_pinned_draws_per_step\n"
                  << "dim" << decode.dim << "x2L8H," << kPaperPrompt
                  << "," << kPaperSteps << "," << paper.ms_per_step << ","
                  << paper.draws_per_step << "," << kPaperDrawsPerStep
                  << "\n";
        std::cout << "\nrng_scalar_ns_per_draw,rng_blocked_ns_per_draw,"
                     "rng_fast_ns_per_draw,rng_kernels,"
                     "rng_dot_pattern_ns_per_draw,"
                     "rng_dot_pattern_baseline_ns_per_draw,"
                     "rng_dot_pattern_identical,"
                     "rng_unit_scalar_ns_per_draw,"
                     "rng_unit_kernel_ns_per_draw,rng_unit_deferred_frac,"
                     "rng_sin_glibc_ns_per_elem,rng_sin_kernel_ns_per_elem,"
                     "rng_sin_deferred_frac,rng_exact_identical\n"
                  << rngb.scalar_ns << "," << rngb.blocked_ns << ","
                  << rngb.fast_ns << "," << rngb.kernels << ","
                  << rngb.dot_ns << "," << rngb.dot_baseline_ns << ","
                  << (rngb.dot_identical ? 1 : 0) << ","
                  << rngb.unit_scalar_ns << "," << rngb.unit_kernel_ns << ","
                  << rngb.unit_deferred << "," << rngb.sin_glibc_ns << ","
                  << rngb.sin_kernel_ns << "," << rngb.sin_deferred << ","
                  << (rngb.exact_identical ? 1 : 0) << "\n";
        std::cout << "\nfault_off_vs_verify_identical,"
                     "fault_off_vs_recovered_identical,"
                     "fault_faults_detected,fault_quarantines\n"
                  << (fault.off_vs_verify ? 1 : 0) << ","
                  << (fault.off_vs_recovered ? 1 : 0) << ","
                  << fault.faults_detected << "," << fault.quarantines
                  << "\n";
        std::cout << "\ncommitted_cache_on_ms_per_step,"
                     "tracing_overhead_budget,"
                     "traced_cache_on_ms_per_step,"
                     "traced_overhead_vs_untraced,"
                     "trace_dropped_events,tracing_off_free\n"
                  << kCommittedCacheOnMsPerStep << ","
                  << kTracingOverheadBudget << "," << traced_ms << ","
                  << traced_overhead << "," << traced_dropped << ","
                  << (tracing_off_free ? 1 : 0) << "\n";
    }
    if (csv || json) {
        if (!all_identical)
            std::cerr << "DETERMINISM VIOLATION: results differ "
                         "across thread counts\n";
        if (!decode.identical)
            std::cerr << "DETERMINISM VIOLATION: cached decode logits "
                         "differ from the re-encode reference\n";
        else if (!decode_ok)
            std::cerr << "ENCODE CACHE VIOLATION: weight hits="
                      << decode.weight_hits
                      << " misses=" << decode.weight_misses
                      << ", kv hits=" << decode.kv_hits
                      << " misses=" << decode.kv_misses
                      << " (want hits > 0 and steady-state misses == "
                         "0 on both)\n";
        if (!bitexact_fast_enough)
            std::cerr << "NOISE PIPELINE PERF VIOLATION: bit-exact "
                         "decode "
                      << decode.kv_plans_ms << " ms/step > "
                      << kPreRewriteDecodeMsPerStep / kDecodeSpeedupGate
                      << " (committed pre-rewrite baseline "
                      << kPreRewriteDecodeMsPerStep << " / "
                      << kDecodeSpeedupGate << "x gate)\n";
        if (!fast_beats_bitexact)
            std::cerr << "NOISE PIPELINE PERF VIOLATION: Fast sampler "
                      << decode.fast_ms
                      << " ms/step not faster than bit-exact "
                      << decode.kv_plans_ms << "\n";
        if (!tracing_off_free)
            std::cerr << "TRACING OVERHEAD VIOLATION: tracing-disabled "
                         "decode "
                      << decode.kv_plans_ms << " ms/step > "
                      << kCommittedCacheOnMsPerStep *
                             kTracingOverheadBudget
                      << " (committed baseline "
                      << kCommittedCacheOnMsPerStep << " x "
                      << kTracingOverheadBudget
                      << " budget) — disabled TraceScopes must be "
                         "free\n";
        if (!rngb.dot_identical)
            std::cerr << "DETERMINISM VIOLATION: bulk draws of the dot "
                         "pattern differ from per-call gaussian()\n";
        if (!rngb.exact_identical)
            std::cerr << "DETERMINISM VIOLATION: the " << rngb.kernels
                      << " polarUnit/glibcSin passes differ from the "
                         "scalar transform/glibc's sin\n";
        if (!paper_draws_ok)
            std::cerr << "DRAW COUNT VIOLATION: paper-default decode "
                      << paper.draws_per_step << " draws/step, pinned "
                      << kPaperDrawsPerStep << "\n";
        if (!fault_ok)
            std::cerr << "FAULT LAYER VIOLATION: off/verify identical="
                      << fault.off_vs_verify
                      << " off/recovered identical="
                      << fault.off_vs_recovered
                      << " faults_detected=" << fault.faults_detected
                      << " quarantines=" << fault.quarantines
                      << " (want identical=1, detected > 0, "
                         "quarantines >= 1)\n";
        return all_identical && decode_ok && perf_ok && fault_ok &&
                       rngb.dot_identical && rngb.exact_identical &&
                       paper_draws_ok
                   ? 0
                   : 1;
    }

    printBanner(std::cout, "Execution-engine scaling: 256^3 GEMM "
                           "throughput vs thread count");
    std::cout << "host hardware threads: "
              << std::thread::hardware_concurrency() << "\n\n";
    Table table({"threads", "photonic [s]", "GMAC/s", "speedup",
                 "bit-identical", "matmul [s]", "speedup"});
    for (const Row &r : rows) {
        table.addRow({std::to_string(r.threads),
                      units::fmtFixed(r.photonic_s, 3),
                      units::fmtFixed(r.photonic_gmacs, 3),
                      units::fmtFixed(r.photonic_speedup, 2) + "x",
                      r.identical ? "yes" : "NO",
                      units::fmtFixed(r.matmul_s, 4),
                      units::fmtFixed(r.matmul_speedup, 2) + "x"});
    }
    table.print(std::cout);
    std::cout
        << "\nDeterminism: every thread count must report "
           "bit-identical = yes\n(counter-seeded tile noise). Speedup "
           "saturates at min(hardware threads,\nengine cores).\n";

    printBanner(std::cout,
                "Decode regime: dim-" + std::to_string(decode.dim) +
                    " causal decode (prompt " +
                    std::to_string(decode.prompt) + ", " +
                    std::to_string(decode.steps) +
                    " steps), encoded-operand caches");
    Table dtable({"cache state", "ms/step", "speedup", "bit-identical",
                  "draws/step", "w hits/misses", "kv hits/misses"});
    dtable.addRow({"plans off",
                   units::fmtFixed(decode.plans_off_ms, 3), "1.00x",
                   "-", "-", "-", "-"});
    dtable.addRow({"weight plans (PR4)",
                   units::fmtFixed(decode.weight_plans_ms, 3),
                   units::fmtFixed(decode.plans_off_ms /
                                       decode.weight_plans_ms,
                                   2) +
                       "x",
                   "-", "-", "-", "-"});
    dtable.addRow({"weight+kv plans",
                   units::fmtFixed(decode.kv_plans_ms, 3),
                   units::fmtFixed(decode.speedup, 2) + "x",
                   decode.identical ? "yes" : "NO",
                   std::to_string(decode.draws_per_step),
                   std::to_string(decode.weight_hits) + "/" +
                       std::to_string(decode.weight_misses),
                   std::to_string(decode.kv_hits) + "/" +
                       std::to_string(decode.kv_misses)});
    dtable.addRow({"+ fast sampler",
                   units::fmtFixed(decode.fast_ms, 3),
                   units::fmtFixed(decode.plans_off_ms / decode.fast_ms,
                                   2) +
                       "x",
                   "n/a",
                   std::to_string(decode.fast_draws_per_step), "-",
                   "-"});
    dtable.print(std::cout);
    std::cout
        << "\nStationary weights are encoded once per version; the "
           "growing K/V caches are\nencoded once at prefill and grown "
           "by O(dk) packed appends per token.\nAll bit-exact cache "
           "states must produce bit-identical logits, and "
           "steady-state\nmisses must be zero on both caches. The "
           "fast-sampler row draws Ziggurat noise\n(deterministic, "
           "different stream — excluded from the identity gate). "
           "Scenario\nnoise: dispersion + systematic output term "
           "(encoding noise off — with it on,\nper-MAC Gaussian draws "
           "dominate and caching is invisible).\n";

    std::cout << "\nPaper-default noise (encoding noise on, prompt "
              << kPaperPrompt << ", " << kPaperSteps
              << " steps, bit-exact): "
              << units::fmtFixed(paper.ms_per_step, 2) << " ms/step, "
              << paper.draws_per_step << " draws/step (pinned "
              << kPaperDrawsPerStep << ").\n";

    printBanner(std::cout, "Gaussian draw pipelines: ns/draw");
    Table rtable({"pipeline", "ns/draw"});
    rtable.addRow({"Rng::gaussian (scalar, blocked engine)",
                   units::fmtFixed(rngb.scalar_ns, 1)});
    rtable.addRow({"Rng::fillGaussian (bulk, bit-exact)",
                   units::fmtFixed(rngb.blocked_ns, 1)});
    rtable.addRow({"FastRng::fillGaussian (Ziggurat)",
                   units::fmtFixed(rngb.fast_ns, 1)});
    rtable.addRow({std::string("dot pattern, ") + rngb.kernels +
                       " kernels",
                   units::fmtFixed(rngb.dot_ns, 1)});
    rtable.addRow({"dot pattern, baseline kernels",
                   units::fmtFixed(rngb.dot_baseline_ns, 1)});
    rtable.print(std::cout);
    std::cout << "\nDot pattern: a fresh tile Rng, then per k-slice "
                 "one fillGaussianScaled over\n12 dots x (3n + 1) "
                 "stddevs (n = 12, 12, 8); both variants bit-identical "
                 "to\nper-call gaussian(): "
              << (rngb.dot_identical ? "yes" : "NO") << ".\n";
    Table etable({"pass", "scalar ns/elem", "kernel ns/elem",
                  "recomputed"});
    etable.addRow({"polarUnit, polar pairs",
                   units::fmtFixed(rngb.unit_scalar_ns, 2),
                   units::fmtFixed(rngb.unit_kernel_ns, 2),
                   units::fmtFixed(rngb.unit_deferred, 3)});
    etable.addRow({"sin, engine phases",
                   units::fmtFixed(rngb.sin_glibc_ns, 2),
                   units::fmtFixed(rngb.sin_kernel_ns, 2),
                   units::fmtFixed(rngb.sin_deferred, 3)});
    std::cout << "\n";
    etable.print(std::cout);
    std::cout << "\n" << rngb.kernels
              << " glibc-exact passes equal their scalar code bitwise: "
              << (rngb.exact_identical ? "yes" : "NO") << ".\n";
    std::cout << "\nDecode perf gates (enforced in --csv/--json): "
                 "bit-exact cache-on <= "
              << units::fmtFixed(kPreRewriteDecodeMsPerStep /
                                     kDecodeSpeedupGate,
                                 3)
              << " ms/step\n(committed pre-rewrite baseline "
              << units::fmtFixed(kPreRewriteDecodeMsPerStep, 2) << " / "
              << units::fmtFixed(kDecodeSpeedupGate, 1)
              << "x), and Fast < bit-exact. This run: "
              << (perf_ok ? "PASS" : "FAIL") << ".\n";

    printBanner(std::cout, "Tracing overhead: decode regime");
    Table ttable({"state", "ms/step", "vs untraced"});
    ttable.addRow({"tracing disabled (gated)",
                   units::fmtFixed(decode.kv_plans_ms, 3),
                   "1.00x"});
    ttable.addRow({"recorder installed",
                   units::fmtFixed(traced_ms, 3),
                   units::fmtFixed(traced_overhead, 2) + "x"});
    ttable.print(std::cout);
    std::cout << "\nDisabled-tracing gate (enforced in --csv/--json): "
                 "cache-on decode <= committed\nbaseline "
              << units::fmtFixed(kCommittedCacheOnMsPerStep, 3)
              << " ms/step x "
              << units::fmtFixed(kTracingOverheadBudget, 2)
              << " — a disabled TraceScope is one relaxed load + "
                 "branch.\nThis run: "
              << (tracing_off_free ? "PASS" : "FAIL")
              << ". Traced run dropped " << traced_dropped
              << " events (recording cost is opt-in, not gated).\n";

    printBanner(std::cout, "Fault layer: ABFT verify + recovery gate");
    Table ftable({"comparison", "bit-identical", "detected",
                  "quarantines"});
    ftable.addRow({"off vs verify-armed",
                   fault.off_vs_verify ? "yes" : "NO", "-", "-"});
    ftable.addRow({"off vs injected+recovered",
                   fault.off_vs_recovered ? "yes" : "NO",
                   std::to_string(fault.faults_detected),
                   std::to_string(fault.quarantines)});
    ftable.print(std::cout);
    std::cout
        << "\nVerification never changes results; recovery re-executes "
           "detected-faulty tiles\non healthy replicas (replica-"
           "independent noise), so both columns must be\nbit-identical "
           "to the fault-free engine. The fault-OFF hot path is one "
           "extra\nbranch per product — its cost rides the decode "
           "ms/step gate above. This run: "
        << (fault_ok ? "PASS" : "FAIL") << ".\n";
    return all_identical && decode_ok && fault_ok && rngb.dot_identical
               ? 0
               : 1;
}
