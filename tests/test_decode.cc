/**
 * @file
 * Tests for the KV-cache decode path: InferenceSession prefill +
 * decodeStep parity against the full-sequence causal forward at every
 * step (the acceptance bar of the stateless-inference redesign),
 * session determinism and concurrency-independence, the max_tokens
 * guard, and the measured-vs-analytic decode MAC cross-check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/batched_decoder.hh"
#include "nn/execution_engine.hh"
#include "nn/gemm_backend.hh"
#include "nn/inference_session.hh"
#include "nn/llm_workload.hh"
#include "nn/transformer.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace {

using namespace lt;

nn::TransformerConfig
decoderConfig(nn::Pooling pooling = nn::Pooling::LastToken)
{
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 2;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.num_classes = 24;   // LM-style head: one logit per vocab entry
    cfg.vocab_size = 24;
    cfg.max_tokens = 40;
    cfg.pooling = pooling;
    cfg.causal = true;
    return cfg;
}

std::vector<int>
tokenStream(size_t n, size_t vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> tokens(n);
    for (int &t : tokens)
        t = static_cast<int>(
            rng.uniformInt(0, static_cast<int64_t>(vocab) - 1));
    return tokens;
}

/**
 * Generate `steps` tokens with a session while checking, at every
 * step, that the incremental logits equal a full-sequence forward of
 * the same prefix (run with a fresh workspace on `reference_backend`).
 */
void
checkDecodeParity(const nn::TransformerClassifier &model,
                  nn::GemmBackend &session_backend,
                  nn::GemmBackend &reference_backend, size_t prompt_len,
                  size_t steps, double tol)
{
    const auto tokens = tokenStream(prompt_len + steps,
                                    model.config().vocab_size, 0xDEC0);
    std::vector<int> prefix(tokens.begin(),
                            tokens.begin() +
                                static_cast<long>(prompt_len));

    nn::InferenceSession session(model, session_backend);
    Matrix logits = session.prefill(prefix);

    for (size_t s = 0; s <= steps; ++s) {
        nn::ActivationWorkspace ws;
        nn::RunContext ref_ctx{&reference_backend,
                               nn::QuantConfig::disabled()};
        Matrix full = model.forwardSequence(prefix, ws, ref_ctx);
        EXPECT_LE(logits.maxAbsDiff(full), tol)
            << "context length " << prefix.size();
        if (s == steps)
            break;
        int next = tokens[prompt_len + s];
        logits = session.decodeStep(next);
        prefix.push_back(next);
    }
    EXPECT_EQ(session.contextLen(), prompt_len + steps);
}

// ---- parity against the full-sequence forward -------------------------

TEST(InferenceSession, DecodeMatchesFullForwardIdealBackend)
{
    // 32-token generation, parity at every step: every layer is
    // row-wise or causal, and the ideal GEMM accumulates k in the same
    // order for a 1-row and an n-row left operand. The only residue is
    // ~1 ulp from the matmul kernel's fixed 4-accumulator split
    // grouping the (zero) masked tail of the full forward's AV rows
    // differently than the incremental row — hence 1e-13, not 0.
    nn::TransformerClassifier model(decoderConfig());
    nn::IdealBackend backend, reference;
    checkDecodeParity(model, backend, reference, /*prompt=*/4,
                      /*steps=*/32, /*tol=*/1e-13);
}

TEST(InferenceSession, DecodeMatchesFullForwardMeanPooling)
{
    // Mean pooling folds every token's final-LN row into the logits;
    // the session's running sum must match the full pooling exactly
    // (same tiny AV-tail residue as above).
    nn::TransformerClassifier model(
        decoderConfig(nn::Pooling::Mean));
    nn::IdealBackend backend, reference;
    checkDecodeParity(model, backend, reference, /*prompt=*/4,
                      /*steps=*/32, /*tol=*/1e-13);
}

TEST(InferenceSession, DecodeMatchesFullForwardPhotonicIdealMode)
{
    // The photonic engine in Ideal mode runs the tiled DPTC datapath
    // without quantization or noise: parity holds to tiling round-off.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.noise = core::NoiseConfig::ideal();
    nn::ExecutionEngine backend(dcfg, core::EvalMode::Ideal);
    nn::ExecutionEngine reference(dcfg, core::EvalMode::Ideal);
    checkDecodeParity(model, backend, reference, /*prompt=*/4,
                      /*steps=*/32, /*tol=*/1e-10);
}

TEST(InferenceSession, DecodeTracksFullForwardPhotonicNoisy)
{
    // On the noisy engine exact parity is impossible by construction
    // (per-row beta normalization and distinct noise streams), but a
    // 32-token decode must stay in the full forward's neighbourhood:
    // two independent noisy evaluations of an untrained model differ
    // by O(1) in logit units, so the bound is a sanity rail, not a
    // precision claim.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine backend(dcfg, core::EvalMode::Noisy);
    nn::ExecutionEngine reference(dcfg, core::EvalMode::Noisy);
    checkDecodeParity(model, backend, reference, /*prompt=*/4,
                      /*steps=*/32, /*tol=*/3.0);
}

// ---- session determinism and concurrency independence -----------------

TEST(InferenceSession, SameRequestIdReplaysBitIdentically)
{
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    const auto tokens = tokenStream(12, model.config().vocab_size, 7);
    std::vector<int> prompt(tokens.begin(), tokens.begin() + 4);

    std::vector<Matrix> first, second;
    for (int run = 0; run < 2; ++run) {
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        nn::InferenceSession session(model, engine,
                                     nn::QuantConfig::w8a8(),
                                     /*request_id=*/5);
        auto &out = run == 0 ? first : second;
        out.push_back(session.prefill(prompt));
        for (size_t s = 4; s < tokens.size(); ++s)
            out.push_back(session.decodeStep(tokens[s]));
    }
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].maxAbsDiff(second[i]), 0.0) << "step " << i;
}

TEST(InferenceSession, FastSamplerDecodeReplaysBitIdentically)
{
    // NoiseSampler::Fast keeps the (request, stream, tile) addressing
    // of the bit-exact path, so a full prefill+decode run replays
    // bit-identically — just on the Ziggurat stream.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.noise.sampler = core::NoiseSampler::Fast;
    const auto tokens = tokenStream(12, model.config().vocab_size, 7);
    std::vector<int> prompt(tokens.begin(), tokens.begin() + 4);

    std::vector<Matrix> first, second;
    for (int run = 0; run < 2; ++run) {
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        nn::InferenceSession session(model, engine,
                                     nn::QuantConfig::w8a8(),
                                     /*request_id=*/5);
        auto &out = run == 0 ? first : second;
        out.push_back(session.prefill(prompt));
        for (size_t s = 4; s < tokens.size(); ++s)
            out.push_back(session.decodeStep(tokens[s]));
    }
    ASSERT_EQ(first.size(), second.size());
    double total_mag = 0.0;
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].maxAbsDiff(second[i]), 0.0) << "step " << i;
        for (double v : first[i].data())
            total_mag += std::abs(v);
    }
    EXPECT_GT(total_mag, 0.0); // the run actually produced logits
}

TEST(InferenceSession, ResultsIndependentOfConcurrentSessions)
{
    // Interleaving many sessions on ONE engine must give every session
    // exactly the logits it gets running alone: the point of
    // stream-addressed noise.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    const size_t kSessions = 3;
    const auto tokens = tokenStream(10, model.config().vocab_size, 9);
    std::vector<int> prompt(tokens.begin(), tokens.begin() + 2);

    // Isolated runs: one engine per session.
    std::vector<std::vector<Matrix>> isolated(kSessions);
    for (size_t r = 0; r < kSessions; ++r) {
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        nn::InferenceSession session(model, engine,
                                     nn::QuantConfig::w8a8(), r);
        isolated[r].push_back(session.prefill(prompt));
        for (size_t s = 2; s < tokens.size(); ++s)
            isolated[r].push_back(session.decodeStep(tokens[s]));
    }

    // Interleaved runs: all sessions share one engine, stepping in
    // round-robin.
    nn::ExecutionEngine shared(dcfg, core::EvalMode::Noisy);
    std::vector<std::unique_ptr<nn::InferenceSession>> sessions;
    std::vector<std::vector<Matrix>> interleaved(kSessions);
    for (size_t r = 0; r < kSessions; ++r) {
        sessions.push_back(std::make_unique<nn::InferenceSession>(
            model, shared, nn::QuantConfig::w8a8(), r));
        interleaved[r].push_back(sessions[r]->prefill(prompt));
    }
    for (size_t s = 2; s < tokens.size(); ++s)
        for (size_t r = 0; r < kSessions; ++r)
            interleaved[r].push_back(
                sessions[r]->decodeStep(tokens[s]));

    for (size_t r = 0; r < kSessions; ++r) {
        ASSERT_EQ(isolated[r].size(), interleaved[r].size());
        for (size_t i = 0; i < isolated[r].size(); ++i)
            EXPECT_EQ(
                isolated[r][i].maxAbsDiff(interleaved[r][i]), 0.0)
                << "session " << r << " step " << i;
    }
}

// ---- guards -----------------------------------------------------------

TEST(InferenceSession, RejectsUnsuitableModels)
{
    nn::IdealBackend backend;

    nn::TransformerConfig not_causal = decoderConfig();
    not_causal.causal = false;
    not_causal.pooling = nn::Pooling::Mean;
    nn::TransformerClassifier bidi(not_causal);
    EXPECT_THROW(nn::InferenceSession(bidi, backend),
                 std::invalid_argument);

    nn::TransformerConfig vision = decoderConfig();
    vision.vocab_size = 0;
    vision.patch_dim = 12;
    vision.causal = false; // vision models stay bidirectional
    vision.pooling = nn::Pooling::ClsToken;
    nn::TransformerClassifier vit(vision);
    EXPECT_THROW(nn::InferenceSession(vit, backend),
                 std::invalid_argument);
}

TEST(InferenceSession, GuardsThePositionalTable)
{
    nn::TransformerConfig cfg = decoderConfig();
    cfg.max_tokens = 6;
    nn::TransformerClassifier model(cfg);
    nn::IdealBackend backend;
    nn::InferenceSession session(model, backend);

    EXPECT_THROW(session.prefill({}), std::invalid_argument);
    session.prefill({1, 2, 3, 4});
    EXPECT_THROW(session.prefill({1}), std::invalid_argument);
    session.decodeStep(5);
    session.decodeStep(6);
    EXPECT_EQ(session.contextLen(), 6u);
    // One past the positional table: clear failure, no OOB read.
    EXPECT_THROW(session.decodeStep(7), std::invalid_argument);

    nn::InferenceSession too_long(model, backend);
    EXPECT_THROW(too_long.prefill(tokenStream(7, 24, 1)),
                 std::invalid_argument);
}

// ---- measured vs analytic decode cost ---------------------------------

TEST(InferenceSession, MeasuredMacsMatchAnalyticDecodeWorkload)
{
    // The executed decode loop must cost exactly what
    // nn::decodeStepWorkload predicts: same GEMM list, same MACs.
    nn::TransformerConfig cfg = decoderConfig();
    nn::TransformerClassifier model(cfg);
    nn::IdealBackend backend;
    nn::InferenceSession session(model, backend);

    nn::PaperModelConfig analytic_model;
    analytic_model.name = "tiny-decoder";
    analytic_model.dim = cfg.dim;
    analytic_model.depth = cfg.depth;
    analytic_model.heads = cfg.heads;
    analytic_model.mlp_hidden = cfg.mlp_hidden;
    analytic_model.seq_len = cfg.max_tokens;
    analytic_model.patch_dim = 0;
    analytic_model.num_classes = cfg.num_classes;

    session.prefill({1, 2, 3, 4, 5});
    for (int step = 0; step < 4; ++step) {
        nn::DecodeConfig dcfg{analytic_model,
                              session.contextLen(),
                              /*batch=*/1, /*bits=*/8,
                              /*include_head=*/true};
        nn::DecodeStep predicted = nn::decodeStepWorkload(dcfg);
        backend.resetStats();
        session.decodeStep(6 + step);
        EXPECT_EQ(backend.stats().macs.load(), predicted.macs)
            << "context " << session.contextLen();
    }
}

// ---- operand-view / encoded-KV refactor goldens -----------------------

/** FNV-1a over the raw logit bytes: a hex-exact digest of a decode. */
uint64_t
fnv1a(uint64_t h, const Matrix &m)
{
    for (double v : m.data()) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

uint64_t
decodeDigest(nn::GemmBackend &backend, const nn::QuantConfig &quant)
{
    nn::TransformerClassifier model(decoderConfig());
    const auto tokens = tokenStream(16, 24, 0xDEC0);
    std::vector<int> prompt(tokens.begin(), tokens.begin() + 4);
    nn::InferenceSession s(model, backend, quant, /*request_id=*/5);
    uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, s.prefill(prompt));
    for (size_t i = 4; i < tokens.size(); ++i)
        h = fnv1a(h, s.decodeStep(tokens[i]));
    return h;
}

TEST(DecodeGoldens, LogitsBitIdenticalToPreRefactorPath)
{
    // The digests below were captured from the build BEFORE the
    // operand-view / encoded-KV refactor (PR 4 head): same model
    // seeds, same token stream, same request id. The refactored
    // decode path — dense K stored untransposed behind a transposed
    // view, K/V held encoded with O(dk) packed appends, view-based
    // dispatch — must reproduce every logit bit-for-bit, at every
    // thread count, with the caches on or off.
    constexpr uint64_t kNoisyW8A8 = 0x950f1433d0b769dfULL;
    constexpr uint64_t kIdealEngine = 0x54cb8d070f41760aULL;
    constexpr uint64_t kIdealBackend = 0xef2c0c431ab0b0f4ULL;

    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    core::DptcConfig icfg;
    icfg.noise = core::NoiseConfig::ideal();

    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        {
            nn::ExecutionEngine e(dcfg, core::EvalMode::Noisy);
            EXPECT_EQ(decodeDigest(e, nn::QuantConfig::w8a8()),
                      kNoisyW8A8)
                << "noisy caches-on, threads " << threads;
        }
        {
            nn::EngineConfig off{dcfg, core::EvalMode::Noisy, 8,
                                 false, false};
            nn::ExecutionEngine e(off);
            EXPECT_EQ(decodeDigest(e, nn::QuantConfig::w8a8()),
                      kNoisyW8A8)
                << "noisy caches-off, threads " << threads;
        }
        {
            nn::ExecutionEngine e(icfg, core::EvalMode::Ideal);
            EXPECT_EQ(decodeDigest(e, nn::QuantConfig::disabled()),
                      kIdealEngine)
                << "ideal engine, threads " << threads;
        }
        {
            nn::IdealBackend b;
            EXPECT_EQ(decodeDigest(b, nn::QuantConfig::disabled()),
                      kIdealBackend)
                << "ideal backend, threads " << threads;
        }
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(DecodeGoldens, ForwardLogitsBitIdenticalToPreRefactorPath)
{
    // Same contract for the full-sequence forward (its QK^T now reads
    // K through a transposed view instead of a materialized copy).
    constexpr uint64_t kFwdNoisy = 0x11083da2228af982ULL;
    constexpr uint64_t kFwdIdeal = 0x01d6ba8289600aa2ULL;
    nn::TransformerClassifier model(decoderConfig());
    const auto tokens = tokenStream(10, 24, 0xF0);
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;

    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    nn::ActivationWorkspace ws;
    nn::RunContext noisy_ctx{&engine, nn::QuantConfig::w8a8()};
    EXPECT_EQ(fnv1a(0xcbf29ce484222325ULL,
                    model.forwardSequence(tokens, ws, noisy_ctx)),
              kFwdNoisy);

    nn::IdealBackend ideal;
    nn::RunContext ideal_ctx{&ideal, nn::QuantConfig::disabled()};
    EXPECT_EQ(fnv1a(0xcbf29ce484222325ULL,
                    model.forwardSequence(tokens, ws, ideal_ctx)),
              kFwdIdeal);
}

// ---- encoded K/V cache in the decode path -----------------------------

TEST(DecodeKvCache, SteadyStateDecodePerformsZeroKvEncodes)
{
    // The acceptance counter of the encoded K/V cache. Ideal mode
    // first: beta is pinned at 1.0, so after the prefill seeding
    // EVERY append succeeds — zero K/V encodes from the first decode
    // step, unconditionally.
    nn::TransformerClassifier model(decoderConfig());
    const auto tokens = tokenStream(36, 24, 0xDEC0);
    std::vector<int> prompt(tokens.begin(), tokens.begin() + 4);
    const size_t kv_products_per_step = 2 * 2 * 2; // 2L x 2H x {QK,AV}

    {
        core::DptcConfig icfg;
        icfg.noise = core::NoiseConfig::ideal();
        nn::ExecutionEngine engine(icfg, core::EvalMode::Ideal);
        nn::InferenceSession s(model, engine);
        s.prefill(prompt);
        // Prefill seeds one encoded K^T and one encoded V per head
        // per layer — the only K/V encodes of the whole request.
        EXPECT_EQ(engine.stats().kv_encode_misses.load(), 8u);
        engine.resetStats();
        for (size_t i = 4; i < tokens.size(); ++i)
            s.decodeStep(tokens[i]);
        EXPECT_EQ(engine.stats().kv_encode_misses.load(), 0u);
        EXPECT_EQ(engine.stats().kv_encode_hits.load(),
                  (tokens.size() - 4) * kv_products_per_step);
    }

    // Noisy w8a8: a new token whose magnitude sets a per-operand
    // record forces one bit-identity-preserving requantization; the
    // records die off like ln(T) (for this fixed seed the last one
    // lands at step 27), after which the steady state is literally
    // zero K/V encodes while every attention product stays a hit.
    {
        core::DptcConfig dcfg;
        dcfg.input_bits = 8;
        nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
        nn::InferenceSession s(model, engine,
                               nn::QuantConfig::w8a8(), 5);
        s.prefill(prompt);
        const size_t kWarmSteps = 28;
        for (size_t i = 4; i < 4 + kWarmSteps; ++i)
            s.decodeStep(tokens[i]);
        engine.resetStats();
        for (size_t i = 4 + kWarmSteps; i < tokens.size(); ++i)
            s.decodeStep(tokens[i]);
        EXPECT_EQ(engine.stats().kv_encode_misses.load(), 0u);
        EXPECT_EQ(engine.stats().kv_encode_hits.load(),
                  (tokens.size() - 4 - kWarmSteps) *
                      kv_products_per_step);
        EXPECT_EQ(engine.stats().weight_encode_misses.load(), 0u);
    }
}

TEST(DecodeKvCache, KvPlansOnOffBitIdenticalAtEveryThreadCount)
{
    // The encoded K/V cache is a pure wall-clock optimization: with
    // identical request ids, logits must match the per-step
    // re-encode path bit-for-bit at every thread count — and only
    // the kv-enabled engine may tick the kv counters.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;

    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::EngineConfig on_cfg{dcfg, core::EvalMode::Noisy, 8, true,
                                true};
        nn::EngineConfig off_cfg{dcfg, core::EvalMode::Noisy, 8, true,
                                 false};
        nn::ExecutionEngine e_on(on_cfg), e_off(off_cfg);
        EXPECT_TRUE(e_on.supportsKvPlans());
        EXPECT_FALSE(e_off.supportsKvPlans());
        nn::InferenceSession cached(model, e_on,
                                    nn::QuantConfig::w8a8(), 9);
        nn::InferenceSession uncached(model, e_off,
                                      nn::QuantConfig::w8a8(), 9);

        Matrix l_on = cached.prefill({1, 2, 3});
        Matrix l_off = uncached.prefill({1, 2, 3});
        EXPECT_EQ(l_on.maxAbsDiff(l_off), 0.0)
            << "prefill, threads " << threads;
        for (int step = 0; step < 6; ++step) {
            l_on = cached.decodeStep(4 + step);
            l_off = uncached.decodeStep(4 + step);
            EXPECT_EQ(l_on.maxAbsDiff(l_off), 0.0)
                << "step " << step << ", threads " << threads;
        }

        // One fused step mixing a 2-part context (a mapped shared
        // prefix, then the tail) with a 1-part one. The kv-off engine
        // builds the segment without packed mirrors, so its QK^T / AV
        // products run on dense views.
        auto mixedBatch = [&](nn::ExecutionEngine &e) {
            const nn::QuantConfig quant = nn::QuantConfig::w8a8();
            nn::SessionKvPlan plan;
            plan.prefix = nn::InferenceSession::buildKvPrefix(
                model, e, quant, {1, 2, 3});
            nn::InferenceSession mapped(model, e, quant, 11);
            nn::InferenceSession plain(model, e, quant, 12);
            mapped.prefill({1, 2, 3, 5}, plan);
            plain.prefill({6, 7});
            std::vector<Matrix> logits;
            for (int step = 0; step < 3; ++step)
                for (Matrix &l : nn::BatchedDecoder::step(
                         {&mapped, &plain}, {8 + step, 12 + step}))
                    logits.push_back(std::move(l));
            return logits;
        };
        std::vector<Matrix> mixed_on = mixedBatch(e_on);
        std::vector<Matrix> mixed_off = mixedBatch(e_off);
        ASSERT_EQ(mixed_on.size(), mixed_off.size());
        for (size_t j = 0; j < mixed_on.size(); ++j)
            EXPECT_EQ(mixed_on[j].maxAbsDiff(mixed_off[j]), 0.0)
                << "mixed-prefix batch row " << j << ", threads "
                << threads;
        EXPECT_GT(e_on.stats().kv_encode_hits.load(), 0u);
        EXPECT_EQ(e_off.stats().kv_encode_hits.load(), 0u);
        EXPECT_EQ(e_off.stats().kv_encode_misses.load(), 0u);
    }
    ThreadPool::setGlobalThreads(0);
}

TEST(DecodeKvCache, BatchedIngestOverMixedPartsEqualsSoloSteps)
{
    // BatchedDecoder::ingest over a batch mixing a 2-part context (a
    // mapped prefix, then the tail) with a 1-part one: each request
    // claims its own skipped ids (two per head and part), so every
    // session ends where its solo full steps leave it, and the next
    // step's logits agree bitwise.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    nn::SessionKvPlan plan;
    plan.prefix = nn::InferenceSession::buildKvPrefix(model, engine,
                                                      quant, {1, 2, 3});

    nn::InferenceSession mapped(model, engine, quant, 11);
    nn::InferenceSession plain(model, engine, quant, 12);
    nn::InferenceSession mapped_solo(model, engine, quant, 11);
    nn::InferenceSession plain_solo(model, engine, quant, 12);
    mapped.prefill({1, 2, 3, 5}, plan);
    mapped_solo.prefill({1, 2, 3, 5}, plan);
    plain.prefill({6, 7});
    plain_solo.prefill({6, 7});
    for (int t = 0; t < 3; ++t) {
        nn::BatchedDecoder::ingest({&mapped, &plain}, {8 + t, 12 + t});
        mapped_solo.decodeStep(8 + t);
        plain_solo.decodeStep(12 + t);
    }
    EXPECT_EQ(mapped.contextLen(), mapped_solo.contextLen());
    EXPECT_EQ(plain.contextLen(), plain_solo.contextLen());
    std::vector<Matrix> logits =
        nn::BatchedDecoder::step({&mapped, &plain}, {20, 21});
    EXPECT_EQ(logits[0].maxAbsDiff(mapped_solo.decodeStep(20)), 0.0);
    EXPECT_EQ(logits[1].maxAbsDiff(plain_solo.decodeStep(21)), 0.0);
}

TEST(DecodeKvCache, EncodedBlockPointersStableAcrossMaxTokensAppends)
{
    // AttentionKvCache::reserve pre-sizes the packed encoded blocks
    // (k-tile stride included), so decoding to the full positional
    // table never moves their backing storage — appends write in
    // place and even beta-growth requants rewrite the same buffer.
    nn::TransformerConfig cfg = decoderConfig();
    cfg.max_tokens = 24;
    nn::TransformerClassifier model(cfg);
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);

    Rng rng(0x5AB1E);
    nn::MultiHeadSelfAttention attn(cfg.dim, cfg.heads, rng,
                                    /*causal=*/true);
    nn::AttentionKvCache kv;
    nn::RunContext ctx{&engine, nn::QuantConfig::w8a8(),
                       nn::NoiseStream(3), /*inference=*/true};

    Matrix x(1, cfg.dim);
    auto step = [&] {
        for (double &v : x.data())
            v = rng.uniform(-1.0, 1.0);
        attn.decodeStepBatch({x}, {&kv}, {&ctx});
    };
    step(); // seeds mirrors
    kv.reserve(cfg.max_tokens);
    ASSERT_EQ(kv.tail.ek_t.size(), static_cast<size_t>(cfg.heads));
    ASSERT_EQ(kv.tail.ev.size(), static_cast<size_t>(cfg.heads));
    std::vector<const double *> backing;
    for (const auto &e : kv.tail.ek_t)
        backing.push_back(e.packedData());
    for (const auto &e : kv.tail.ev)
        backing.push_back(e.packedData());

    for (size_t t = 1; t < cfg.max_tokens; ++t)
        step();

    EXPECT_EQ(kv.tail.tokens, cfg.max_tokens);
    size_t i = 0;
    for (const auto &e : kv.tail.ek_t) {
        EXPECT_EQ(e.cols(), cfg.max_tokens);
        EXPECT_EQ(e.packedData(), backing[i++])
            << "K^T block moved";
    }
    for (const auto &e : kv.tail.ev) {
        EXPECT_EQ(e.rows(), cfg.max_tokens);
        EXPECT_EQ(e.packedData(), backing[i++]) << "V block moved";
    }
    // The dense mirrors stayed put too (reserved row growth).
    EXPECT_EQ(kv.tail.k.front().rows(), cfg.max_tokens);
    EXPECT_EQ(kv.tail.v.front().rows(), cfg.max_tokens);
}

TEST(DecodeKvCache, FreshSessionBackingStableUpToItsReservation)
{
    // A session's tail is reserved when it takes its first token: for
    // the plan's context, else the whole positional table. From then
    // on no append moves a dense or packed K/V mirror, whether the
    // session started with a decodeStep or a prefix-less prefillChunk.
    nn::TransformerConfig cfg = decoderConfig();
    cfg.max_tokens = 24;
    nn::TransformerClassifier model(cfg);
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    const auto tokens = tokenStream(cfg.max_tokens, cfg.vocab_size, 0xBAC4);
    const size_t kPlanReserve = 15, kFirstChunk = 3;

    for (bool chunked : {false, true}) {
        const std::string what = chunked ? "prefillChunk" : "decodeStep";
        nn::InferenceSession s(model, engine, nn::QuantConfig::w8a8(), 5);
        size_t reserve = cfg.max_tokens;
        if (chunked) {
            nn::SessionKvPlan plan;
            plan.reserve_tokens = reserve = kPlanReserve;
            s.prefillChunk(tokens, 0, kFirstChunk, plan);
        } else {
            s.decodeStep(tokens[0]);
        }
        auto backing = [&] {
            std::vector<const double *> ptrs;
            for (size_t l = 0; l < model.depth(); ++l) {
                const nn::AttentionKvCache &kv = s.kvCache(l);
                EXPECT_EQ(kv.reserved_tokens, reserve) << what;
                for (size_t h = 0; h < kv.tail.k.size(); ++h) {
                    ptrs.push_back(kv.tail.k[h].data().data());
                    ptrs.push_back(kv.tail.v[h].data().data());
                    ptrs.push_back(kv.tail.ek_t.at(h).packedData());
                    ptrs.push_back(kv.tail.ev.at(h).packedData());
                }
            }
            return ptrs;
        };
        const std::vector<const double *> first = backing();
        ASSERT_EQ(first.size(), 4 * model.depth() * cfg.heads) << what;
        while (s.contextLen() < reserve)
            s.decodeStep(tokens[s.contextLen()]);
        EXPECT_EQ(s.kvCache(0).tail.tokens, reserve) << what;
        EXPECT_EQ(backing(), first) << what << ": a K/V mirror moved";
    }
}

// ---- weight-plan cache in the decode path -----------------------------

TEST(DecodeWeightPlans, SteadyStateDecodeNeverReencodesWeights)
{
    // The acceptance counter of the encoding cache: after the first
    // pass has built every layer's plan, a decode step performs ZERO
    // weight re-encodes (weight_encode_misses frozen) while every
    // projection GEMM is served from a plan (hits grow). 13 static
    // weights in this model: 2 blocks x (wq, wk, wv, wo, fc1, fc2)
    // plus the LM head.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);

    nn::InferenceSession session(model, engine,
                                 nn::QuantConfig::w8a8(), 1);
    session.prefill({1, 2, 3, 4});
    session.decodeStep(5); // plans are warm after prefill already

    engine.resetStats();
    session.decodeStep(6);
    EXPECT_EQ(engine.stats().weight_encode_misses.load(), 0u);
    EXPECT_EQ(engine.stats().weight_encode_hits.load(), 13u);

    // The batched (serve) decode path shares the same plans.
    nn::InferenceSession other(model, engine,
                               nn::QuantConfig::w8a8(), 2);
    other.prefill({3, 2, 1});
    engine.resetStats();
    nn::BatchedDecoder::step({&session, &other}, {7, 8});
    EXPECT_EQ(engine.stats().weight_encode_misses.load(), 0u);
    EXPECT_GT(engine.stats().weight_encode_hits.load(), 0u);
}

TEST(DecodeWeightPlans, CachedDecodeBitIdenticalToUncached)
{
    // Cache on vs off is a pure wall-clock decision: with identical
    // request ids the logits of every step must match bit-for-bit,
    // at every thread count.
    nn::TransformerClassifier model(decoderConfig());
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;

    for (size_t threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::EngineConfig on_cfg{dcfg, core::EvalMode::Noisy, 8, true};
        nn::EngineConfig off_cfg{dcfg, core::EvalMode::Noisy, 8,
                                 false};
        nn::ExecutionEngine e_on(on_cfg), e_off(off_cfg);
        nn::InferenceSession cached(model, e_on,
                                    nn::QuantConfig::w8a8(), 9);
        nn::InferenceSession uncached(model, e_off,
                                      nn::QuantConfig::w8a8(), 9);

        Matrix l_on = cached.prefill({1, 2, 3});
        Matrix l_off = uncached.prefill({1, 2, 3});
        EXPECT_EQ(l_on.maxAbsDiff(l_off), 0.0)
            << "prefill, threads " << threads;
        for (int step = 0; step < 5; ++step) {
            l_on = cached.decodeStep(4 + step);
            l_off = uncached.decodeStep(4 + step);
            EXPECT_EQ(l_on.maxAbsDiff(l_off), 0.0)
                << "step " << step << ", threads " << threads;
        }
        EXPECT_GT(e_on.stats().weight_encode_hits.load(), 0u);
        EXPECT_EQ(e_off.stats().weight_encode_hits.load(), 0u);
    }
    ThreadPool::setGlobalThreads(0);
}

} // namespace
