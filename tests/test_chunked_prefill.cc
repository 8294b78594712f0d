/**
 * @file
 * Tests for resumable chunked prefill
 * (nn::InferenceSession::prefillChunk and the serve scheduler's
 * SchedulerConfig::prefill_chunk_tokens mode).
 *
 * The contract: chunks ingest token-by-token through the incremental
 * decode path on the session's own noise lane, and every position
 * claims a fixed number of stream ids — so the state (and every
 * subsequent logit) after the last chunk is bit-identical for ANY
 * chunking of the same prompt: chunk size 1 == 3 == one whole-prompt
 * chunk. Asserted across engine core counts, over a shared KV-pool
 * prefix, and end-to-end through a chunking server at concurrency —
 * plus an exact, host-independent gate on what chunking bounds: the
 * engine MACs a request waits behind between two of its tokens.
 *
 * Positions whose logits nobody reads (a chunk's tokens before its
 * last, a shared prefix) stop at the last layer's K/V. Their K/V,
 * dense and packed, are compared bitwise with the full path's, their
 * MACs with the analytic full step minus the skipped work, and one
 * golden digest pins the whole path as it was before the skip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "nn/execution_engine.hh"
#include "nn/inference_session.hh"
#include "nn/llm_workload.hh"
#include "nn/tensor_ops.hh"
#include "nn/workload.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace {

using namespace lt;

nn::TransformerConfig
lmConfig(size_t max_tokens = 48)
{
    nn::TransformerConfig cfg;
    cfg.dim = 16;
    cfg.depth = 2;
    cfg.heads = 2;
    cfg.mlp_hidden = 32;
    cfg.num_classes = 24;
    cfg.vocab_size = 24;
    cfg.max_tokens = max_tokens;
    cfg.pooling = nn::Pooling::LastToken;
    cfg.causal = true;
    return cfg;
}

core::DptcConfig
noisyDptc(core::NoiseSampler sampler = core::NoiseSampler::BitExact)
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    dcfg.noise.sampler = sampler;
    return dcfg;
}

std::vector<int>
promptFor(uint64_t id, size_t len, size_t vocab)
{
    Rng rng(0xC0FFEE + id);
    std::vector<int> tokens(len);
    for (int &t : tokens)
        t = static_cast<int>(
            rng.uniformInt(0, static_cast<int64_t>(vocab) - 1));
    return tokens;
}

void
expectSameBits(const Matrix &a, const Matrix &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.data().size() * sizeof(double)),
              0)
        << what;
}

/** Bitwise equality of two packed K/V mirrors: geometry, beta and
 *  every packed column of every (column tile, k-slice) block. */
void
expectSameBits(const core::EncodedOperand &a,
               const core::EncodedOperand &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(a.beta(), b.beta()) << what;
    EXPECT_EQ(a.bits(), b.bits()) << what;
    ASSERT_EQ(a.packedNv(), b.packedNv()) << what;
    ASSERT_EQ(a.packedNlambda(), b.packedNlambda()) << what;
    const size_t nv = a.packedNv(), nl = a.packedNlambda();
    ASSERT_GT(nv * nl, 0u) << what << ": not a packed B operand";
    for (size_t tc = 0; tc < (a.cols() + nv - 1) / nv; ++tc)
        for (size_t tk = 0; tk < (a.rows() + nl - 1) / nl; ++tk)
            for (size_t c = 0; c < nv; ++c)
                EXPECT_EQ(std::memcmp(a.tileColumn(tc, tk, c),
                                      b.tileColumn(tc, tk, c),
                                      nl * sizeof(double)),
                          0)
                    << what << " block (" << tc << ", " << tk
                    << ") column " << c;
}

/** Bitwise equality of two K/V segments, dense and packed mirrors. */
void
expectSameKv(const nn::KvLayerSegment &a, const nn::KvLayerSegment &b,
             const std::string &what)
{
    EXPECT_EQ(a.tokens, b.tokens) << what;
    ASSERT_EQ(a.k.size(), b.k.size()) << what;
    ASSERT_EQ(a.v.size(), b.v.size()) << what;
    ASSERT_EQ(a.ek_t.size(), b.ek_t.size()) << what;
    ASSERT_EQ(a.ev.size(), b.ev.size()) << what;
    EXPECT_EQ(a.encoded_backend_uid != 0, b.encoded_backend_uid != 0)
        << what;
    for (size_t h = 0; h < a.k.size(); ++h) {
        const std::string head = what + " head " + std::to_string(h);
        expectSameBits(a.k[h], b.k[h], head + " K");
        expectSameBits(a.v[h], b.v[h], head + " V");
    }
    for (size_t h = 0; h < a.ek_t.size(); ++h) {
        const std::string head = what + " head " + std::to_string(h);
        expectSameBits(a.ek_t[h], b.ek_t[h], head + " packed K^T");
        expectSameBits(a.ev[h], b.ev[h], head + " packed V");
    }
}

/** Ingest `prompt` in chunks of `chunk` tokens, then decode. */
struct ChunkedRun
{
    std::vector<Matrix> step_logits; ///< [0] = first-token logits
    std::vector<int> generated;
    /** Each layer's tail right after the prompt's last chunk. */
    std::vector<nn::KvLayerSegment> prompt_kv;
};

ChunkedRun
runChunked(const nn::TransformerClassifier &model,
           nn::GemmBackend &backend, const nn::QuantConfig &quant,
           const std::vector<int> &prompt, size_t chunk,
           size_t max_new, uint64_t request_id,
           const nn::SessionKvPlan &plan = nn::SessionKvPlan{})
{
    nn::InferenceSession session(model, backend, quant, request_id);
    const size_t n = prompt.size();
    const size_t prefix = plan.prefix ? plan.prefix->length() : 0;
    Matrix logits;
    size_t done = 0;
    while (done < n) {
        size_t end =
            std::min(n, (done == 0 ? prefix : done) + chunk);
        logits = done == 0
                     ? session.prefillChunk(prompt, 0, end, plan)
                     : session.prefillChunk(prompt, done, end);
        done = end;
        EXPECT_EQ(session.contextLen(), done);
    }
    ChunkedRun run;
    for (size_t l = 0; l < model.depth(); ++l)
        run.prompt_kv.push_back(session.kvCache(l).tail);
    run.generated.push_back(
        static_cast<int>(nn::argmaxRow(logits, 0)));
    run.step_logits.push_back(std::move(logits));
    while (run.generated.size() < max_new) {
        Matrix next = session.decodeStep(run.generated.back());
        run.generated.push_back(
            static_cast<int>(nn::argmaxRow(next, 0)));
        run.step_logits.push_back(std::move(next));
    }
    return run;
}

/** Same tokens, logits and prompt K/V (dense and packed), bitwise. */
void
expectBitIdentical(const ChunkedRun &a, const ChunkedRun &b,
                   const std::string &what)
{
    ASSERT_EQ(a.prompt_kv.size(), b.prompt_kv.size()) << what;
    for (size_t l = 0; l < a.prompt_kv.size(); ++l)
        expectSameKv(a.prompt_kv[l], b.prompt_kv[l],
                     what + " layer " + std::to_string(l));
    EXPECT_EQ(a.generated, b.generated) << what;
    ASSERT_EQ(a.step_logits.size(), b.step_logits.size()) << what;
    for (size_t s = 0; s < a.step_logits.size(); ++s)
        EXPECT_EQ(a.step_logits[s].maxAbsDiff(b.step_logits[s]), 0.0)
            << what << " step " << s;
}

} // namespace

TEST(ChunkedPrefill, AnyChunkingIsBitIdenticalToWholeChunk)
{
    // Chunk size 1 ingests every prompt token through the full decode
    // step; one whole-prompt chunk ingests all but the last through
    // ingest steps, which stop at the last layer's K/V. The prompt's
    // K/V (dense and packed), every logit and every token must agree
    // bitwise, for both samplers.
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kPrompt = 9, kNew = 5;
    const std::vector<int> prompt =
        promptFor(3, kPrompt, model.config().vocab_size);

    for (core::NoiseSampler sampler :
         {core::NoiseSampler::BitExact, core::NoiseSampler::Fast})
        for (size_t cores : {1u, 2u, 8u}) {
            nn::EngineConfig cfg;
            cfg.dptc = noisyDptc(sampler);
            cfg.mode = core::EvalMode::Noisy;
            cfg.num_cores = cores;

            // The reference: the whole prompt as ONE chunk.
            nn::ExecutionEngine ref_engine(cfg);
            ChunkedRun whole = runChunked(model, ref_engine, quant,
                                          prompt, kPrompt, kNew, 3);
            for (const nn::KvLayerSegment &tail : whole.prompt_kv)
                ASSERT_EQ(tail.ek_t.size(), model.config().heads)
                    << "the engine runs packed K/V";

            for (size_t chunk : {size_t(1), size_t(3), kPrompt,
                                 kPrompt + 7}) {
                nn::ExecutionEngine engine(cfg);
                ChunkedRun chunked = runChunked(model, engine, quant,
                                                prompt, chunk, kNew, 3);
                expectBitIdentical(
                    chunked, whole,
                    std::string(sampler == core::NoiseSampler::Fast
                                    ? "Fast"
                                    : "BitExact") +
                        " cores " + std::to_string(cores) + " chunk " +
                        std::to_string(chunk));
            }
        }
}

TEST(ChunkedPrefill, ChunkingOverASharedPrefixIsBitIdentical)
{
    // First chunk must cover the mapped prefix for free plus at least
    // one real token; the remaining suffix chunks resume behind it.
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kPrefix = 5, kPrompt = 11, kNew = 4;
    const std::vector<int> prompt =
        promptFor(8, kPrompt, model.config().vocab_size);

    nn::EngineConfig cfg;
    cfg.dptc = noisyDptc();
    cfg.mode = core::EvalMode::Noisy;
    cfg.num_cores = 4;
    nn::ExecutionEngine engine(cfg);

    nn::SessionKvPlan plan;
    plan.prefix = nn::InferenceSession::buildKvPrefix(
        model, engine, quant,
        std::vector<int>(prompt.begin(), prompt.begin() + kPrefix));
    plan.reserve_tokens = kPrompt + kNew - 1;

    ChunkedRun whole = runChunked(model, engine, quant, prompt,
                                  kPrompt, kNew, 9, plan);
    for (size_t chunk : {size_t(1), size_t(2), size_t(4)}) {
        ChunkedRun chunked = runChunked(model, engine, quant, prompt,
                                        chunk, kNew, 9, plan);
        expectBitIdentical(chunked, whole,
                           "prefix chunk " + std::to_string(chunk));
    }
}

// ---- ingest steps against the full path ------------------------------

namespace {

/** FNV-1a over the raw bytes of `n` doubles. */
uint64_t
fnv1a(uint64_t h, const double *v, size_t n)
{
    for (size_t k = 0; k < n; ++k) {
        uint64_t bits;
        std::memcpy(&bits, &v[k], sizeof bits);
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/** FNV-1a over the raw logit bytes: a hex-exact digest of a run. */
uint64_t
fnv1a(uint64_t h, const Matrix &m)
{
    return fnv1a(h, m.data().data(), m.data().size());
}

nn::PaperModelConfig
analyticModel(const nn::TransformerConfig &cfg, size_t seq_len)
{
    nn::PaperModelConfig m;
    m.name = "chunked-prefill-lm";
    m.dim = cfg.dim;
    m.depth = cfg.depth;
    m.heads = cfg.heads;
    m.mlp_hidden = cfg.mlp_hidden;
    m.seq_len = seq_len;
    m.patch_dim = 0;
    m.num_classes = cfg.num_classes;
    return m;
}

/**
 * MACs an ingest position skips, from an analytic op list over
 * `depth` layers: the last layer's Q projection (a third of its fused
 * QKV), QK^T, AV, WO and FFN, plus the LM head.
 */
size_t
deadWorkMacs(const std::vector<nn::GemmOp> &ops, size_t depth)
{
    size_t dead = 0;
    for (const nn::GemmOp &op : ops) {
        switch (op.kind) {
        case nn::GemmKind::PatchEmbed:
            break;
        case nn::GemmKind::QkvProj:
            dead += op.macs() / depth / 3;
            break;
        case nn::GemmKind::Head:
            dead += op.macs();
            break;
        default: // one layer's share of QK^T, AV, WO, FFN up and down
            dead += op.macs() / depth;
            break;
        }
    }
    return dead;
}

/** MACs of one token's full decode step at `context` cached tokens,
 *  and of its ingest step (the full step minus the dead work). */
struct TokenMacs
{
    size_t full;
    size_t ingest;
};

TokenMacs
tokenMacs(const nn::TransformerConfig &cfg, size_t context)
{
    const nn::DecodeStep step = nn::decodeStepWorkload(
        {analyticModel(cfg, cfg.max_tokens), context, /*batch=*/1,
         /*bits=*/8, /*include_head=*/true});
    return {step.macs, step.macs - deadWorkMacs(step.ops, cfg.depth)};
}

} // namespace

TEST(ChunkedPrefill, PrefixMappedIngestAndDecodeMatchGolden)
{
    // Captured before ingest positions skipped their discarded work:
    // a shared prefix built on its content lane, a suffix ingested
    // behind it, then 8 greedy decode steps. The chunking and prefix
    // equality tests compare the skipping paths with the full ones;
    // this digest also catches a stream-claim count wrong on both.
    constexpr uint64_t kGolden = 0xf8097b2eb4cf72f2ULL;
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const std::vector<int> prompt =
        promptFor(21, 10, model.config().vocab_size);
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);

    nn::SessionKvPlan plan;
    plan.prefix = nn::InferenceSession::buildKvPrefix(
        model, engine, quant,
        std::vector<int>(prompt.begin(), prompt.begin() + 6));
    plan.reserve_tokens = prompt.size() + 8;
    ChunkedRun run = runChunked(model, engine, quant, prompt,
                                prompt.size(), 9, 21, plan);
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Matrix &logits : run.step_logits)
        h = fnv1a(h, logits);
    EXPECT_EQ(h, kGolden);
}

namespace {

/** FNV-1a over a packed K/V mirror: beta plus every packed column of
 *  every (column tile, k-slice) block. */
uint64_t
fnv1a(uint64_t h, const core::EncodedOperand &e)
{
    const double geometry[] = {e.beta(), static_cast<double>(e.rows()),
                               static_cast<double>(e.cols())};
    h = fnv1a(h, geometry, 3);
    const size_t nv = e.packedNv(), nl = e.packedNlambda();
    for (size_t tc = 0; tc < (e.cols() + nv - 1) / nv; ++tc)
        for (size_t tk = 0; tk < (e.rows() + nl - 1) / nl; ++tk)
            for (size_t c = 0; c < nv; ++c)
                h = fnv1a(h, e.tileColumn(tc, tk, c), nl);
    return h;
}

/** FNV-1a over every layer's tail, dense and packed mirrors. */
uint64_t
fnv1aKv(uint64_t h, const nn::InferenceSession &s)
{
    for (size_t l = 0; l < s.model().depth(); ++l) {
        const nn::KvLayerSegment &tail = s.kvCache(l).tail;
        EXPECT_EQ(tail.ek_t.size(), s.model().config().heads)
            << "the engine runs packed K/V";
        for (size_t head = 0; head < tail.k.size(); ++head) {
            h = fnv1a(h, tail.k[head]);
            h = fnv1a(h, tail.v[head]);
        }
        for (size_t head = 0; head < tail.ek_t.size(); ++head) {
            h = fnv1a(h, tail.ek_t[head]);
            h = fnv1a(h, tail.ev[head]);
        }
    }
    return h;
}

} // namespace

TEST(ChunkedPrefill, EverySessionStartMatchesGolden)
{
    // Captured while a session's first token still ran as a one-token
    // whole-sequence prefill. Four ways to start a session over one
    // 7-token prompt: a two-chunk prefillChunk ([0, 3), [3, 7)), a
    // decodeStep per token, ingestStep for all but the last token, and
    // a one-token first chunk. The digest covers the returned logits,
    // every layer's dense and packed K/V after the prompt, and two
    // greedy decode steps, under both poolings.
    constexpr uint64_t kGolden[] = {
        0x5465a6e9cfaef44aULL, // LastToken
        0xaa0439bcd9a0f0e9ULL, // Mean
    };
    const std::vector<int> prompt = promptFor(17, 7, 24);
    const size_t n = prompt.size();
    for (nn::Pooling pooling : {nn::Pooling::LastToken, nn::Pooling::Mean}) {
        nn::TransformerConfig cfg = lmConfig();
        cfg.pooling = pooling;
        nn::TransformerClassifier model(cfg);
        const nn::QuantConfig quant = nn::QuantConfig::w8a8();
        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);

        uint64_t h = 0xcbf29ce484222325ULL;
        auto finish = [&](nn::InferenceSession &s, Matrix logits) {
            h = fnv1a(h, logits);
            h = fnv1aKv(h, s);
            for (int step = 0; step < 2; ++step) {
                logits = s.decodeStep(
                    static_cast<int>(nn::argmaxRow(logits, 0)));
                h = fnv1a(h, logits);
            }
        };
        {
            nn::InferenceSession s(model, engine, quant, 40);
            h = fnv1a(h, s.prefillChunk(prompt, 0, 3));
            finish(s, s.prefillChunk(prompt, 3, n));
        }
        {
            nn::InferenceSession s(model, engine, quant, 41);
            Matrix logits;
            for (int t : prompt) {
                logits = s.decodeStep(t);
                h = fnv1a(h, logits);
            }
            finish(s, logits);
        }
        {
            nn::InferenceSession s(model, engine, quant, 42);
            for (size_t i = 0; i + 1 < n; ++i)
                s.ingestStep(prompt[i]);
            finish(s, s.decodeStep(prompt[n - 1]));
        }
        {
            nn::InferenceSession s(model, engine, quant, 43);
            h = fnv1a(h, s.prefillChunk(prompt, 0, 1));
            finish(s, s.prefillChunk(prompt, 1, n));
        }
        EXPECT_EQ(h, kGolden[pooling == nn::Pooling::Mean])
            << (pooling == nn::Pooling::Mean ? "Mean" : "LastToken")
            << std::hex << " digest 0x" << h;
    }
}

TEST(ChunkedPrefill, KvOnlyPrefixEqualsTheFullForwardsKv)
{
    // buildKvPrefix stops its forward at the last layer's K/V (LastToken
    // pooling) or runs it whole (Mean). Either way every segment must
    // equal, bit for bit, what the full forwardSequence + seedKvCache
    // yield on the prefix's own lane, and Mean's pooled state the
    // full forward's final-LN row sum.
    const std::vector<int> tokens = promptFor(6, 7, 24);
    for (nn::Pooling pooling : {nn::Pooling::LastToken, nn::Pooling::Mean})
        for (core::NoiseSampler sampler :
             {core::NoiseSampler::BitExact, core::NoiseSampler::Fast}) {
            nn::TransformerConfig cfg = lmConfig();
            cfg.pooling = pooling;
            nn::TransformerClassifier model(cfg);
            const nn::QuantConfig quant = nn::QuantConfig::w8a8();
            nn::ExecutionEngine engine(noisyDptc(sampler),
                                       core::EvalMode::Noisy);
            const std::string what =
                std::string(pooling == nn::Pooling::Mean ? "Mean"
                                                         : "LastToken") +
                (sampler == core::NoiseSampler::Fast ? " Fast"
                                                     : " BitExact");

            auto prefix = nn::InferenceSession::buildKvPrefix(
                model, engine, quant, tokens);

            nn::RunContext ctx{&engine, quant, nn::prefixLane(tokens),
                               /*inference=*/true};
            nn::ActivationWorkspace ws;
            model.forwardSequence(tokens, ws, ctx);
            ASSERT_EQ(prefix->layers.size(), model.depth());
            for (size_t l = 0; l < model.depth(); ++l) {
                nn::KvLayerSegment want;
                model.block(l).attention().seedKvCache(ws.blocks[l].attn,
                                                       want, engine);
                expectSameKv(prefix->layers[l], want,
                             what + " layer " + std::to_string(l));
            }
            if (pooling == nn::Pooling::Mean) {
                Matrix sum(1, cfg.dim, 0.0);
                for (size_t r = 0; r < ws.pooled_in.rows(); ++r)
                    for (size_t c = 0; c < cfg.dim; ++c)
                        sum(0, c) += ws.pooled_in(r, c);
                expectSameBits(prefix->pooled_sum, sum,
                               what + " pooled sum");
            }
        }
}

TEST(ChunkedPrefill, IngestRunsExactlyTheKvWork)
{
    // An n-token chunk, a session's first included, runs n-1 ingest
    // tokens and one full token, a prefix build the full forward minus
    // its last layer's dead work,
    // and a Mean-pooling model (whose pooled sum needs every row's
    // final LN) the full path's MACs in both. All counts derive from
    // the model shape through the analytic workloads.
    const size_t kFirst = 3, kPrompt = 10, kPrefix = 6;
    for (nn::Pooling pooling : {nn::Pooling::LastToken, nn::Pooling::Mean}) {
        nn::TransformerConfig cfg = lmConfig();
        cfg.pooling = pooling;
        nn::TransformerClassifier model(cfg);
        const nn::QuantConfig quant = nn::QuantConfig::w8a8();
        const std::vector<int> prompt =
            promptFor(2, kPrompt, cfg.vocab_size);
        const bool mean = pooling == nn::Pooling::Mean;
        const std::string what = mean ? "Mean" : "LastToken";

        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
        nn::InferenceSession s(model, engine, quant, 2);
        for (const auto &[begin, end] :
             {std::pair<size_t, size_t>{0, kFirst}, {kFirst, kPrompt}}) {
            engine.resetStats();
            s.prefillChunk(prompt, begin, end);
            size_t want = 0;
            for (size_t ctx = begin; ctx < end; ++ctx) {
                const TokenMacs t = tokenMacs(cfg, ctx);
                want += ctx + 1 < end && !mean ? t.ingest : t.full;
            }
            EXPECT_EQ(engine.stats().macs.load(), want)
                << what << " chunk [" << begin << ", " << end << ")";
        }

        const std::vector<int> prefix(prompt.begin(),
                                      prompt.begin() + kPrefix);
        const nn::Workload forward =
            nn::extractWorkload(analyticModel(cfg, kPrefix));
        engine.resetStats();
        nn::InferenceSession::buildKvPrefix(model, engine, quant, prefix);
        EXPECT_EQ(engine.stats().macs.load(),
                  forward.totalMacs() -
                      (mean ? 0 : deadWorkMacs(forward.ops, cfg.depth)))
            << what << " prefix";

        // The full forward itself costs the whole op list.
        nn::ActivationWorkspace ws;
        nn::RunContext ctx{&engine, quant, nn::prefixLane(prefix), true};
        engine.resetStats();
        model.forwardSequence(prefix, ws, ctx);
        EXPECT_EQ(engine.stats().macs.load(), forward.totalMacs())
            << what << " full forward";
    }
}

TEST(ChunkedPrefill, ChunkApiRejectsMisuse)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const std::vector<int> prompt =
        promptFor(1, 6, model.config().vocab_size);

    nn::InferenceSession s(model, engine, nn::QuantConfig::w8a8(), 1);
    EXPECT_THROW(s.prefillChunk(prompt, 2, 4), std::invalid_argument)
        << "first chunk must start at 0";
    EXPECT_THROW(s.prefillChunk(prompt, 0, 0), std::invalid_argument)
        << "empty chunk";
    EXPECT_THROW(s.prefillChunk(prompt, 0, prompt.size() + 1),
                 std::invalid_argument)
        << "end past the prompt";
    s.prefillChunk(prompt, 0, 3);
    EXPECT_THROW(s.prefillChunk(prompt, 1, 5), std::invalid_argument)
        << "chunks must resume at contextLen()";
    std::vector<int> other = prompt;
    other[1] = (other[1] + 1) % 24;
    EXPECT_THROW(s.prefillChunk(other, 3, 5), std::invalid_argument)
        << "prompt must agree with the ingested tokens";
}

TEST(ChunkedPrefill, ChunkingServerIsBitIdenticalToSoloAtConcurrency)
{
    // End to end: a server with chunked prefill on serves every
    // request the same bits a solo chunked session produces — the
    // serve-path acceptance contract — for both noise samplers:
    // per-request noise lanes are counter-derived, so determinism
    // never depends on which generator backs the draws.
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kPrompt = 7, kNew = 6;

    auto serveAndCheck = [&](core::NoiseSampler sampler,
                             size_t concurrency) {
        nn::ExecutionEngine engine(noisyDptc(sampler),
                                   core::EvalMode::Noisy);
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = concurrency;
        scfg.scheduler.prefill_chunk_tokens = 2;
        scfg.quant = quant;
        serve::Server server(model, engine, scfg);

        std::vector<std::future<serve::RequestResult>> futures;
        for (uint64_t id = 0; id < concurrency; ++id) {
            serve::Request req;
            req.prompt =
                promptFor(id, kPrompt, model.config().vocab_size);
            req.max_new_tokens = kNew;
            req.record_logits = true;
            req.request_id = id;
            futures.push_back(server.submit(std::move(req)));
        }
        server.runUntilIdle();

        for (uint64_t id = 0; id < concurrency; ++id) {
            serve::RequestResult result = futures[id].get();
            nn::ExecutionEngine solo_engine(noisyDptc(sampler),
                                            core::EvalMode::Noisy);
            ChunkedRun solo = runChunked(
                model, solo_engine, quant,
                promptFor(id, kPrompt, model.config().vocab_size),
                kPrompt, kNew, id);
            EXPECT_EQ(result.generated, solo.generated)
                << "concurrency " << concurrency << " request " << id;
            ASSERT_EQ(result.step_logits.size(),
                      solo.step_logits.size());
            for (size_t s = 0; s < solo.step_logits.size(); ++s)
                EXPECT_EQ(result.step_logits[s].maxAbsDiff(
                              solo.step_logits[s]),
                          0.0)
                    << "concurrency " << concurrency << " request "
                    << id << " step " << s;
            EXPECT_GE(result.ttft_ms, 0.0);
        }
        serve::MetricsSnapshot snap = server.metrics();
        EXPECT_GE(snap.prefill_chunks,
                  concurrency * ((kPrompt + 1) / 2));
        EXPECT_EQ(snap.prefill_chunk_tokens,
                  concurrency * kPrompt);
        EXPECT_GT(snap.engine_stacked_calls, 0u);
    };

    for (core::NoiseSampler sampler :
         {core::NoiseSampler::BitExact, core::NoiseSampler::Fast})
        for (size_t concurrency : {1u, 2u, 4u, 8u, 16u}) {
            SCOPED_TRACE(sampler == core::NoiseSampler::Fast
                             ? "Fast sampler"
                             : "BitExact sampler");
            serveAndCheck(sampler, concurrency);
        }
}

// ---- the exact gate on what chunking bounds ---------------------------

namespace {

// The burst bench_serve_slo times: every request admitted in the same
// tick, each with an 8-token prompt and 12 new tokens.
constexpr size_t kBurstRequests = 16;
constexpr size_t kBurstPrompt = 8;
constexpr size_t kBurstNew = 12;

bool
named(const obs::TraceEvent &e, const char *name)
{
    return std::strcmp(e.name, name) == 0;
}

/** The event's int64 arg called `name`; -1 when it has none. */
int64_t
argOf(const obs::TraceEvent &e, const char *name)
{
    for (size_t i = 0; i < e.numArgs(); ++i)
        if (std::strcmp(e.arg_names[i], name) == 0)
            return e.args[i];
    return -1;
}

/** What one traced burst showed. */
struct BurstTrace
{
    /** The most engine MACs any request waited behind between two
     *  consecutive tokens it emitted, its first token included. */
    size_t worst_macs = 0;
    size_t ingest_steps = 0; ///< "session/ingest_step" spans
    size_t decode_steps = 0; ///< "session/decode_step" spans
};

/**
 * Serve the burst inline with `chunk_tokens`-token chunked prefill (0
 * = whole prompts at admission) and read its trace.
 *
 * Read off the serving thread's trace lane: every engine dispatch is
 * an "engine/..." span carrying its MAC count, and a span lands in
 * its lane when it ends, so the spans between two of a request's
 * token events in lane order are exactly the work that ran between
 * its two tokens. A request's first token is the end of the prefill
 * span ("req/prefill" or "tick/prefill_chunk") whose `end` reaches
 * its prompt length; every later token is a "req/token" instant.
 *
 * Also checks that every session step span nests inside a prefill
 * span, so obs::phaseBreakdown counts its time as prefill.
 */
BurstTrace
serveBurst(size_t chunk_tokens)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = kBurstRequests;
    scfg.scheduler.prefill_chunk_tokens = chunk_tokens;
    scfg.quant = nn::QuantConfig::w8a8();

    obs::TraceRecorder recorder(1 << 16);
    obs::installRecorder(&recorder);
    {
        serve::Server server(model, engine, scfg);
        std::vector<std::future<serve::RequestResult>> futures;
        for (uint64_t id = 0; id < kBurstRequests; ++id) {
            serve::Request req;
            req.prompt =
                promptFor(id, kBurstPrompt, model.config().vocab_size);
            req.max_new_tokens = kBurstNew;
            req.request_id = id;
            futures.push_back(server.submit(std::move(req)));
        }
        server.runUntilIdle();
        for (auto &f : futures)
            EXPECT_EQ(f.get().generated.size(), kBurstNew);
    }
    obs::installRecorder(nullptr);
    EXPECT_EQ(recorder.droppedEvents(), 0u);
    const auto lanes = recorder.snapshot();
    EXPECT_EQ(lanes.size(), 1u) << "everything ran on the test thread";

    // MACs since each request's latest token; absent before its first.
    BurstTrace trace;
    std::map<uint64_t, size_t> since;
    size_t gaps = 0;
    size_t traced_macs = 0;
    std::vector<const obs::TraceEvent *> prefills, steps;
    for (const auto &lane : lanes)
        for (const obs::TraceEvent &e : lane.events) {
            if (named(e, "session/ingest_step") ||
                named(e, "session/decode_step")) {
                ++(named(e, "session/ingest_step") ? trace.ingest_steps
                                                   : trace.decode_steps);
                steps.push_back(&e);
            }
            if (named(e, "req/prefill") || named(e, "tick/prefill_chunk"))
                prefills.push_back(&e);
            if (std::strncmp(e.name, "engine/", 7) == 0) {
                const size_t macs = static_cast<size_t>(argOf(e, "macs"));
                traced_macs += macs;
                for (auto &entry : since)
                    entry.second += macs;
            } else if (named(e, "req/token")) {
                auto it = since.find(e.request_id);
                if (it == since.end()) {
                    ADD_FAILURE() << "token before the first token of "
                                  << e.request_id;
                    continue;
                }
                trace.worst_macs = std::max(trace.worst_macs, it->second);
                it->second = 0;
                ++gaps;
            } else if ((named(e, "req/prefill") ||
                        named(e, "tick/prefill_chunk")) &&
                       argOf(e, "end") ==
                           static_cast<int64_t>(kBurstPrompt)) {
                since[e.request_id] = 0;
            }
        }
    // Every MAC the engine ran was attributed, and every gap measured.
    EXPECT_EQ(traced_macs, engine.stats().macs.load());
    EXPECT_EQ(since.size(), kBurstRequests);
    EXPECT_EQ(gaps, kBurstRequests * (kBurstNew - 1));

    // Session steps run inside a prefill span (fused decode ticks go
    // through BatchedDecoder directly), so their time is prefill time.
    double step_ms = 0.0;
    for (const obs::TraceEvent *step : steps) {
        step_ms += static_cast<double>(step->dur_ns) / 1e6;
        EXPECT_TRUE(std::any_of(
            prefills.begin(), prefills.end(),
            [&](const obs::TraceEvent *p) {
                return p->ts_ns <= step->ts_ns &&
                       step->ts_ns + step->dur_ns <= p->ts_ns + p->dur_ns;
            }))
            << step->name << " of request " << step->request_id
            << " outside every prefill span";
    }
    EXPECT_LE(step_ms, obs::phaseBreakdown(lanes).prefill_ms);
    return trace;
}

/** MACs of one `rows`-row decode step at the burst's longest context
 *  (its last step attends over prompt + new - 1 positions). */
size_t
longestDecodeStepMacs(const nn::TransformerConfig &cfg, size_t rows)
{
    nn::DecodeConfig step{analyticModel(cfg, cfg.max_tokens),
                          kBurstPrompt + kBurstNew - 2, rows,
                          /*bits=*/8, /*include_head=*/true};
    return nn::decodeStepWorkload(step).macs;
}

} // namespace

TEST(ChunkedPrefill, ChunkingBoundsTheEngineWorkBetweenTwoTokens)
{
    // What chunked prefill bounds, exactly and on any host: between
    // two consecutive tokens of a request the engine runs at most one
    // fused decode step over the whole batch plus one chunk for every
    // other request — each chunk token at most a single-token forward.
    // Bound every one of those at the burst's longest context.
    const size_t kChunk = 2;
    const nn::TransformerConfig cfg = lmConfig();
    const size_t bound =
        longestDecodeStepMacs(cfg, kBurstRequests) +
        (kBurstRequests - 1) * kChunk * longestDecodeStepMacs(cfg, 1);
    const BurstTrace chunked = serveBurst(kChunk);
    EXPECT_LE(chunked.worst_macs, bound);

    // Each chunk's last token takes the full step; every other prompt
    // token, token 0 included, takes an ingest step.
    EXPECT_EQ(chunked.decode_steps,
              kBurstRequests * (kBurstPrompt / kChunk));
    EXPECT_EQ(chunked.ingest_steps,
              kBurstRequests * (kBurstPrompt - kBurstPrompt / kChunk));

    // The gate has teeth: whole-prompt admission puts the other 15
    // requests' whole prefills between request 0's first two tokens.
    const BurstTrace whole = serveBurst(0);
    EXPECT_GT(whole.worst_macs, bound);
    EXPECT_EQ(whole.ingest_steps, 0u);
}
