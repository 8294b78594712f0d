/**
 * @file
 * Tests for resumable chunked prefill
 * (nn::InferenceSession::prefillChunk and the serve scheduler's
 * SchedulerConfig::prefill_chunk_tokens mode).
 *
 * The contract: chunks ingest token-by-token through the incremental
 * decode path on the session's own noise lane, and every position
 * draws a fixed number of stream ids — so the state (and every
 * subsequent logit) after the last chunk is bit-identical for ANY
 * chunking of the same prompt: chunk size 1 == 3 == one whole-prompt
 * chunk. Asserted across engine core counts, over a shared KV-pool
 * prefix, and end-to-end through a chunking server at concurrency —
 * plus an exact, host-independent gate on what chunking bounds: the
 * engine MACs a request waits behind between two of its tokens.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/execution_engine.hh"
#include "nn/inference_session.hh"
#include "nn/llm_workload.hh"
#include "nn/tensor_ops.hh"
#include "obs/trace.hh"
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

/** Ingest `prompt` in chunks of `chunk` tokens, then decode. */
struct ChunkedRun
{
    std::vector<Matrix> step_logits; ///< [0] = first-token logits
    std::vector<int> generated;
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

void
expectBitIdentical(const ChunkedRun &a, const ChunkedRun &b,
                   const std::string &what)
{
    EXPECT_EQ(a.generated, b.generated) << what;
    ASSERT_EQ(a.step_logits.size(), b.step_logits.size()) << what;
    for (size_t s = 0; s < a.step_logits.size(); ++s)
        EXPECT_EQ(a.step_logits[s].maxAbsDiff(b.step_logits[s]), 0.0)
            << what << " step " << s;
}

} // namespace

TEST(ChunkedPrefill, AnyChunkingIsBitIdenticalToWholeChunk)
{
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kPrompt = 9, kNew = 5;
    const std::vector<int> prompt =
        promptFor(3, kPrompt, model.config().vocab_size);

    for (size_t cores : {1u, 2u, 8u}) {
        nn::EngineConfig cfg;
        cfg.dptc = noisyDptc();
        cfg.mode = core::EvalMode::Noisy;
        cfg.num_cores = cores;

        // The reference: the whole prompt as ONE chunk.
        nn::ExecutionEngine ref_engine(cfg);
        ChunkedRun whole = runChunked(model, ref_engine, quant,
                                      prompt, kPrompt, kNew, 3);

        for (size_t chunk : {size_t(1), size_t(3), kPrompt,
                             kPrompt + 7}) {
            nn::ExecutionEngine engine(cfg);
            ChunkedRun chunked = runChunked(model, engine, quant,
                                            prompt, chunk, kNew, 3);
            expectBitIdentical(chunked, whole,
                               "cores " + std::to_string(cores) +
                                   " chunk " + std::to_string(chunk));
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

/**
 * Serve the burst inline with `chunk_tokens`-token chunked prefill (0
 * = whole prompts at admission) and return the most engine MACs any
 * request waited behind between two consecutive tokens it emitted,
 * its prefill-completion token included.
 *
 * Read off the serving thread's trace lane: every engine dispatch is
 * an "engine/..." span carrying its MAC count, and a span lands in
 * its lane when it ends, so the spans between two of a request's
 * token events in lane order are exactly the work that ran between
 * its two tokens. A request's first token is the end of the prefill
 * span ("req/prefill" or "tick/prefill_chunk") whose `end` reaches
 * its prompt length; every later token is a "req/token" instant.
 */
size_t
maxMacsBetweenTokens(size_t chunk_tokens)
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
    std::map<uint64_t, size_t> since;
    size_t worst = 0;
    size_t gaps = 0;
    size_t traced_macs = 0;
    for (const auto &lane : lanes)
        for (const obs::TraceEvent &e : lane.events) {
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
                worst = std::max(worst, it->second);
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
    return worst;
}

/** MACs of one `rows`-row decode step at the burst's longest context
 *  (its last step attends over prompt + new - 1 positions). */
size_t
longestDecodeStepMacs(const nn::TransformerConfig &cfg, size_t rows)
{
    nn::PaperModelConfig m;
    m.name = "chunked-prefill-lm";
    m.dim = cfg.dim;
    m.depth = cfg.depth;
    m.heads = cfg.heads;
    m.mlp_hidden = cfg.mlp_hidden;
    m.seq_len = cfg.max_tokens;
    m.patch_dim = 0;
    m.num_classes = cfg.num_classes;
    nn::DecodeConfig step{m, kBurstPrompt + kBurstNew - 2, rows,
                          /*bits=*/8, /*include_head=*/true};
    return nn::decodeStepWorkload(step).macs;
}

} // namespace

TEST(ChunkedPrefill, ChunkingBoundsTheEngineWorkBetweenTwoTokens)
{
    // What chunked prefill bounds, exactly and on any host: between
    // two consecutive tokens of a request the engine runs at most one
    // fused decode step over the whole batch plus one chunk for every
    // other request — each chunk token a single-token forward. Bound
    // every one of those at the burst's longest context.
    const size_t kChunk = 2;
    const nn::TransformerConfig cfg = lmConfig();
    const size_t bound =
        longestDecodeStepMacs(cfg, kBurstRequests) +
        (kBurstRequests - 1) * kChunk * longestDecodeStepMacs(cfg, 1);
    EXPECT_LE(maxMacsBetweenTokens(kChunk), bound);

    // The gate has teeth: whole-prompt admission puts the other 15
    // requests' whole prefills between request 0's first two tokens.
    EXPECT_GT(maxMacsBetweenTokens(0), bound);
}
