/**
 * @file
 * Tests for the continuous-batching serve layer and its compute
 * kernel, nn::BatchedDecoder.
 *
 * The headline contract: with quantization fixed and per-request
 * request_id noise lanes, the logits (and greedy tokens) the server
 * produces at ANY concurrency are bit-identical to each request run
 * alone on a fresh InferenceSession against a same-config backend —
 * asserted here on the noisy photonic engine at concurrency 1..16.
 * Plus: the scheduler's O(layers) dispatch bound, the gemmBatch
 * permutation property behind it, admission-control behaviour,
 * deadline expiry, metrics sanity, and the misuse paths
 * (submit-after-drain, zero max_new_tokens, prompt at max_tokens).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/batched_decoder.hh"
#include "nn/execution_engine.hh"
#include "serve/errors.hh"
#include "nn/inference_session.hh"
#include "nn/tensor_ops.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"
#include "serve/server.hh"
#include "util/parallel.hh"
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
noisyDptc()
{
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    return dcfg;
}

std::vector<int>
promptFor(uint64_t id, size_t len, size_t vocab)
{
    Rng rng(0x5e3 + id);
    std::vector<int> tokens(len);
    for (int &t : tokens)
        t = static_cast<int>(
            rng.uniformInt(0, static_cast<int64_t>(vocab) - 1));
    return tokens;
}

/**
 * The solo reference of one request: fresh engine (same config),
 * fresh session on the request's lane, greedy decode. Returns the
 * per-step logits ([0] = prefill) and the token chain.
 */
struct SoloRun
{
    std::vector<Matrix> step_logits;
    std::vector<int> generated;
};

SoloRun
soloReference(const nn::TransformerClassifier &model,
              const std::vector<int> &prompt, size_t max_new,
              uint64_t request_id, const nn::QuantConfig &quant)
{
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    nn::InferenceSession session(model, engine, quant, request_id);
    SoloRun run;
    Matrix logits = session.prefill(prompt);
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

// ---- the bit-identity acceptance contract -----------------------------

TEST(Serve, LogitsBitIdenticalToSoloAtEveryConcurrency)
{
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kPrompt = 5, kNew = 6;

    for (size_t concurrency : {1u, 2u, 4u, 8u, 16u}) {
        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = concurrency;
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
            SoloRun solo = soloReference(
                model,
                promptFor(id, kPrompt, model.config().vocab_size),
                kNew, id, quant);
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
        }
    }
}

TEST(Serve, SharedPrefixConcurrencyPreservesTheNoiseLaneContract)
{
    // The PR 3 noise-lane contract, extended to paged serving with a
    // shared system prompt: a request mapping a copy-on-write prefix
    // must still be bit-identical to itself run solo (same request_id,
    // fresh engine, same sharing config) at any concurrency — the
    // prefix is content-addressed, so hit, miss, and solo all read
    // the same bits.
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kNew = 4;
    const std::vector<int> system_prompt =
        promptFor(77, 6, model.config().vocab_size);

    serve::KvPoolConfig pool_cfg;
    pool_cfg.block_tokens = 4;
    pool_cfg.num_blocks = 64;

    auto makeRequest = [&](uint64_t id) {
        serve::Request req;
        req.prompt = system_prompt;
        std::vector<int> tail =
            promptFor(0x700 + id, 2, model.config().vocab_size);
        req.prompt.insert(req.prompt.end(), tail.begin(), tail.end());
        req.max_new_tokens = kNew;
        req.record_logits = true;
        req.request_id = id;
        req.shared_prefix_tokens = system_prompt.size();
        return req;
    };

    auto runAt = [&](size_t concurrency, uint64_t id) {
        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = concurrency;
        scfg.quant = quant;
        scfg.kv_pool = pool_cfg;
        serve::Server server(model, engine, scfg);
        std::vector<std::future<serve::RequestResult>> futures;
        for (uint64_t r = 0; r < concurrency; ++r)
            futures.push_back(server.submit(makeRequest(r)));
        server.runUntilIdle();
        return futures[id].get();
    };

    for (size_t concurrency : {2u, 6u}) {
        for (uint64_t id = 0; id < concurrency; ++id) {
            serve::RequestResult shared = runAt(concurrency, id);
            serve::RequestResult solo = runAt(1, 0);
            // Solo serves request 0's prompt; compare only id 0 across
            // concurrencies, and all ids against each other's servers.
            if (id == 0) {
                EXPECT_EQ(shared.generated, solo.generated)
                    << "concurrency " << concurrency;
                ASSERT_EQ(shared.step_logits.size(),
                          solo.step_logits.size());
                for (size_t s = 0; s < solo.step_logits.size(); ++s)
                    EXPECT_EQ(shared.step_logits[s].maxAbsDiff(
                                  solo.step_logits[s]),
                              0.0)
                        << "concurrency " << concurrency << " step "
                        << s;
            } else {
                // Every other id: identical to a 1-wide server that
                // admitted requests 0..id sequentially — id's prefix
                // arrives via a HIT there and via concurrent sharing
                // here; both must read the same bits.
                nn::ExecutionEngine engine(noisyDptc(),
                                           core::EvalMode::Noisy);
                serve::ServerConfig scfg;
                scfg.scheduler.max_batch = 1;
                scfg.quant = quant;
                scfg.kv_pool = pool_cfg;
                serve::Server narrow(model, engine, scfg);
                std::vector<std::future<serve::RequestResult>> futs;
                for (uint64_t r = 0; r <= id; ++r)
                    futs.push_back(narrow.submit(makeRequest(r)));
                narrow.runUntilIdle();
                serve::RequestResult sequential = futs[id].get();
                EXPECT_EQ(shared.generated, sequential.generated)
                    << "concurrency " << concurrency << " request "
                    << id;
                ASSERT_EQ(shared.step_logits.size(),
                          sequential.step_logits.size());
                for (size_t s = 0; s < sequential.step_logits.size();
                     ++s)
                    EXPECT_EQ(shared.step_logits[s].maxAbsDiff(
                                  sequential.step_logits[s]),
                              0.0)
                        << "concurrency " << concurrency
                        << " request " << id << " step " << s;
            }
        }
    }
}

TEST(Serve, StaggeredArrivalsJoinTheRunningBatchBitIdentically)
{
    // Continuous batching: requests admitted MID-generation of others
    // must still match their solo runs exactly.
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);

    serve::Metrics metrics;
    serve::SchedulerConfig cfg;
    cfg.max_batch = 4;
    serve::BatchScheduler scheduler(model, engine, quant, cfg,
                                    &metrics);
    serve::RequestQueue queue;

    auto submit = [&](uint64_t id, size_t max_new) {
        serve::Request req;
        req.prompt = promptFor(id, 4, model.config().vocab_size);
        req.max_new_tokens = max_new;
        req.record_logits = true;
        return queue.submit(std::move(req), id);
    };

    // Two early requests, two more arriving after two ticks.
    auto f0 = submit(0, 8);
    auto f1 = submit(1, 3);
    scheduler.tick(queue);
    scheduler.tick(queue);
    auto f2 = submit(2, 5);
    auto f3 = submit(3, 4);
    while (scheduler.tick(queue) > 0 || !queue.empty()) {
    }

    std::vector<std::future<serve::RequestResult>> futures;
    futures.push_back(std::move(f0));
    futures.push_back(std::move(f1));
    futures.push_back(std::move(f2));
    futures.push_back(std::move(f3));
    const size_t max_new[] = {8, 3, 5, 4};
    for (uint64_t id = 0; id < 4; ++id) {
        serve::RequestResult result = futures[id].get();
        SoloRun solo = soloReference(
            model, promptFor(id, 4, model.config().vocab_size),
            max_new[id], id, quant);
        EXPECT_EQ(result.generated, solo.generated) << "request " << id;
        ASSERT_EQ(result.step_logits.size(), solo.step_logits.size());
        for (size_t s = 0; s < solo.step_logits.size(); ++s)
            EXPECT_EQ(result.step_logits[s].maxAbsDiff(
                          solo.step_logits[s]),
                      0.0)
                << "request " << id << " step " << s;
    }
}

// ---- O(layers) dispatch bound -----------------------------------------

TEST(Serve, FusedDecodeStepDispatchesOLayersBatches)
{
    // The engine must see the same number of fused dispatches per
    // decode step whether 1 or 16 requests ride in it — and a solo
    // InferenceSession::decodeStep is that step over a batch of one:
    // per layer one stacked-row dispatch per projection (wq, wk, wv,
    // wo, fc1, fc2) plus the LM head = 6 * depth + 1 stacked calls,
    // and one fused gemmBatch each for QK^T and AV = 2 * depth batch
    // calls — the stacked-row dispatch's 8*depth+1 ->
    // 2*depth+(6*depth+1) split.
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const size_t expected_stacked = 6 * model.config().depth + 1;
    const size_t expected_batches = 2 * model.config().depth;

    for (size_t n : {1u, 2u, 4u, 8u, 12u, 16u}) {
        std::vector<std::unique_ptr<nn::InferenceSession>> sessions;
        std::vector<nn::InferenceSession *> ptrs;
        std::vector<int> feed;
        for (uint64_t id = 0; id < n; ++id) {
            sessions.push_back(std::make_unique<nn::InferenceSession>(
                model, engine, nn::QuantConfig::w8a8(), id));
            sessions.back()->prefill(
                promptFor(id, 4, model.config().vocab_size));
            ptrs.push_back(sessions.back().get());
            feed.push_back(static_cast<int>(id) % 24);
        }
        engine.resetStats();
        nn::BatchedDecoder::step(ptrs, feed);
        EXPECT_EQ(engine.stats().stacked_calls.load(),
                  expected_stacked)
            << "batch of " << n;
        EXPECT_EQ(engine.stats().batch_calls.load(), expected_batches)
            << "batch of " << n;
        // ... while the per-product count grows with n, as it must.
        EXPECT_EQ(engine.stats().calls.load(),
                  n * (model.config().depth *
                           (6 + 2 * model.config().heads) +
                       1));
    }

    nn::InferenceSession solo(model, engine, nn::QuantConfig::w8a8(),
                              /*request_id=*/0);
    solo.prefill(promptFor(0, 4, model.config().vocab_size));
    engine.resetStats();
    solo.decodeStep(5);
    EXPECT_EQ(engine.stats().stacked_calls.load(), expected_stacked)
        << "solo decodeStep";
    EXPECT_EQ(engine.stats().batch_calls.load(), expected_batches)
        << "solo decodeStep";
}

// ---- the property the fusion rests on ---------------------------------

TEST(Serve, GemmBatchIsPermutationInvariantPerStream)
{
    // Stream-addressed gemmBatch must be a pure function of
    // (operands, config, stream) per product: permuting the
    // product/stream order permutes the results and changes nothing
    // else. This is exactly what lets the scheduler regroup N
    // requests' GEMMs arbitrarily without touching their values.
    Rng rng(0xBA7C);
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);

    for (int trial = 0; trial < 3; ++trial) {
        const size_t kProducts = 10;
        std::vector<Matrix> as, bs;
        std::vector<uint64_t> streams;
        for (size_t i = 0; i < kProducts; ++i) {
            // Varied skinny shapes, decode-like.
            size_t m = 1 + static_cast<size_t>(rng.uniformInt(0, 2));
            size_t k = 4 + static_cast<size_t>(rng.uniformInt(0, 12));
            size_t n = 2 + static_cast<size_t>(rng.uniformInt(0, 20));
            Matrix a(m, k), b(k, n);
            for (double &v : a.data())
                v = rng.uniform(-1.0, 1.0);
            for (double &v : b.data())
                v = rng.uniform(-1.0, 1.0);
            as.push_back(std::move(a));
            bs.push_back(std::move(b));
            streams.push_back(
                static_cast<uint64_t>(rng.uniformInt(0, 1 << 30)));
        }
        std::vector<std::pair<const Matrix *, const Matrix *>> ops;
        for (size_t i = 0; i < kProducts; ++i)
            ops.emplace_back(&as[i], &bs[i]);
        std::vector<Matrix> base = engine.gemmBatch(ops, streams);

        std::vector<size_t> perm(kProducts);
        std::iota(perm.begin(), perm.end(), 0);
        for (size_t i = kProducts - 1; i > 0; --i)
            std::swap(perm[i],
                      perm[static_cast<size_t>(rng.uniformInt(
                          0, static_cast<int64_t>(i)))]);

        std::vector<std::pair<const Matrix *, const Matrix *>> pops;
        std::vector<uint64_t> pstreams;
        for (size_t i : perm) {
            pops.emplace_back(&as[i], &bs[i]);
            pstreams.push_back(streams[i]);
        }
        std::vector<Matrix> permuted =
            engine.gemmBatch(pops, pstreams);
        for (size_t i = 0; i < kProducts; ++i)
            EXPECT_EQ(permuted[i].maxAbsDiff(base[perm[i]]), 0.0)
                << "trial " << trial << " product " << i;
    }
}

// ---- BatchedDecoder guards --------------------------------------------

TEST(Serve, BatchedDecoderRejectsMalformedBatches)
{
    nn::TransformerClassifier model(lmConfig());
    nn::TransformerClassifier other(lmConfig());
    nn::IdealBackend backend, backend2;

    nn::InferenceSession a(model, backend), b(model, backend),
        on_other_model(other, backend),
        on_other_backend(model, backend2);
    a.prefill({1, 2});
    b.prefill({3, 4});
    on_other_model.prefill({1, 2});
    on_other_backend.prefill({1, 2});

    EXPECT_THROW(nn::BatchedDecoder::step({}, {}),
                 std::invalid_argument);
    EXPECT_THROW(nn::BatchedDecoder::step({&a, &b}, {1}),
                 std::invalid_argument);
    EXPECT_THROW(nn::BatchedDecoder::step({&a, &a}, {1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(nn::BatchedDecoder::step({&a, nullptr}, {1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(
        nn::BatchedDecoder::step({&a, &on_other_model}, {1, 2}),
        std::invalid_argument);
    EXPECT_THROW(
        nn::BatchedDecoder::step({&a, &on_other_backend}, {1, 2}),
        std::invalid_argument);

    // One quantization per fused batch: the shared projections prepare
    // one weight. The rejection comes before either session advances.
    nn::InferenceSession w4(model, backend, nn::QuantConfig::w4a4()),
        w8(model, backend, nn::QuantConfig::w8a8());
    w4.prefill({1, 2});
    w8.prefill({1, 2});
    EXPECT_THROW(nn::BatchedDecoder::step({&w4, &w8}, {1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(nn::BatchedDecoder::ingest({&w8, &a}, {1, 2}),
                 std::invalid_argument);
    EXPECT_EQ(w4.contextLen(), 2u);
    EXPECT_EQ(w8.contextLen(), 2u);

    // Context exhaustion is caught BEFORE any session advances.
    nn::TransformerConfig tiny = lmConfig(/*max_tokens=*/3);
    nn::TransformerClassifier small(tiny);
    nn::InferenceSession full(small, backend), room(small, backend);
    full.prefill({1, 2, 3});
    room.prefill({1});
    EXPECT_THROW(nn::BatchedDecoder::step({&room, &full}, {1, 2}),
                 std::invalid_argument);
    EXPECT_EQ(room.contextLen(), 1u); // untouched by the failed batch
}

TEST(Serve, BatchedDecoderStepsAFreshSessionBesideAPrefilledOne)
{
    // A session's first token is an ordinary step against an empty
    // K/V cache, so it batches with sessions that already hold tokens:
    // every batch member's logits and K/V equal its solo steps', under
    // both poolings (Mean starts its running sum on that step), through
    // a full step and then an ingest.
    for (nn::Pooling pooling : {nn::Pooling::LastToken, nn::Pooling::Mean}) {
        nn::TransformerConfig cfg = lmConfig();
        cfg.pooling = pooling;
        nn::TransformerClassifier model(cfg);
        const nn::QuantConfig quant = nn::QuantConfig::w8a8();
        const std::string what =
            pooling == nn::Pooling::Mean ? "Mean" : "LastToken";
        const std::vector<int> prompt = promptFor(2, 5, cfg.vocab_size);

        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
        nn::InferenceSession warm(model, engine, quant, 1),
            fresh(model, engine, quant, 2);
        warm.prefill(prompt);
        const std::vector<Matrix> batched =
            nn::BatchedDecoder::step({&fresh, &warm}, {7, 3});
        nn::BatchedDecoder::ingest({&warm, &fresh}, {4, 9});

        nn::ExecutionEngine solo_engine(noisyDptc(),
                                        core::EvalMode::Noisy);
        nn::InferenceSession warm_solo(model, solo_engine, quant, 1),
            fresh_solo(model, solo_engine, quant, 2);
        warm_solo.prefill(prompt);
        ASSERT_EQ(batched.size(), 2u);
        EXPECT_EQ(batched[0].maxAbsDiff(fresh_solo.decodeStep(7)), 0.0)
            << what << " fresh";
        EXPECT_EQ(batched[1].maxAbsDiff(warm_solo.decodeStep(3)), 0.0)
            << what << " prefilled";
        fresh_solo.ingestStep(9);
        warm_solo.ingestStep(4);
        EXPECT_EQ(fresh.contextLen(), 2u) << what;
        EXPECT_EQ(warm.contextLen(), prompt.size() + 2) << what;

        const std::pair<nn::InferenceSession *, nn::InferenceSession *>
            pairs[] = {{&fresh, &fresh_solo}, {&warm, &warm_solo}};
        for (const auto &[got, want] : pairs) {
            for (size_t l = 0; l < model.depth(); ++l)
                for (size_t h = 0; h < cfg.heads; ++h) {
                    const nn::KvLayerSegment &g = got->kvCache(l).tail;
                    const nn::KvLayerSegment &w = want->kvCache(l).tail;
                    EXPECT_EQ(g.k.at(h).maxAbsDiff(w.k.at(h)), 0.0) << what;
                    EXPECT_EQ(g.v.at(h).maxAbsDiff(w.v.at(h)), 0.0) << what;
                }
            // The next logits read the whole state, pooled sum included.
            EXPECT_EQ(got->decodeStep(5).maxAbsDiff(want->decodeStep(5)),
                      0.0)
                << what << " request " << got->requestId();
        }
    }
}

// ---- server misuse paths ----------------------------------------------

TEST(Serve, SubmitValidationAndDrainRejection)
{
    nn::TransformerClassifier model(lmConfig(/*max_tokens=*/10));
    nn::IdealBackend backend;
    serve::Server server(model, backend);

    serve::Request ok;
    ok.prompt = {1, 2, 3};
    ok.max_new_tokens = 4;

    serve::Request empty_prompt = ok;
    empty_prompt.prompt.clear();
    EXPECT_THROW(server.submit(empty_prompt), std::invalid_argument);

    serve::Request zero_new = ok;
    zero_new.max_new_tokens = 0;
    EXPECT_THROW(server.submit(zero_new), std::invalid_argument);

    // A prompt already at max_tokens leaves no room to decode.
    serve::Request at_capacity = ok;
    at_capacity.prompt.assign(10, 1);
    EXPECT_THROW(server.submit(at_capacity), std::invalid_argument);

    // Prompt + budget straddling the table is rejected up front, not
    // mid-generation.
    serve::Request straddles = ok;
    straddles.prompt.assign(8, 1);
    straddles.max_new_tokens = 4;
    EXPECT_THROW(server.submit(straddles), std::invalid_argument);

    // The largest admissible budget for that prompt passes.
    serve::Request fits = ok;
    fits.prompt.assign(8, 1);
    fits.max_new_tokens = 3;
    auto future = server.submit(fits);

    // prompt + max_new_tokens - 1 wraps for a huge budget. Admitted,
    // such a request would throw in the fused step at max_tokens and
    // fail its batch-mate `fits` with it.
    serve::Request wraps = ok;
    wraps.max_new_tokens = std::numeric_limits<size_t>::max();
    EXPECT_THROW(server.submit(wraps), std::invalid_argument);

    serve::Request out_of_vocab = ok;
    out_of_vocab.prompt = {1, 99};
    EXPECT_THROW(server.submit(out_of_vocab), std::invalid_argument);

    server.runUntilIdle();
    EXPECT_EQ(future.get().generated.size(), 3u);
    EXPECT_EQ(server.metrics().request_failures, 0u);

    server.drain();
    EXPECT_THROW(server.submit(ok), std::runtime_error);
}

TEST(Serve, RejectsNonLmModels)
{
    nn::IdealBackend backend;

    nn::TransformerConfig mismatched_head = lmConfig();
    mismatched_head.num_classes = 7; // != vocab_size: argmax is not a token
    nn::TransformerClassifier bad_head(mismatched_head);
    EXPECT_THROW(serve::Server(bad_head, backend),
                 std::invalid_argument);

    nn::TransformerConfig bidi = lmConfig();
    bidi.causal = false;
    bidi.pooling = nn::Pooling::Mean;
    nn::TransformerClassifier encoder(bidi);
    EXPECT_THROW(serve::Server(encoder, backend),
                 std::invalid_argument);
}

// ---- admission control, deadlines, metrics ----------------------------

TEST(Serve, SchedulerHonoursMaxBatch)
{
    nn::TransformerClassifier model(lmConfig());
    nn::IdealBackend backend;
    serve::SchedulerConfig cfg;
    cfg.max_batch = 2;
    serve::BatchScheduler scheduler(
        model, backend, nn::QuantConfig::disabled(), cfg, nullptr);
    serve::RequestQueue queue;

    std::vector<std::future<serve::RequestResult>> futures;
    for (uint64_t id = 0; id < 5; ++id) {
        serve::Request req;
        req.prompt = {1, 2};
        req.max_new_tokens = 4;
        futures.push_back(queue.submit(std::move(req), id));
    }
    size_t ticks = 0;
    while (scheduler.tick(queue) > 0 || !queue.empty()) {
        EXPECT_LE(scheduler.activeRequests(), 2u);
        ++ticks;
    }
    EXPECT_GE(ticks, 5u); // 5 requests of 4 tokens can't fit 2-wide fast
    for (auto &f : futures)
        EXPECT_EQ(f.get().generated.size(), 4u);
}

TEST(Serve, DeadlineExpiryShedsLoad)
{
    nn::TransformerClassifier model(lmConfig());
    nn::IdealBackend backend;
    serve::Server server(model, backend);

    serve::Request doomed;
    doomed.prompt = {1, 2, 3};
    doomed.max_new_tokens = 8;
    // A zero deadline is now rejected at submit (expire-on-submit);
    // in-queue expiry needs a deadline that is alive at submission
    // and dead by the time the scheduler first looks at the queue.
    doomed.deadline = std::chrono::milliseconds(1);
    auto future = server.submit(doomed);
    // A deadline past steady_clock's range (~292 years in nanoseconds)
    // saturates to never expiring instead of wrapping into the past.
    std::vector<std::future<serve::RequestResult>> distant;
    for (std::chrono::milliseconds deadline :
         {std::chrono::milliseconds::max(),
          std::chrono::milliseconds::max() / 2}) {
        serve::Request req = doomed;
        req.deadline = deadline;
        distant.push_back(server.submit(std::move(req)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.runUntilIdle();

    serve::RequestResult result = future.get();
    EXPECT_TRUE(result.expired);
    EXPECT_LT(result.generated.size(), 8u);
    for (auto &f : distant) {
        const serve::RequestResult r = f.get();
        EXPECT_FALSE(r.expired);
        EXPECT_EQ(r.generated.size(), 8u);
    }
    EXPECT_EQ(server.metrics().expired, 1u);
}

TEST(Serve, MetricsAccountForTheWholeRun)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 4;
    scfg.quant = nn::QuantConfig::w8a8();
    serve::Server server(model, engine, scfg);

    const size_t kRequests = 6, kNew = 5;
    std::vector<std::future<serve::RequestResult>> futures;
    for (uint64_t id = 0; id < kRequests; ++id) {
        serve::Request req;
        req.prompt = promptFor(id, 4, model.config().vocab_size);
        req.max_new_tokens = kNew;
        futures.push_back(server.submit(std::move(req)));
    }
    server.runUntilIdle();
    for (auto &f : futures)
        EXPECT_EQ(f.get().generated.size(), kNew);

    serve::MetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.submitted, kRequests);
    EXPECT_EQ(snap.completed, kRequests);
    EXPECT_EQ(snap.expired, 0u);
    EXPECT_EQ(snap.prefills, kRequests);
    EXPECT_EQ(snap.tokens_generated, kRequests * kNew);
    EXPECT_EQ(snap.queue_depth, 0u);
    EXPECT_EQ(snap.active_requests, 0u);
    EXPECT_GT(snap.decode_ticks, 0u);
    EXPECT_GT(snap.ttft_p50_ms, 0.0);
    EXPECT_LE(snap.ttft_p50_ms, snap.ttft_p99_ms);
    EXPECT_GT(snap.token_p50_ms, 0.0);
    EXPECT_LE(snap.token_p50_ms, snap.token_p99_ms);
    EXPECT_GT(snap.tokens_per_s, 0.0);
    EXPECT_GT(snap.engine_macs, 0u);
    EXPECT_GT(snap.engine_batch_calls, 0u);
    // The weight-plan cache serves every projection after warmup:
    // hits grow with the serving work, misses stay frozen at one per
    // static layer weight (encoded once, never again).
    EXPECT_GT(snap.engine_weight_encode_hits,
              snap.engine_weight_encode_misses);
    EXPECT_EQ(snap.engine_weight_encode_misses,
              model.config().depth * 6 + 1);
    // The encoded-K/V cache serves every attention product of every
    // decode tick: hits grow with the generated tokens, misses stay
    // at the per-request prefill seeding (K^T and V per head per
    // layer) plus any beta-growth requantizations.
    EXPECT_GT(snap.engine_kv_encode_hits, snap.engine_kv_encode_misses);
    EXPECT_GE(snap.engine_kv_encode_misses,
              kRequests * model.config().depth *
                  model.config().heads * 2);
    // Bounded histograms carry the full distributions the p50/p99
    // scalars were estimated from.
    EXPECT_EQ(snap.ttft_hist.count(), kRequests);
    EXPECT_EQ(snap.token_hist.count(),
              kRequests * kNew - kRequests); // decode tokens only
    // Tick-phase accounting: every request prefilled and decoded, so
    // both phases accumulated wall time; no tracing was installed, so
    // nothing was dropped.
    EXPECT_GT(snap.tick_prefill_ms, 0.0);
    EXPECT_GT(snap.tick_decode_ms, 0.0);
    EXPECT_GE(snap.tick_admission_ms, 0.0);
    EXPECT_EQ(snap.trace_dropped_events, 0u);
}

TEST(Serve, MetricsPercentilesMatchNearestRankOnSmallSamples)
{
    // The histogram-backed estimates must agree with the nearest-rank
    // percentiles the old unbounded-vector Metrics computed, within
    // the log-bucket resolution (8 buckets/octave -> ±4.4%), and hit
    // the max EXACTLY at p99 for N <= 100 (rank == N clamps to the
    // tracked maximum).
    serve::Metrics metrics;
    const std::vector<double> ttft = {12.0, 15.5, 9.7, 30.2, 11.1};
    const std::vector<double> token = {1.4, 1.5,  1.45, 2.9, 1.38,
                                       1.6, 22.0, 1.42, 1.55};
    for (double ms : ttft)
        metrics.onPrefill(ms);
    for (double ms : token)
        metrics.recordTokenLatency(ms);

    auto nearestRank = [](std::vector<double> samples, double p) {
        std::sort(samples.begin(), samples.end());
        double rank = std::ceil(
            p / 100.0 * static_cast<double>(samples.size()));
        size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
        return samples[std::min(idx, samples.size() - 1)];
    };

    serve::MetricsSnapshot snap = metrics.snapshot();
    EXPECT_NEAR(snap.ttft_p50_ms, nearestRank(ttft, 50.0),
                0.05 * nearestRank(ttft, 50.0));
    EXPECT_DOUBLE_EQ(snap.ttft_p99_ms, 30.2);
    EXPECT_NEAR(snap.token_p50_ms, nearestRank(token, 50.0),
                0.05 * nearestRank(token, 50.0));
    EXPECT_DOUBLE_EQ(snap.token_p99_ms, 22.0);
    EXPECT_EQ(snap.ttft_hist.count(), ttft.size());
    EXPECT_EQ(snap.token_hist.count(), token.size());
}

TEST(Serve, TraceRecordsTheWholeRequestLifecycle)
{
    // End-to-end tracing through the serve path: every instrumented
    // phase emits at least one event, request-tagged events cover the
    // lifecycle, and the server surfaces the recorder's drop counter.
    obs::TraceRecorder recorder(1 << 14);
    obs::installRecorder(&recorder);

    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 4;
    scfg.kv_pool.num_blocks = 256;
    {
        serve::Server server(model, engine, scfg);
        std::vector<std::future<serve::RequestResult>> futures;
        for (uint64_t id = 0; id < 4; ++id) {
            serve::Request req;
            req.prompt = promptFor(id, 4, model.config().vocab_size);
            req.max_new_tokens = 4;
            futures.push_back(server.submit(std::move(req)));
        }
        server.runUntilIdle();
        for (auto &f : futures)
            f.get();
        EXPECT_EQ(server.metrics().trace_dropped_events,
                  recorder.droppedEvents());
    }
    obs::installRecorder(nullptr);

    std::map<std::string, size_t> by_name;
    std::set<uint64_t> request_ids;
    for (const auto &lane : recorder.snapshot())
        for (const auto &e : lane.events) {
            by_name[e.name] += 1;
            if (e.request_id != obs::kNoRequest)
                request_ids.insert(e.request_id);
        }
    for (const char *name :
         {"req/submit", "req/queued", "req/admitted", "req/prefill",
          "req/token", "req/complete", "tick/admission", "tick/decode",
          "decoder/step", "session/prefill", "engine/gemmBatch",
          "pool/admit", "pool/release"})
        EXPECT_GE(by_name[name], 1u) << "no events named " << name;
    EXPECT_EQ(request_ids.size(), 4u);
    // One admission per request, one decoder/step per decode tick.
    EXPECT_EQ(by_name["req/admitted"], 4u);
    EXPECT_EQ(by_name["req/complete"], 4u);

    // The exported trace and breakdown are derivable from the run.
    obs::PhaseBreakdown pb = obs::phaseBreakdown(recorder.snapshot());
    EXPECT_GT(pb.prefill_ms, 0.0);
    EXPECT_GT(pb.decode_ms, 0.0);
    EXPECT_GT(pb.totalMs(), 0.0);
}

TEST(Serve, ThreadedServerDrainsConcurrentClients)
{
    // The background serving thread + concurrent submitters: every
    // future resolves, nothing deadlocks, drain() joins cleanly.
    nn::TransformerClassifier model(lmConfig());
    nn::IdealBackend backend;
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 3;
    serve::Server server(model, backend, scfg);
    server.start();

    const size_t kClients = 3, kPerClient = 4;
    std::vector<std::future<std::vector<size_t>>> clients;
    for (size_t c = 0; c < kClients; ++c)
        clients.push_back(std::async(std::launch::async, [&, c] {
            std::vector<size_t> token_counts;
            for (size_t i = 0; i < kPerClient; ++i) {
                serve::Request req;
                req.prompt = promptFor(c * 16 + i, 3,
                                       model.config().vocab_size);
                req.max_new_tokens = 3 + (i % 3);
                auto fut = server.submit(std::move(req));
                token_counts.push_back(fut.get().generated.size());
            }
            return token_counts;
        }));
    for (size_t c = 0; c < kClients; ++c) {
        std::vector<size_t> counts = clients[c].get();
        for (size_t i = 0; i < kPerClient; ++i)
            EXPECT_EQ(counts[i], 3 + (i % 3)) << "client " << c;
    }
    server.drain();
    EXPECT_EQ(server.metrics().completed, kClients * kPerClient);
}

// ---- robustness: rejection, containment, fault soak ------------------

TEST(Serve, ExpireOnSubmitRejectsDeadOnArrival)
{
    nn::TransformerClassifier model(lmConfig());
    nn::IdealBackend backend;
    serve::Server server(model, backend);

    for (int ms : {0, -5}) {
        serve::Request dead;
        dead.prompt = {1, 2, 3};
        dead.max_new_tokens = 4;
        dead.deadline = std::chrono::milliseconds(ms);
        EXPECT_THROW(server.submit(std::move(dead)),
                     serve::DeadlineExpiredError);
    }
    serve::MetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.rejected_expired, 2u);
    EXPECT_EQ(snap.submitted, 0u);
    EXPECT_EQ(server.queueDepth(), 0u); // never occupied a slot
}

TEST(Serve, BackpressureShedsLoadAtMaxQueueDepth)
{
    nn::TransformerClassifier model(lmConfig());
    nn::IdealBackend backend;
    serve::ServerConfig scfg;
    scfg.max_queue_depth = 2;
    serve::Server server(model, backend, scfg);

    auto makeRequest = [&](uint64_t id) {
        serve::Request req;
        req.prompt = promptFor(id, 3, model.config().vocab_size);
        req.max_new_tokens = 3;
        return req;
    };
    // Manual mode: nothing drains the queue while we fill it.
    auto f0 = server.submit(makeRequest(0));
    auto f1 = server.submit(makeRequest(1));
    EXPECT_THROW(server.submit(makeRequest(2)),
                 serve::QueueSaturatedError);
    // The saturated error is also a SubmitRejectedError — callers can
    // catch the retryable family without enumerating subtypes.
    try {
        server.submit(makeRequest(3));
        FAIL() << "expected QueueSaturatedError";
    } catch (const serve::SubmitRejectedError &) {
    }

    server.runUntilIdle();
    EXPECT_EQ(f0.get().generated.size(), 3u);
    EXPECT_EQ(f1.get().generated.size(), 3u);
    serve::MetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.rejected_queue_full, 2u);
    EXPECT_EQ(snap.submitted, 2u);
    EXPECT_EQ(snap.completed, 2u);
    // Once the queue drained, submits flow again.
    auto f4 = server.submit(makeRequest(4));
    server.runUntilIdle();
    EXPECT_EQ(f4.get().generated.size(), 3u);
}

TEST(Serve, EngineFaultSoakEveryFutureResolvesBitIdentically)
{
    // The serve-level soak of the fault PR: a faulty replica detected,
    // retried, and quarantined mid-flight under a threaded server.
    // Every future resolves, the drain is clean, and tokens + logits
    // match a fault-free server run bit-exactly (recovery re-executes
    // on healthy replicas whose noise is replica-independent).
    nn::TransformerClassifier model(lmConfig());
    const size_t kRequests = 6, kNew = 5;

    auto runServer = [&](nn::ExecutionEngine &engine) {
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = 4;
        scfg.quant = nn::QuantConfig::w8a8();
        serve::Server server(model, engine, scfg);
        server.start();
        std::vector<std::future<serve::RequestResult>> futures;
        for (uint64_t id = 0; id < kRequests; ++id) {
            serve::Request req;
            req.prompt = promptFor(id, 4, model.config().vocab_size);
            req.max_new_tokens = kNew;
            req.record_logits = true;
            req.request_id = id;
            futures.push_back(server.submit(std::move(req)));
        }
        std::vector<serve::RequestResult> results;
        for (auto &f : futures)
            results.push_back(f.get());
        server.drain();
        return results;
    };

    nn::EngineConfig faulty;
    faulty.dptc = noisyDptc();
    faulty.mode = core::EvalMode::Noisy;
    faulty.num_cores = 4;
    faulty.faults.replicas.resize(4);
    faulty.faults.replicas[1].dead = true;
    nn::ExecutionEngine faulty_engine(faulty);

    nn::EngineConfig clean = faulty;
    clean.faults = core::FaultConfig{};
    nn::ExecutionEngine clean_engine(clean);

    std::vector<serve::RequestResult> got = runServer(faulty_engine);
    std::vector<serve::RequestResult> want = runServer(clean_engine);
    ASSERT_EQ(got.size(), kRequests);
    for (size_t i = 0; i < kRequests; ++i) {
        EXPECT_FALSE(got[i].expired);
        EXPECT_EQ(got[i].generated, want[i].generated) << "req " << i;
        ASSERT_EQ(got[i].step_logits.size(),
                  want[i].step_logits.size());
        for (size_t s = 0; s < got[i].step_logits.size(); ++s)
            EXPECT_EQ(got[i].step_logits[s].maxAbsDiff(
                          want[i].step_logits[s]),
                      0.0)
                << "req " << i << " step " << s;
    }
    nn::EngineStatus status = faulty_engine.status();
    EXPECT_GT(status.faults_detected, 0u);
    EXPECT_GT(status.fault_retries, 0u);
    EXPECT_EQ(status.quarantined_replicas, 1u); // dead replica benched
    EXPECT_EQ(clean_engine.status().faults_detected, 0u);
}

TEST(Serve, DeadAndStuckReplicasRecoverWithoutFailingOrDegrading)
{
    // The fault smoke: a burst served inline on a 4-replica engine
    // whose replica 1 is a dead shard and replica 2 has a DAC channel
    // stuck near zero. Every future resolves, the checksum layer
    // detects the faults and quarantines at least one replica without
    // degrading the engine, no request fails, and the recovered
    // output is bit-identical to a fault-free run. Every engine call
    // retries its tiles over the healthy set it read once, so the
    // fault counts are the same at 1 and at 4 pool threads.
    nn::TransformerClassifier model(lmConfig());
    const size_t kRequests = 6, kPrompt = 8, kNew = 12;

    struct Served
    {
        std::vector<serve::RequestResult> results;
        serve::MetricsSnapshot metrics;
    };
    auto serveBurst = [&](nn::ExecutionEngine &engine) {
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = kRequests;
        scfg.quant = nn::QuantConfig::w8a8();
        serve::Server server(model, engine, scfg);
        std::vector<std::future<serve::RequestResult>> futures;
        for (uint64_t id = 0; id < kRequests; ++id) {
            serve::Request req;
            req.prompt =
                promptFor(id, kPrompt, model.config().vocab_size);
            req.max_new_tokens = kNew;
            req.record_logits = true;
            req.request_id = id;
            futures.push_back(server.submit(std::move(req)));
        }
        server.runUntilIdle();
        Served served;
        for (auto &f : futures) {
            EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
            EXPECT_NO_THROW(served.results.push_back(f.get()));
        }
        served.metrics = server.metrics();
        return served;
    };

    nn::EngineConfig fcfg;
    fcfg.dptc = noisyDptc();
    fcfg.num_cores = 4;
    fcfg.faults.replicas.resize(3);
    fcfg.faults.replicas[1].dead = true;
    fcfg.faults.replicas[2].stuck_channel = 2; // near-zero stuck value

    nn::EngineConfig ccfg = fcfg;
    ccfg.faults = core::FaultConfig{};
    nn::ExecutionEngine clean(ccfg);
    const Served want = serveBurst(clean);
    ASSERT_EQ(want.results.size(), kRequests);

    std::vector<nn::EngineStatus> statuses;
    for (size_t threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        nn::ExecutionEngine faulty(fcfg);
        const Served got = serveBurst(faulty);
        const nn::EngineStatus status = faulty.status();
        statuses.push_back(status);

        EXPECT_GE(status.quarantines, 1u) << "threads " << threads;
        EXPECT_GT(status.faults_detected, 0u) << "threads " << threads;
        EXPECT_FALSE(status.degraded) << "threads " << threads;
        EXPECT_EQ(got.metrics.request_failures, 0u);
        ASSERT_EQ(got.results.size(), kRequests);
        for (size_t i = 0; i < kRequests; ++i) {
            EXPECT_FALSE(got.results[i].expired) << "req " << i;
            EXPECT_EQ(got.results[i].generated, want.results[i].generated)
                << "threads " << threads << " req " << i;
            ASSERT_EQ(got.results[i].step_logits.size(),
                      want.results[i].step_logits.size());
            for (size_t s = 0; s < want.results[i].step_logits.size(); ++s)
                EXPECT_EQ(got.results[i].step_logits[s].maxAbsDiff(
                              want.results[i].step_logits[s]),
                          0.0)
                    << "threads " << threads << " req " << i << " step "
                    << s;
        }
    }
    ThreadPool::setGlobalThreads(0);

    EXPECT_EQ(statuses[1].faults_detected, statuses[0].faults_detected);
    EXPECT_EQ(statuses[1].fault_retries, statuses[0].fault_retries);
    EXPECT_EQ(statuses[1].quarantines, statuses[0].quarantines);
}

TEST(Serve, DecodeStepFaultReplaysSessionsBitIdentically)
{
    // One fused decode step throws EngineFaultError exactly once: a
    // replica with an intermittent dead shard, no tile retries, and
    // quarantine on its first detection, so the first fault escapes
    // the engine and every later product avoids the replica. The fault
    // seed puts that detection in the sixth decode tick. The scheduler
    // replays every decoding session (its prompt, then its generated
    // tokens but the feed, through ingest steps) and re-runs the
    // step; tokens and logits must equal a fault-free server's bit for
    // bit.
    nn::TransformerClassifier model(lmConfig());
    const size_t kRequests = 4, kPrompt = 6, kNew = 8;

    struct Served
    {
        std::vector<serve::RequestResult> results;
        serve::MetricsSnapshot metrics;
        std::vector<obs::TraceEvent> step_retries;
        size_t tokens_before_retry = 0; ///< "req/token" instants
        size_t ingests_after_retry = 0; ///< "session/ingest_step" spans
    };
    auto serveAll = [&](nn::ExecutionEngine &engine) {
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = kRequests;
        scfg.scheduler.prefill_chunk_tokens = 2;
        scfg.scheduler.step_retry_backoff = std::chrono::milliseconds(0);
        scfg.quant = nn::QuantConfig::w8a8();
        obs::TraceRecorder recorder(1 << 16);
        obs::installRecorder(&recorder);
        Served served;
        {
            serve::Server server(model, engine, scfg);
            std::vector<std::future<serve::RequestResult>> futures;
            for (uint64_t id = 0; id < kRequests; ++id) {
                serve::Request req;
                req.prompt =
                    promptFor(id, kPrompt, model.config().vocab_size);
                req.max_new_tokens = kNew;
                req.record_logits = true;
                req.request_id = id;
                futures.push_back(server.submit(std::move(req)));
            }
            server.runUntilIdle();
            for (auto &f : futures)
                served.results.push_back(f.get());
            served.metrics = server.metrics();
        }
        obs::installRecorder(nullptr);
        EXPECT_EQ(recorder.droppedEvents(), 0u);
        for (const auto &lane : recorder.snapshot())
            for (const obs::TraceEvent &e : lane.events) {
                const std::string name = e.name;
                if (name == "fault/step_retry")
                    served.step_retries.push_back(e);
                else if (name == "req/token" && served.step_retries.empty())
                    ++served.tokens_before_retry;
                else if (name == "session/ingest_step" &&
                         !served.step_retries.empty())
                    ++served.ingests_after_retry;
            }
        return served;
    };

    nn::EngineConfig fcfg;
    fcfg.dptc = noisyDptc();
    fcfg.num_cores = 2;
    fcfg.faults.seed = 14;
    fcfg.faults.replicas.resize(2);
    fcfg.faults.replicas[1].dead = true;
    fcfg.faults.replicas[1].activation_prob = 0.005;
    fcfg.fault_policy.max_tile_retries = 0;
    fcfg.fault_policy.quarantine_threshold = 1;
    nn::ExecutionEngine faulty(fcfg);
    const Served got = serveAll(faulty);

    nn::EngineConfig ccfg = fcfg;
    ccfg.faults = core::FaultConfig{};
    nn::ExecutionEngine clean(ccfg);
    const Served want = serveAll(clean);

    // Exactly one retry, and it was the fused decode step's: only that
    // retry's instant carries the batch size.
    EXPECT_EQ(got.metrics.engine_step_retries, 1u);
    EXPECT_EQ(got.metrics.request_failures, 0u);
    EXPECT_EQ(faulty.status().quarantined_replicas, 1u);
    ASSERT_EQ(got.step_retries.size(), 1u);
    const obs::TraceEvent &retry = got.step_retries.front();
    ASSERT_EQ(retry.numArgs(), 2u);
    EXPECT_STREQ(retry.arg_names[1], "batch");
    EXPECT_EQ(retry.args[1], static_cast<int64_t>(kRequests));
    EXPECT_EQ(want.metrics.engine_step_retries, 0u);

    // The replay ran ingest steps for each prompt's tokens 0..4 (its
    // one whole-prompt chunk) and for every generated token but the
    // feed: one per req/token instant before the fault.
    EXPECT_EQ(got.tokens_before_retry, 5 * kRequests);
    EXPECT_EQ(got.ingests_after_retry,
              kRequests * (kPrompt - 1) + got.tokens_before_retry);

    ASSERT_EQ(got.results.size(), kRequests);
    ASSERT_EQ(want.results.size(), kRequests);
    for (size_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(got.results[i].generated, want.results[i].generated)
            << "req " << i;
        ASSERT_EQ(got.results[i].step_logits.size(), kNew);
        ASSERT_EQ(want.results[i].step_logits.size(), kNew);
        for (size_t s = 0; s < kNew; ++s)
            EXPECT_EQ(got.results[i].step_logits[s].maxAbsDiff(
                          want.results[i].step_logits[s]),
                      0.0)
                << "req " << i << " step " << s;
    }
}

TEST(Serve, PersistentEngineFailureFailsRequestsNotTheServer)
{
    // Every replica dead and quarantine out of reach: prefill faults
    // exhaust the engine's tile retries AND the scheduler's bounded
    // step retries, so each request fails on ITS future — the server
    // survives, later submits still work, and every KV pool block
    // comes back.
    nn::TransformerClassifier model(lmConfig());
    nn::EngineConfig ecfg;
    ecfg.dptc = noisyDptc();
    ecfg.mode = core::EvalMode::Noisy;
    ecfg.num_cores = 2;
    ecfg.faults.replicas.resize(2);
    for (auto &r : ecfg.faults.replicas)
        r.dead = true;
    ecfg.fault_policy.max_tile_retries = 1;
    ecfg.fault_policy.quarantine_threshold = 1000000;
    nn::ExecutionEngine engine(ecfg);

    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 2;
    scfg.scheduler.step_retry_backoff = std::chrono::milliseconds(0);
    scfg.kv_pool.num_blocks = 64;
    serve::Server server(model, engine, scfg);

    const size_t kRequests = 3;
    std::vector<std::future<serve::RequestResult>> futures;
    for (uint64_t id = 0; id < kRequests; ++id) {
        serve::Request req;
        req.prompt = promptFor(id, 4, model.config().vocab_size);
        req.max_new_tokens = 3;
        futures.push_back(server.submit(std::move(req)));
    }
    server.runUntilIdle();
    for (auto &f : futures)
        EXPECT_THROW(f.get(), nn::EngineFaultError);

    serve::MetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.request_failures, kRequests);
    EXPECT_EQ(snap.completed, 0u);
    // The scheduler burned its bounded retries before giving up:
    // BatchScheduler::kMaxStepRetries (2) rebuild-and-reprefill
    // attempts apiece.
    EXPECT_EQ(snap.engine_step_retries, 2 * kRequests);
    EXPECT_GT(snap.engine_faults_detected, 0u);
    // Failure released every admission: the pool is whole again.
    ASSERT_NE(server.kvPool(), nullptr);
    serve::KvPoolStats pool = server.kvPool()->stats();
    EXPECT_EQ(pool.free_blocks, pool.total_blocks);
    EXPECT_EQ(pool.used_blocks, 0u);

    // The server is still alive and still failing politely.
    auto late = server.submit([&] {
        serve::Request req;
        req.prompt = promptFor(99, 4, model.config().vocab_size);
        req.max_new_tokens = 2;
        return req;
    }());
    server.runUntilIdle();
    EXPECT_THROW(late.get(), nn::EngineFaultError);
    EXPECT_EQ(server.metrics().request_failures, kRequests + 1);
}

// ---- queue ordering: priority, EDF, starvation freedom ----------------

namespace {

serve::Request
queueRequest(int priority,
             std::optional<std::chrono::milliseconds> deadline =
                 std::nullopt)
{
    serve::Request req;
    req.prompt = {1, 2, 3};
    req.max_new_tokens = 1;
    req.priority = priority;
    req.deadline = deadline;
    return req;
}

const auto kTakeAll = [](const serve::PendingRequest &) {
    return true;
};

} // namespace

TEST(Serve, QueueDefaultsDegenerateToFifo)
{
    serve::RequestQueue queue;
    for (uint64_t id = 0; id < 5; ++id)
        queue.submit(queueRequest(0), id);
    for (uint64_t id = 0; id < 5; ++id) {
        auto taken = queue.takeIf(kTakeAll);
        ASSERT_TRUE(taken.has_value());
        EXPECT_EQ(taken->id, id);
    }
}

TEST(Serve, QueueServesHigherPriorityThenEarliestDeadline)
{
    using std::chrono::milliseconds;
    serve::RequestQueue queue;
    queue.submit(queueRequest(0, milliseconds(100)), 0);
    queue.submit(queueRequest(1, milliseconds(900)), 1);
    queue.submit(queueRequest(1, milliseconds(500)), 2);
    queue.submit(queueRequest(1), 3); // same class, no deadline
    queue.submit(queueRequest(0), 4);

    // Highest class first; EDF inside it (finite beats none); then
    // the lower class, again deadline before deadline-less.
    std::vector<uint64_t> order;
    while (auto taken = queue.takeIf(kTakeAll))
        order.push_back(taken->id);
    EXPECT_EQ(order, (std::vector<uint64_t>{2, 1, 3, 0, 4}));
}

TEST(Serve, QueueRejectedCandidateIsNeverOvertaken)
{
    // The pool's no-starvation admission order: while pred says no to
    // the most urgent candidate, nothing else pops over it.
    serve::RequestQueue queue;
    queue.submit(queueRequest(5), 0);
    queue.submit(queueRequest(0), 1);
    auto taken = queue.takeIf(
        [](const serve::PendingRequest &p) { return p.id != 0; });
    EXPECT_FALSE(taken.has_value());
    EXPECT_EQ(queue.depth(), 2u);
}

TEST(Serve, QueueBypassAgingBoundsStarvation)
{
    // A low-priority request under a steady stream of high-priority
    // arrivals is served after at most kStarvationBypassLimit
    // bypasses — it cannot wait forever.
    serve::RequestQueue queue;
    queue.submit(queueRequest(0), 0); // the would-be starved entry
    uint64_t next_id = 1;
    size_t bypasses = 0;
    while (bypasses <= serve::RequestQueue::kStarvationBypassLimit +
                           1) {
        queue.submit(queueRequest(9), next_id++);
        auto taken = queue.takeIf(kTakeAll);
        ASSERT_TRUE(taken.has_value());
        if (taken->id == 0)
            break;
        ++bypasses;
    }
    EXPECT_EQ(bypasses, serve::RequestQueue::kStarvationBypassLimit)
        << "the aged entry must pop exactly when it hits the limit";
}

} // namespace
