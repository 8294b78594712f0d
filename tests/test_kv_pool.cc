/**
 * @file
 * Tests for the paged KV-cache block pool (serve/kv_pool): block
 * budget arithmetic, copy-on-write prefix sharing with refcounts, LRU
 * eviction with bit-identical recompute on readmission, exhaustion
 * queueing (FIFO, no starvation) and submit-time rejection of
 * never-fits requests — plus the serving contracts on top: paged
 * serving without sharing matches the dense-reserve server bitwise,
 * shared-prefix requests are bit-identical to each run solo, and one
 * fixed block budget holds shared prefixes in fewer, exactly counted
 * blocks than independent prompts.
 */

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/execution_engine.hh"
#include "nn/inference_session.hh"
#include "nn/tensor_ops.hh"
#include "serve/kv_pool/kv_block_pool.hh"
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

/** A prompt that starts with `prefix` and ends in an id-unique tail. */
std::vector<int>
promptWithPrefix(const std::vector<int> &prefix, uint64_t id,
                 size_t suffix_len, size_t vocab)
{
    std::vector<int> prompt = prefix;
    std::vector<int> tail = promptFor(0x900 + id, suffix_len, vocab);
    prompt.insert(prompt.end(), tail.begin(), tail.end());
    return prompt;
}

serve::KvPoolConfig
poolCfg(size_t block_tokens, size_t num_blocks)
{
    serve::KvPoolConfig cfg;
    cfg.block_tokens = block_tokens;
    cfg.num_blocks = num_blocks;
    return cfg;
}

// ---- block arithmetic and construction guards -------------------------

TEST(KvPool, BlockMathAndConstructionGuards)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();

    serve::KvBlockPool pool(model, engine, quant, poolCfg(4, 10));
    // One block: 4 tokens x (K+V) x dim doubles, all heads.
    EXPECT_EQ(pool.blockBytes(), 4u * 2u * 16u * sizeof(double));
    // Blocks span ALL layers: depth * ceil(tokens / block_tokens).
    EXPECT_EQ(pool.blocksForTokens(0), 0u);
    EXPECT_EQ(pool.blocksForTokens(1), 2u);
    EXPECT_EQ(pool.blocksForTokens(4), 2u);
    EXPECT_EQ(pool.blocksForTokens(5), 4u);

    serve::KvPoolStats stats = pool.stats();
    EXPECT_EQ(stats.total_blocks, 10u);
    EXPECT_EQ(stats.free_blocks, 10u);
    EXPECT_EQ(stats.used_blocks, 0u);
    EXPECT_EQ(stats.resident_blocks, 0u);

    EXPECT_THROW(
        serve::KvBlockPool(model, engine, quant, poolCfg(0, 10)),
        std::invalid_argument);
    EXPECT_THROW(
        serve::KvBlockPool(model, engine, quant, poolCfg(4, 0)),
        std::invalid_argument);

    // fitsEver is against the WHOLE budget, not current load.
    EXPECT_TRUE(pool.fitsEver(/*prompt=*/5, /*prefix=*/0, /*new=*/5));
    EXPECT_FALSE(pool.fitsEver(/*prompt=*/5, /*prefix=*/0, /*new=*/40));
}

// ---- refcounted copy-on-write sharing ---------------------------------

TEST(KvPool, PrefixAcquireRefcountAndRelease)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    serve::KvBlockPool pool(model, engine, quant, poolCfg(4, 12));

    const std::vector<int> prefix =
        promptFor(7, 4, model.config().vocab_size);
    const std::vector<int> prompt_a =
        promptWithPrefix(prefix, 0, 2, model.config().vocab_size);
    const std::vector<int> prompt_b =
        promptWithPrefix(prefix, 1, 2, model.config().vocab_size);

    // First admission computes the prefix (miss)...
    serve::KvBlockPool::Admission a = pool.admit(prompt_a, 4, 2);
    ASSERT_NE(a.prefix, nullptr);
    serve::KvPoolStats s1 = pool.stats();
    EXPECT_EQ(s1.prefix_entries, 1u);
    EXPECT_EQ(s1.prefix_misses, 1u);
    EXPECT_EQ(s1.prefix_hits, 0u);
    EXPECT_EQ(s1.shared_blocks, 0u); // one mapper is not sharing

    // ...the second maps the SAME object copy-on-write (hit).
    serve::KvBlockPool::Admission b = pool.admit(prompt_b, 4, 2);
    EXPECT_EQ(b.prefix.get(), a.prefix.get());
    serve::KvPoolStats s2 = pool.stats();
    EXPECT_EQ(s2.prefix_entries, 1u);
    EXPECT_EQ(s2.prefix_hits, 1u);
    EXPECT_EQ(s2.prefix_misses, 1u);
    EXPECT_GT(s2.shared_blocks, 0u); // refs == 2 now

    pool.release(a);
    EXPECT_EQ(pool.stats().shared_blocks, 0u);
    pool.release(b);

    // Both released: the entry stays warm (idle) — its blocks remain
    // committed — and a third request hits it without recomputing.
    serve::KvPoolStats s3 = pool.stats();
    EXPECT_EQ(s3.prefix_entries, 1u);
    EXPECT_EQ(s3.used_blocks, pool.blocksForTokens(4));
    serve::KvBlockPool::Admission c = pool.admit(prompt_a, 4, 2);
    EXPECT_EQ(pool.stats().prefix_hits, 2u);
    EXPECT_EQ(pool.stats().prefix_misses, 1u);
    pool.release(c);
}

TEST(KvPool, RefcountedBlocksNeverFreedWhileMapped)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    // Exactly one request's worth of blocks: prefix 2 + tail 2.
    serve::KvBlockPool pool(model, engine, quant, poolCfg(4, 4));

    const std::vector<int> prefix =
        promptFor(3, 4, model.config().vocab_size);
    const std::vector<int> prompt =
        promptWithPrefix(prefix, 0, 1, model.config().vocab_size);

    serve::KvBlockPool::Admission a = pool.admit(prompt, 4, 1);
    EXPECT_EQ(pool.stats().free_blocks, 0u);

    // Another request needs blocks, but the only candidate entry is
    // mapped (refs = 1): it must wait, not evict.
    const std::vector<int> other =
        promptFor(11, 3, model.config().vocab_size);
    EXPECT_FALSE(pool.canAdmit(other, 0, 2));
    EXPECT_EQ(pool.stats().evictions, 0u);
    EXPECT_EQ(pool.stats().prefix_entries, 1u);

    // Released, the idle entry becomes evictable and admission opens.
    pool.release(a);
    EXPECT_TRUE(pool.canAdmit(other, 0, 2));
    serve::KvBlockPool::Admission b = pool.admit(other, 0, 2);
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_EQ(pool.stats().prefix_entries, 0u);
    pool.release(b);
}

// ---- LRU eviction + bit-identical recompute ---------------------------

TEST(KvPool, IdleEntriesEvictLruAndRecomputeBitIdentically)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    serve::KvBlockPool pool(model, engine, quant, poolCfg(4, 6));

    const size_t vocab = model.config().vocab_size;
    const std::vector<int> prefix_a = promptFor(20, 4, vocab);
    const std::vector<int> prefix_b = promptFor(21, 4, vocab);

    // Cache prefix A, then B; keep a handle on A's data to compare
    // the post-eviction recompute against.
    serve::KvBlockPool::Admission a =
        pool.admit(promptWithPrefix(prefix_a, 0, 1, vocab), 4, 1);
    std::shared_ptr<const nn::KvPrefix> original_a = a.prefix;
    pool.release(a);
    serve::KvBlockPool::Admission b =
        pool.admit(promptWithPrefix(prefix_b, 1, 1, vocab), 4, 1);
    pool.release(b);
    // Both idle: 2 + 2 resident prefix blocks of 6.
    EXPECT_EQ(pool.stats().prefix_entries, 2u);
    EXPECT_EQ(pool.stats().used_blocks, 4u);

    // A big prefix-less request needs 4 blocks; 2 are free, so the
    // LRU entry — A, released first — is evicted. B survives.
    serve::KvBlockPool::Admission big =
        pool.admit(promptFor(30, 5, vocab), 0, 2);
    serve::KvPoolStats s = pool.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.prefix_entries, 1u);
    pool.release(big);

    // Readmission of A recomputes (counted) — to the exact same bits:
    // the prefix is a pure function of its tokens, not of history.
    serve::KvBlockPool::Admission a2 =
        pool.admit(promptWithPrefix(prefix_a, 2, 1, vocab), 4, 1);
    EXPECT_EQ(pool.stats().recomputes, 1u);
    EXPECT_NE(a2.prefix.get(), original_a.get());
    ASSERT_EQ(a2.prefix->layers.size(), original_a->layers.size());
    for (size_t l = 0; l < original_a->layers.size(); ++l) {
        const nn::KvLayerSegment &lhs = original_a->layers[l];
        const nn::KvLayerSegment &rhs = a2.prefix->layers[l];
        ASSERT_EQ(lhs.k.size(), rhs.k.size());
        for (size_t h = 0; h < lhs.k.size(); ++h) {
            EXPECT_EQ(lhs.k[h].maxAbsDiff(rhs.k[h]), 0.0)
                << "layer " << l << " head " << h << " K";
            EXPECT_EQ(lhs.v[h].maxAbsDiff(rhs.v[h]), 0.0)
                << "layer " << l << " head " << h << " V";
        }
    }
    pool.release(a2);
}

// ---- serving: exhaustion queues FIFO, never-fits rejects at submit ----

TEST(KvPool, ExhaustionQueuesFifoAndServesEverythingEventually)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 8; // slots ample: the POOL is the gate
    scfg.quant = nn::QuantConfig::w8a8();
    scfg.kv_pool = poolCfg(4, 6);
    serve::Server server(model, engine, scfg);

    // Each request needs 4 of the 6 blocks -> at most one in flight.
    const size_t kRequests = 5, kNew = 4;
    std::vector<std::future<serve::RequestResult>> futures;
    for (uint64_t id = 0; id < kRequests; ++id) {
        serve::Request req;
        req.prompt = promptFor(id, 3, model.config().vocab_size);
        req.max_new_tokens = kNew;
        req.request_id = id;
        futures.push_back(server.submit(std::move(req)));
    }
    server.runUntilIdle();
    for (auto &f : futures)
        EXPECT_EQ(f.get().generated.size(), kNew);

    serve::MetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.completed, kRequests);
    EXPECT_EQ(snap.expired, 0u);
    // The budget held: never more committed than the pool owns, and
    // the scheduler could not run the requests concurrently.
    EXPECT_LE(snap.kv_pool.peak_used_blocks, 6u);
    EXPECT_GE(snap.kv_pool.peak_used_blocks, 4u);
    EXPECT_EQ(snap.peak_active_requests, 1u);
    // Fully drained: every block back in the budget.
    EXPECT_EQ(snap.kv_pool.used_blocks, 0u);
    EXPECT_EQ(snap.kv_pool.free_blocks, snap.kv_pool.total_blocks);
    EXPECT_EQ(snap.kv_pool.resident_blocks, 0u);
}

TEST(KvPool, SubmitRejectsRequestsThatCanNeverFit)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.quant = nn::QuantConfig::w8a8();
    scfg.kv_pool = poolCfg(4, 2);
    serve::Server server(model, engine, scfg);

    // Needs 4 blocks of a 2-block pool: reject at submit — queueing
    // it would wedge the FIFO queue forever.
    serve::Request never_fits;
    never_fits.prompt = promptFor(0, 5, model.config().vocab_size);
    never_fits.max_new_tokens = 2;
    EXPECT_THROW(server.submit(never_fits), std::invalid_argument);

    // Sharing must leave a suffix token...
    serve::Request all_prefix;
    all_prefix.prompt = promptFor(1, 4, model.config().vocab_size);
    all_prefix.max_new_tokens = 1;
    all_prefix.shared_prefix_tokens = 4;
    EXPECT_THROW(server.submit(all_prefix), std::invalid_argument);

    // ...and requires a pool at all.
    nn::ExecutionEngine dense_engine(noisyDptc(),
                                     core::EvalMode::Noisy);
    serve::Server dense(model, dense_engine);
    serve::Request needs_pool;
    needs_pool.prompt = promptFor(2, 4, model.config().vocab_size);
    needs_pool.max_new_tokens = 1;
    needs_pool.shared_prefix_tokens = 2;
    EXPECT_THROW(dense.submit(needs_pool), std::invalid_argument);

    // A right-sized request on the tiny pool still goes through.
    serve::Request fits;
    fits.prompt = promptFor(3, 2, model.config().vocab_size);
    fits.max_new_tokens = 2;
    auto future = server.submit(fits);
    server.runUntilIdle();
    EXPECT_EQ(future.get().generated.size(), 2u);
}

// ---- bit-identity contracts of the paged/shared serving paths ---------

TEST(KvPool, PagedServingWithoutSharingMatchesDenseReserveBitwise)
{
    // With no shared prefixes, paging is pure memory accounting: the
    // tokens and every step's logits must equal the dense-reserve
    // server's bit for bit (same lanes, same arithmetic, same order).
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kRequests = 4, kPrompt = 5, kNew = 6;

    auto run = [&](bool paged) {
        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = kRequests;
        scfg.quant = quant;
        if (paged)
            scfg.kv_pool = poolCfg(4, 64);
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
        std::vector<serve::RequestResult> results;
        for (auto &f : futures)
            results.push_back(f.get());
        return results;
    };

    std::vector<serve::RequestResult> dense = run(false);
    std::vector<serve::RequestResult> paged = run(true);
    for (size_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(paged[i].generated, dense[i].generated)
            << "request " << i;
        ASSERT_EQ(paged[i].step_logits.size(),
                  dense[i].step_logits.size());
        for (size_t s = 0; s < dense[i].step_logits.size(); ++s)
            EXPECT_EQ(paged[i].step_logits[s].maxAbsDiff(
                          dense[i].step_logits[s]),
                      0.0)
                << "request " << i << " step " << s;
    }
}

TEST(KvPool, SharedPrefixRequestsBitIdenticalToEachRunSolo)
{
    // The sharing contract: N concurrent requests mapping one prefix
    // produce exactly the logits each gets when run ALONE on a fresh
    // engine (sharing enabled both times — the prefix is the same
    // pure function of its tokens either way, hit or miss).
    nn::TransformerClassifier model(lmConfig());
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t kRequests = 4, kNew = 5;
    const std::vector<int> system_prefix =
        promptFor(99, 6, model.config().vocab_size);

    auto makeRequest = [&](uint64_t id) {
        serve::Request req;
        req.prompt = promptWithPrefix(system_prefix, id, 2,
                                      model.config().vocab_size);
        req.max_new_tokens = kNew;
        req.record_logits = true;
        req.request_id = id;
        req.shared_prefix_tokens = system_prefix.size();
        return req;
    };

    // Concurrent: one server, every request shares the prefix.
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = kRequests;
    scfg.quant = quant;
    scfg.kv_pool = poolCfg(4, 64);
    serve::Server server(model, engine, scfg);
    std::vector<std::future<serve::RequestResult>> futures;
    for (uint64_t id = 0; id < kRequests; ++id)
        futures.push_back(server.submit(makeRequest(id)));
    server.runUntilIdle();

    serve::MetricsSnapshot snap = server.metrics();
    // One compute, N-1 copy-on-write mappings.
    EXPECT_EQ(snap.kv_pool.prefix_misses, 1u);
    EXPECT_EQ(snap.kv_pool.prefix_hits, kRequests - 1);
    EXPECT_GT(snap.kv_pool.peak_shared_blocks, 0u);

    for (uint64_t id = 0; id < kRequests; ++id) {
        serve::RequestResult result = futures[id].get();

        // Solo: fresh engine, fresh single-slot paged server, same
        // request (id included) — nothing else in flight.
        nn::ExecutionEngine solo_engine(noisyDptc(),
                                        core::EvalMode::Noisy);
        serve::ServerConfig solo_cfg;
        solo_cfg.scheduler.max_batch = 1;
        solo_cfg.quant = quant;
        solo_cfg.kv_pool = poolCfg(4, 64);
        serve::Server solo(model, solo_engine, solo_cfg);
        auto solo_future = solo.submit(makeRequest(id));
        solo.runUntilIdle();
        serve::RequestResult solo_result = solo_future.get();

        EXPECT_EQ(result.generated, solo_result.generated)
            << "request " << id;
        ASSERT_EQ(result.step_logits.size(),
                  solo_result.step_logits.size());
        for (size_t s = 0; s < result.step_logits.size(); ++s)
            EXPECT_EQ(result.step_logits[s].maxAbsDiff(
                          solo_result.step_logits[s]),
                      0.0)
                << "request " << id << " step " << s;
    }
}

TEST(KvPool, FixedBudgetSharedPrefixBeatsIndependentPromptsExactly)
{
    // One block budget and concurrency, served twice: independent
    // prompts, then prompts that share a system-prompt prefix. Sharing
    // must use fewer blocks (one copy-on-write prefix, N-1 hits);
    // resident K/V bytes must stay under the dense model's
    // max_tokens x concurrency reserve and equal exactly the blocks
    // the cached tokens fill; and every shared-prefix request must be
    // bit-identical to itself served solo.
    nn::TransformerClassifier model(lmConfig(/*max_tokens=*/64));
    const nn::TransformerConfig &mcfg = model.config();
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();
    const size_t vocab = mcfg.vocab_size;
    const size_t kBlockTokens = 8, kBlocks = 64, kRequests = 8;
    const size_t kPrompt = 8, kPrefix = 6, kNew = 12;
    const std::vector<int> system_prompt =
        promptFor(0xF00D, kPrefix, vocab);

    auto makeRequest = [&](uint64_t id, bool shared) {
        serve::Request req;
        if (shared) {
            req.prompt = promptWithPrefix(system_prompt, id,
                                          kPrompt - kPrefix, vocab);
            req.shared_prefix_tokens = kPrefix;
        } else {
            req.prompt = promptFor(id, kPrompt, vocab);
        }
        req.max_new_tokens = kNew;
        req.record_logits = shared; // only the shared run verifies
        req.request_id = id;
        return req;
    };
    auto serveAll = [&](size_t max_batch,
                        const std::vector<serve::Request> &reqs,
                        std::vector<serve::RequestResult> &results) {
        nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
        serve::ServerConfig scfg;
        scfg.scheduler.max_batch = max_batch;
        scfg.quant = quant;
        scfg.kv_pool = poolCfg(kBlockTokens, kBlocks);
        serve::Server server(model, engine, scfg);
        std::vector<std::future<serve::RequestResult>> futures;
        for (const serve::Request &req : reqs)
            futures.push_back(server.submit(req));
        server.runUntilIdle();
        for (auto &f : futures)
            results.push_back(f.get());
        return server.metrics().kv_pool;
    };

    std::vector<serve::Request> indep_reqs, shared_reqs;
    for (uint64_t id = 0; id < kRequests; ++id) {
        indep_reqs.push_back(makeRequest(id, false));
        shared_reqs.push_back(makeRequest(id, true));
    }
    std::vector<serve::RequestResult> indep_results, shared_results;
    const serve::KvPoolStats ip =
        serveAll(kRequests, indep_reqs, indep_results);
    const serve::KvPoolStats sp =
        serveAll(kRequests, shared_reqs, shared_results);

    EXPECT_LT(sp.peak_used_blocks, ip.peak_used_blocks);
    EXPECT_EQ(sp.prefix_misses, 1u);
    EXPECT_EQ(sp.prefix_hits, kRequests - 1);

    const size_t bytes_per_token_layer = 2 * mcfg.dim * sizeof(double);
    const size_t dense_reserve_bytes = kRequests * mcfg.max_tokens *
                                       mcfg.depth * bytes_per_token_layer;
    EXPECT_LT(ip.peak_resident_bytes, dense_reserve_bytes);
    EXPECT_LT(sp.peak_resident_bytes, dense_reserve_bytes);

    auto cdiv = [](size_t a, size_t b) { return (a + b - 1) / b; };
    const size_t shared_prefix_blocks =
        mcfg.depth * cdiv(kPrefix, kBlockTokens);
    EXPECT_EQ(ip.peak_resident_bytes,
              kRequests * mcfg.depth *
                  cdiv(kPrompt + kNew - 1, kBlockTokens) *
                  ip.block_bytes);
    EXPECT_EQ(sp.peak_resident_bytes,
              (shared_prefix_blocks +
               kRequests * mcfg.depth *
                   cdiv(kPrompt - kPrefix + kNew - 1, kBlockTokens)) *
                  sp.block_bytes);

    ASSERT_EQ(shared_results.size(), kRequests);
    for (uint64_t id = 0; id < kRequests; ++id) {
        std::vector<serve::RequestResult> solo;
        serveAll(1, {shared_reqs[id]}, solo);
        ASSERT_EQ(solo.size(), 1u);
        const serve::RequestResult &batched = shared_results[id];
        EXPECT_EQ(batched.generated, solo[0].generated)
            << "request " << id;
        ASSERT_EQ(batched.step_logits.size(),
                  solo[0].step_logits.size());
        for (size_t s = 0; s < batched.step_logits.size(); ++s)
            EXPECT_EQ(batched.step_logits[s].maxAbsDiff(
                          solo[0].step_logits[s]),
                      0.0)
                << "request " << id << " step " << s;
    }
}

TEST(KvPool, MeanPoolingSessionsResumeFromSharedPrefixState)
{
    // Mean pooling needs the prefix's final-LN row sum carried into
    // the session; two sessions mapping the same prefix (one via a
    // hit, one via a fresh recompute) must agree bit for bit.
    nn::TransformerConfig cfg = lmConfig();
    cfg.pooling = nn::Pooling::Mean;
    nn::TransformerClassifier model(cfg);
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    const nn::QuantConfig quant = nn::QuantConfig::w8a8();

    const std::vector<int> prefix = promptFor(5, 5, cfg.vocab_size);
    const std::vector<int> prompt =
        promptWithPrefix(prefix, 0, 2, cfg.vocab_size);

    std::shared_ptr<const nn::KvPrefix> built =
        nn::InferenceSession::buildKvPrefix(model, engine, quant,
                                            prefix);
    std::shared_ptr<const nn::KvPrefix> rebuilt =
        nn::InferenceSession::buildKvPrefix(model, engine, quant,
                                            prefix);
    EXPECT_EQ(built->pooled_sum.maxAbsDiff(rebuilt->pooled_sum), 0.0);

    nn::SessionKvPlan plan_a{built, prompt.size() + 3};
    nn::SessionKvPlan plan_b{rebuilt, prompt.size() + 3};
    nn::InferenceSession sa(model, engine, quant, /*request_id=*/17);
    nn::InferenceSession sb(model, engine, quant, /*request_id=*/17);
    Matrix la = sa.prefill(prompt, plan_a);
    Matrix lb = sb.prefill(prompt, plan_b);
    EXPECT_EQ(la.maxAbsDiff(lb), 0.0);
    for (int step = 0; step < 3; ++step) {
        int ta = static_cast<int>(nn::argmaxRow(la, 0));
        int tb = static_cast<int>(nn::argmaxRow(lb, 0));
        ASSERT_EQ(ta, tb);
        la = sa.decodeStep(ta);
        lb = sb.decodeStep(tb);
        EXPECT_EQ(la.maxAbsDiff(lb), 0.0) << "step " << step;
    }
}

// ---- churn stress (runs under ASan+UBSan via the sanitize CI job) -----

TEST(KvPool, StressChurnAdmissionsEvictionsCompletions)
{
    nn::TransformerClassifier model(lmConfig());
    nn::ExecutionEngine engine(noisyDptc(), core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 3;
    scfg.quant = nn::QuantConfig::w8a8();
    scfg.kv_pool = poolCfg(4, 10); // tight: forces queueing + eviction
    serve::Server server(model, engine, scfg);

    const size_t vocab = model.config().vocab_size;
    const std::vector<int> prefix_a = promptFor(40, 4, vocab);
    const std::vector<int> prefix_b = promptFor(41, 4, vocab);

    const size_t kRequests = 18;
    std::vector<std::future<serve::RequestResult>> futures;
    std::vector<size_t> expected_new;
    for (uint64_t id = 0; id < kRequests; ++id) {
        serve::Request req;
        switch (id % 3) {
        case 0:
            req.prompt = promptWithPrefix(prefix_a, id, 2, vocab);
            req.shared_prefix_tokens = prefix_a.size();
            break;
        case 1:
            req.prompt = promptWithPrefix(prefix_b, id, 1, vocab);
            req.shared_prefix_tokens = prefix_b.size();
            break;
        default:
            req.prompt = promptFor(id, 3, vocab); // no sharing
            break;
        }
        req.max_new_tokens = 2 + id % 4;
        req.request_id = id;
        expected_new.push_back(req.max_new_tokens);
        futures.push_back(server.submit(std::move(req)));
    }
    server.runUntilIdle();
    for (uint64_t id = 0; id < kRequests; ++id)
        EXPECT_EQ(futures[id].get().generated.size(),
                  expected_new[id])
            << "request " << id;

    serve::MetricsSnapshot snap = server.metrics();
    EXPECT_EQ(snap.completed, kRequests);
    // Budget invariants held through the churn and drained clean:
    // only idle warm prefixes may remain committed.
    EXPECT_LE(snap.kv_pool.peak_used_blocks,
              snap.kv_pool.total_blocks);
    EXPECT_EQ(snap.kv_pool.used_blocks, snap.kv_pool.resident_blocks);
    EXPECT_EQ(snap.kv_pool.free_blocks + snap.kv_pool.used_blocks,
              snap.kv_pool.total_blocks);
    EXPECT_EQ(snap.kv_pool.prefix_hits + snap.kv_pool.prefix_misses,
              12u); // the 2-of-3 requests that named a prefix
    EXPECT_GE(snap.kv_pool.prefix_hits, 1u);
    EXPECT_EQ(snap.kv_pool.shared_blocks, 0u); // nobody mapped now
}

} // namespace
