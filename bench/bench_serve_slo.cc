/**
 * @file
 * Serve latency-SLO smoke: one concurrency-16 burst on the noisy
 * photonic engine with 2-token chunked prefill and stacked-row
 * fusion on, timed end to end.
 *
 * Exits nonzero when the token p99 exceeds half the baseline of
 * whole-prompt prefill with per-row dispatch (168.872 ms ->
 * 84.436 ms), or when any request fails, expires or comes back
 * short. Everything deterministic about the same burst (bit-identity
 * to solo runs, the per-step dispatch counts, the engine work
 * chunking bounds between two tokens) is pinned in ctest:
 * tests/test_serve.cc and tests/test_chunked_prefill.cc. This binary
 * keeps only the wall-clock gate, which no unit test can hold.
 *
 * Usage: bench_serve_slo
 */

#include <exception>
#include <future>
#include <iostream>
#include <vector>

#include "nn/execution_engine.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace {

using namespace lt;

constexpr size_t kConcurrency = 16;
constexpr size_t kPrefillChunkTokens = 2;
constexpr size_t kPromptTokens = 8;
constexpr size_t kNewTokens = 12;

/**
 * The latency budget: the conc-16 token p99 with whole-prompt prefill
 * and per-row dispatch was 168.872 ms; chunked prefill plus the
 * stacked-row dispatch must at least halve it.
 */
constexpr double kBaselineTokenP99Ms = 168.872;
constexpr double kTokenP99BudgetMs = kBaselineTokenP99Ms / 2.0;

nn::TransformerConfig
modelConfig()
{
    nn::TransformerConfig cfg;
    cfg.dim = 32;
    cfg.depth = 2;
    cfg.heads = 2;
    cfg.mlp_hidden = 64;
    cfg.vocab_size = 64;
    cfg.num_classes = 64;
    cfg.max_tokens = 64;
    cfg.pooling = nn::Pooling::LastToken;
    cfg.causal = true;
    return cfg;
}

std::vector<int>
promptFor(uint64_t id, size_t vocab)
{
    Rng rng(0x9e4e + id);
    std::vector<int> tokens(kPromptTokens);
    for (int &t : tokens)
        t = static_cast<int>(
            rng.uniformInt(0, static_cast<int64_t>(vocab) - 1));
    return tokens;
}

} // namespace

int
main()
{
    nn::TransformerClassifier model(modelConfig());
    core::DptcConfig dcfg;
    dcfg.input_bits = 8;
    nn::ExecutionEngine engine(dcfg, core::EvalMode::Noisy);
    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = kConcurrency;
    scfg.scheduler.prefill_chunk_tokens = kPrefillChunkTokens;
    scfg.quant = nn::QuantConfig::w8a8();
    serve::Server server(model, engine, scfg);

    std::vector<std::future<serve::RequestResult>> futures;
    for (uint64_t id = 0; id < kConcurrency; ++id) {
        serve::Request req;
        req.prompt = promptFor(id, model.config().vocab_size);
        req.max_new_tokens = kNewTokens;
        req.request_id = id;
        futures.push_back(server.submit(std::move(req)));
    }
    server.runUntilIdle();

    size_t bad = 0; // failed, expired or short requests
    for (auto &f : futures) {
        try {
            serve::RequestResult r = f.get();
            bad += r.expired || r.generated.size() != kNewTokens;
        } catch (const std::exception &e) {
            std::cerr << "request failed: " << e.what() << "\n";
            ++bad;
        }
    }
    const serve::MetricsSnapshot snap = server.metrics();
    const bool p99_ok = snap.token_p99_ms <= kTokenP99BudgetMs;

    std::cout << "slo smoke: concurrency " << kConcurrency
              << ", prefill chunk " << kPrefillChunkTokens
              << " tokens, token p99 "
              << units::fmtFixed(snap.token_p99_ms, 3) << " ms (budget "
              << units::fmtFixed(kTokenP99BudgetMs, 3) << " ms = 0.5 x "
              << kBaselineTokenP99Ms << " baseline), TTFT p50 "
              << units::fmtFixed(snap.ttft_p50_ms, 3) << " ms, "
              << snap.tokens_generated << " tokens\n"
              << "gates: token_p99<=budget=" << (p99_ok ? "ok" : "FAIL")
              << " all_requests_complete=" << (bad == 0 ? "ok" : "FAIL")
              << "\n";
    return p99_ok && bad == 0 ? 0 : 1;
}
