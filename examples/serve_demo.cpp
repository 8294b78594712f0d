/**
 * @file
 * End-to-end continuous-batching demo: a serve::Server on the noisy
 * photonic engine, hammered by concurrent client threads.
 *
 * Three clients submit staggered generation requests (some with tight
 * deadlines) against one shared ExecutionEngine while the serving
 * thread continuously admits, prefills, and lockstep-decodes them
 * through nn::BatchedDecoder. Every request opens with the same
 * system prompt, served out of the paged KV block pool: the prefix
 * encodes once, later requests map it copy-on-write, and the demo
 * prints the pool's sharing stats (hits, shared blocks, resident
 * bytes) alongside the usual metrics — queue depth, TTFT, per-token
 * latency percentiles, throughput, and fused dispatch counters.
 *
 * With --trace [path] (default serve_trace.json) the whole run is
 * recorded through obs::TraceRecorder and exported as Chrome/Perfetto
 * trace_event JSON — open it in chrome://tracing or ui.perfetto.dev
 * to see every request's lifecycle lane and the scheduler's per-tick
 * phase spans — and the derived per-phase time breakdown is printed.
 *
 *   cmake --build build && ./build/serve_demo [--trace [path]]
 */

#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "nn/execution_engine.hh"
#include "obs/trace.hh"
#include "obs/trace_export.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace lt;

int
main(int argc, char **argv)
{
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--trace") {
            trace_path = "serve_trace.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                trace_path = argv[++i];
        } else {
            std::cerr << "usage: serve_demo [--trace [path]]\n";
            return 2;
        }
    }
    std::unique_ptr<obs::TraceRecorder> recorder;
    if (!trace_path.empty()) {
        recorder = std::make_unique<obs::TraceRecorder>(1 << 16);
        obs::installRecorder(recorder.get());
    }

    printBanner(std::cout,
                "Continuous-batching serve demo (3 clients, "
                "noisy engine)");

    // A small causal LM stand-in and the shared multi-core engine.
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
    nn::TransformerClassifier model(cfg);

    core::DptcConfig dptc;
    dptc.input_bits = 8;
    nn::ExecutionEngine engine(dptc, core::EvalMode::Noisy);

    serve::ServerConfig scfg;
    scfg.scheduler.max_batch = 6;
    scfg.quant = nn::QuantConfig::w8a8();
    // Paged KV memory: 8-token blocks, 96-block budget. Requests
    // sharing the system prompt below map its blocks copy-on-write
    // instead of re-encoding them.
    scfg.kv_pool.block_tokens = 8;
    scfg.kv_pool.num_blocks = 96;
    serve::Server server(model, engine, scfg);
    server.start();

    // One system prompt shared by every client, like a deployed
    // assistant persona: the pool encodes its KV once and hands the
    // same blocks to all later requests.
    const std::vector<int> kSystemPrompt = {7, 21, 3, 42, 11, 58};

    // Load generator: each client thread submits a burst of requests
    // with its own prompt mix and waits on the futures.
    const size_t kClients = 3, kPerClient = 4;
    struct Outcome
    {
        uint64_t id;
        size_t tokens;
        bool expired;
        double ttft_ms;
        double total_ms;
    };
    std::vector<std::future<std::vector<Outcome>>> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.push_back(std::async(std::launch::async, [&, c] {
            Rng rng(0xC11E + c);
            std::vector<Outcome> outcomes;
            for (size_t i = 0; i < kPerClient; ++i) {
                serve::Request req;
                req.prompt = kSystemPrompt;
                req.shared_prefix_tokens = kSystemPrompt.size();
                size_t suffix_len =
                    4 + static_cast<size_t>(rng.uniformInt(0, 6));
                for (size_t t = 0; t < suffix_len; ++t)
                    req.prompt.push_back(static_cast<int>(
                        rng.uniformInt(0, 63)));
                req.max_new_tokens =
                    6 + static_cast<size_t>(rng.uniformInt(0, 10));
                if (i == kPerClient - 1)
                    // The last request of each client is latency-
                    // critical: expire it rather than serve it late.
                    req.deadline = std::chrono::milliseconds(250);
                auto future = server.submit(std::move(req));
                serve::RequestResult r = future.get();
                outcomes.push_back({r.request_id,
                                    r.generated.size(), r.expired,
                                    r.ttft_ms, r.total_ms});
                // Staggered arrivals: keep the batch composition
                // changing mid-flight.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(3 * (c + 1)));
            }
            return outcomes;
        }));
    }

    Table table({"client", "request", "tokens", "expired",
                 "TTFT [ms]", "total [ms]"});
    for (size_t c = 0; c < kClients; ++c) {
        std::vector<Outcome> outcomes = clients[c].get();
        for (const Outcome &o : outcomes)
            table.addRow({std::to_string(c), std::to_string(o.id),
                          std::to_string(o.tokens),
                          o.expired ? "yes" : "no",
                          units::fmtFixed(o.ttft_ms, 2),
                          units::fmtFixed(o.total_ms, 2)});
    }
    server.drain();
    table.print(std::cout);

    serve::MetricsSnapshot m = server.metrics();
    Table stats({"submitted", "completed", "expired", "tokens",
                 "tokens/s", "TTFT p50/p99 [ms]",
                 "token p50/p99 [ms]", "decode ticks",
                 "engine batches"});
    stats.addRow({std::to_string(m.submitted),
                  std::to_string(m.completed),
                  std::to_string(m.expired),
                  std::to_string(m.tokens_generated),
                  units::fmtFixed(m.tokens_per_s, 1),
                  units::fmtFixed(m.ttft_p50_ms, 1) + " / " +
                      units::fmtFixed(m.ttft_p99_ms, 1),
                  units::fmtFixed(m.token_p50_ms, 1) + " / " +
                      units::fmtFixed(m.token_p99_ms, 1),
                  std::to_string(m.decode_ticks),
                  std::to_string(m.engine_batch_calls)});
    stats.print(std::cout);

    const serve::KvPoolStats &p = m.kv_pool;
    Table pool({"prefix hits", "misses", "peak shared blocks",
                "peak used blocks", "evictions", "recomputes",
                "peak resident KV"});
    pool.addRow({std::to_string(p.prefix_hits),
                 std::to_string(p.prefix_misses),
                 std::to_string(p.peak_shared_blocks),
                 std::to_string(p.peak_used_blocks) + " / " +
                     std::to_string(p.total_blocks),
                 std::to_string(p.evictions),
                 std::to_string(p.recomputes),
                 units::fmtFixed(
                     static_cast<double>(p.peak_resident_bytes) /
                         1024.0,
                     1) +
                     " KiB"});
    std::cout << "\nPaged KV pool (" << p.total_blocks << " blocks x "
              << scfg.kv_pool.block_tokens << " tokens):\n";
    pool.print(std::cout);

    std::cout
        << "\nAll requests decoded in lockstep on one engine: each "
           "fused step issues\nO(layers) gemmBatch dispatches however "
           "many requests are active, and every\nrequest's logits are "
           "bit-identical to running it alone on its noise lane\n"
           "(tests/test_serve.cc asserts both). The shared\n"
           "system prompt encoded once: every "
           "request after the first mapped its KV\nblocks "
           "copy-on-write instead of re-running prefill over the "
           "prefix.\n";

    // After drain every request reservation is released; only the
    // warm-cached system-prompt prefix (idle, evictable) stays
    // resident — so committed == materialized.
    bool ok = m.completed == m.submitted && m.tokens_generated > 0 &&
              p.prefix_hits > 0 && p.prefix_misses >= 1 &&
              p.used_blocks == p.resident_blocks;

    if (recorder) {
        obs::installRecorder(nullptr);
        const bool wrote =
            obs::writeChromeTraceFile(trace_path, *recorder);
        if (!wrote) {
            std::cerr << "FAILED to write trace to " << trace_path
                      << "\n";
            ok = false;
        } else {
            std::cout << "\nwrote " << trace_path << " ("
                      << recorder->threadLanes() << " thread lane(s), "
                      << m.submitted << " request lanes, "
                      << recorder->droppedEvents()
                      << " dropped events) — load it in "
                         "chrome://tracing or ui.perfetto.dev\n";
            obs::writePhaseBreakdown(
                std::cout, obs::phaseBreakdown(recorder->snapshot()));
        }
    }
    return ok ? 0 : 1;
}
