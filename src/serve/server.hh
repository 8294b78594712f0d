/**
 * @file
 * serve::Server — the continuous-batching front door.
 *
 *   nn::TransformerClassifier model(cfg);          // causal LM
 *   nn::ExecutionEngine engine(dptc_cfg, mode);    // shared backend
 *   serve::Server server(model, engine);
 *   server.start();                                // serving thread
 *   auto fut = server.submit({prompt, 32});
 *   RequestResult r = fut.get();
 *   server.drain();
 *
 * Requests flow  submit() -> RequestQueue -> BatchScheduler::tick()
 * (admit + prefill, then ONE fused nn::BatchedDecoder step for all
 * active sessions) -> promise fulfilment. The engine therefore sees
 * O(layers) gemmBatch dispatches per decode step however many
 * requests are in flight — the whole point of the serve layer.
 *
 * Determinism contract: with a fixed QuantConfig and a fixed
 * request_id, the tokens and logits a request gets from the server
 * are bit-identical to running it alone on a fresh InferenceSession
 * against a same-config backend — at any concurrency (asserted for
 * 1..16 in tests/test_serve.cc on the noisy engine).
 *
 * Validation: submit() rejects malformed requests up front with
 * std::invalid_argument (empty prompt, zero max_new_tokens, a prompt
 * that leaves no positional-table room for generation, out-of-vocab
 * ids) and throws std::runtime_error once drained/stopped.
 */

#ifndef LT_SERVE_SERVER_HH
#define LT_SERVE_SERVER_HH

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "nn/transformer.hh"
#include "serve/batch_scheduler.hh"
#include "serve/metrics.hh"
#include "serve/request_queue.hh"

namespace lt {
namespace serve {

/** Server-level configuration. */
struct ServerConfig
{
    SchedulerConfig scheduler{};

    /** Operand quantization applied to every request's session. */
    nn::QuantConfig quant = nn::QuantConfig::disabled();

    /**
     * Paged KV-cache memory (serve/kv_pool). Disabled by default
     * (num_blocks = 0): every session reserves its own max_tokens of
     * contiguous K/V, the historical dense-reserve model, and the
     * paged code paths are bypassed entirely. Enabled, admission
     * gates on the fixed block budget, resident KV bytes track the
     * tokens actually cached, and requests may share prompt prefixes
     * copy-on-write (Request::shared_prefix_tokens).
     */
    KvPoolConfig kv_pool{};

    /**
     * Backpressure: submit() throws QueueSaturatedError (see
     * serve/errors.hh) while the queue already holds this many
     * requests, and the rejection is counted in Metrics. 0 (default)
     * = unbounded, the historical behaviour.
     */
    size_t max_queue_depth = 0;
};

/** Owns the queue, the scheduler, and (optionally) a serving thread. */
class Server
{
  public:
    /**
     * @param model causal sequence model with num_classes ==
     *        vocab_size (greedy decode feeds argmax logits back as
     *        token ids); InferenceSession's model requirements apply.
     *        Throws std::invalid_argument otherwise.
     * @param backend shared GEMM engine; all sessions multiplex onto
     *        it via their own noise lanes.
     */
    Server(const nn::TransformerClassifier &model,
           nn::GemmBackend &backend, ServerConfig cfg = {});

    /** Drains (bounded: no new work is accepted) and joins. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Validate and enqueue a request; the future resolves when it
     * completes (or expires). Thread-safe.
     */
    std::future<RequestResult> submit(Request request);

    /** Spawn the serving thread (idempotent). */
    void start();

    /**
     * Stop accepting, serve everything still queued or active, then
     * join the serving thread. After drain() every submit() throws.
     * Works in manual mode too (runs the remaining ticks inline).
     */
    void drain();

    /**
     * Manual pump for tests and single-threaded benches: tick until
     * queue and batch are empty. Returns the number of ticks run.
     * Must not race start() — use one mode per server.
     */
    size_t runUntilIdle();

    /** Snapshot serving metrics + engine work counters. */
    MetricsSnapshot metrics() const;

    size_t queueDepth() const { return queue_.depth(); }
    size_t activeRequests() const { return scheduler_.activeRequests(); }
    const nn::TransformerClassifier &model() const { return model_; }

    /** The paged KV pool, or nullptr in dense-reserve mode. */
    const KvBlockPool *kvPool() const { return pool_.get(); }

  private:
    /** submit() after trace bookkeeping: validation + enqueue. */
    std::future<RequestResult> submitValidated(Request request);
    void serveLoop();

    const nn::TransformerClassifier &model_;
    nn::GemmBackend &backend_;
    ServerConfig cfg_;
    Metrics metrics_;
    RequestQueue queue_;
    std::unique_ptr<KvBlockPool> pool_; ///< before scheduler_: it borrows
    BatchScheduler scheduler_;

    std::thread worker_;
    std::atomic<bool> running_{false};
    std::atomic<bool> drain_requested_{false};
    std::atomic<uint64_t> next_id_{0};
};

} // namespace serve
} // namespace lt

#endif // LT_SERVE_SERVER_HH
