#include "server.hh"

#include <stdexcept>
#include <string>

#include "obs/trace.hh"
#include "serve/errors.hh"

namespace lt {
namespace serve {

namespace {

/** Idle poll period of the serving thread. */
constexpr std::chrono::milliseconds kIdlePoll{1};

} // namespace

Server::Server(const nn::TransformerClassifier &model,
               nn::GemmBackend &backend, ServerConfig cfg)
    : model_(model), backend_(backend), cfg_(cfg),
      pool_(cfg.kv_pool.enabled()
                ? std::make_unique<KvBlockPool>(model, backend,
                                                cfg.quant, cfg.kv_pool)
                : nullptr),
      scheduler_(model, backend, cfg.quant, cfg.scheduler, &metrics_,
                 pool_.get())
{
    const nn::TransformerConfig &mcfg = model.config();
    if (mcfg.vocab_size == 0 || !mcfg.causal)
        throw std::invalid_argument(
            "serve::Server requires a causal sequence model "
            "(vocab_size > 0, TransformerConfig::causal)");
    if (mcfg.num_classes != mcfg.vocab_size)
        throw std::invalid_argument(
            "serve::Server requires an LM head (num_classes == "
            "vocab_size): greedy decode feeds argmax logits back as "
            "token ids");
    if (cfg_.scheduler.max_batch == 0)
        throw std::invalid_argument(
            "serve::Server: max_batch must be positive");
}

Server::~Server()
{
    try {
        drain();
    } catch (...) {
        // Destructor must not throw; a drain failure here means
        // promises were already broken and futures will surface it.
    }
}

std::future<RequestResult>
Server::submit(Request request)
{
    // Caller-assigned id if any; validation rejections happen before
    // the server assigns one.
    const uint64_t trace_id =
        request.request_id ? *request.request_id : obs::kNoRequest;
    try {
        return submitValidated(std::move(request));
    } catch (const std::invalid_argument &) {
        obs::traceInstant("req/rejected", trace_id);
        throw;
    } catch (const SubmitRejectedError &) {
        // Typed rejections (backpressure, dead-on-arrival deadline);
        // counted by submitValidated, traced uniformly here.
        obs::traceInstant("req/rejected", trace_id);
        throw;
    }
}

std::future<RequestResult>
Server::submitValidated(Request request)
{
    const nn::TransformerConfig &mcfg = model_.config();
    if (request.prompt.empty())
        throw std::invalid_argument(
            "serve::Server::submit: empty prompt");
    if (request.max_new_tokens == 0)
        throw std::invalid_argument(
            "serve::Server::submit: max_new_tokens must be positive "
            "(a request that generates nothing is not a request)");
    // The request consumes prompt + (max_new_tokens - 1) positions:
    // the final token is returned without being re-ingested. A prompt
    // already at max_tokens therefore leaves no room to decode. The
    // check never forms that sum, which wraps for a huge budget.
    if (request.prompt.size() > mcfg.max_tokens ||
        request.max_new_tokens - 1 >
            mcfg.max_tokens - request.prompt.size())
        throw std::invalid_argument(
            "serve::Server::submit: prompt of " +
            std::to_string(request.prompt.size()) + " tokens + " +
            std::to_string(request.max_new_tokens) +
            " generated tokens exceeds the positional table "
            "(max_tokens = " +
            std::to_string(mcfg.max_tokens) + ")");
    for (int t : request.prompt)
        if (t < 0 || static_cast<size_t>(t) >= mcfg.vocab_size)
            throw std::invalid_argument(
                "serve::Server::submit: prompt token " +
                std::to_string(t) + " outside vocabulary of " +
                std::to_string(mcfg.vocab_size));
    if (request.shared_prefix_tokens > 0) {
        if (!pool_)
            throw std::invalid_argument(
                "serve::Server::submit: shared_prefix_tokens requires "
                "paged KV memory (enable ServerConfig::kv_pool)");
        if (request.shared_prefix_tokens >= request.prompt.size())
            throw std::invalid_argument(
                "serve::Server::submit: shared prefix of " +
                std::to_string(request.shared_prefix_tokens) +
                " tokens must leave at least one suffix token of the " +
                std::to_string(request.prompt.size()) +
                "-token prompt");
    }
    // A request whose worst-case footprint exceeds the WHOLE block
    // budget would wedge the FIFO queue forever — reject it now, at
    // submit, rather than let it starve everything behind it.
    if (pool_ && !pool_->fitsEver(request.prompt.size(),
                                  request.shared_prefix_tokens,
                                  request.max_new_tokens))
        throw std::invalid_argument(
            "serve::Server::submit: request needs " +
            std::to_string(pool_->blocksForTokens(
                request.prompt.size() - request.shared_prefix_tokens +
                request.max_new_tokens) +
                pool_->blocksForTokens(request.shared_prefix_tokens)) +
            " KV blocks but the pool only has " +
            std::to_string(pool_->totalBlocks()) +
            " — it can never be admitted");

    // Expire-on-submit: counted here, enforced in RequestQueue::submit
    // as well (direct queue users get the same contract).
    if (request.deadline &&
        *request.deadline <= std::chrono::milliseconds::zero()) {
        metrics_.onRejectedExpired();
        throw DeadlineExpiredError(
            "serve::Server::submit: deadline already expired at "
            "submission");
    }
    // Backpressure: shed load at the front door once the queue is
    // saturated, with a retryable typed error. The depth check is
    // racy across submitters by design — the bound is a watermark,
    // not a hard capacity.
    if (cfg_.max_queue_depth > 0 &&
        queue_.depth() >= cfg_.max_queue_depth) {
        metrics_.onRejectedQueueFull();
        throw QueueSaturatedError(
            "serve::Server::submit: queue saturated (" +
            std::to_string(cfg_.max_queue_depth) +
            " requests waiting) — retry after backoff");
    }

    uint64_t id = request.request_id
                      ? *request.request_id
                      : next_id_.fetch_add(1);
    obs::traceInstant(
        "req/submit", id, "prompt_tokens",
        static_cast<int64_t>(request.prompt.size()), "max_new",
        static_cast<int64_t>(request.max_new_tokens));
    std::future<RequestResult> future =
        queue_.submit(std::move(request), id);
    obs::traceInstant("req/queued", id, "depth",
                      static_cast<int64_t>(queue_.depth()));
    metrics_.onSubmit(); // only requests the queue actually accepted
    return future;
}

void
Server::start()
{
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true))
        return;
    worker_ = std::thread([this] { serveLoop(); });
}

void
Server::serveLoop()
{
    while (true) {
        size_t active = 0;
        try {
            active = scheduler_.tick(queue_);
        } catch (...) {
            // The scheduler contains per-request and per-step
            // failures itself; anything escaping tick() is a bug —
            // but the serving thread must survive it (requests whose
            // promises broke surface the failure on their futures).
            // Back off so a persistent fault cannot spin the loop.
            obs::traceInstant("serve/tick_exception",
                              obs::kNoRequest);
            std::this_thread::sleep_for(kIdlePoll);
            active = scheduler_.activeRequests();
        }
        if (active == 0 && queue_.empty()) {
            if (drain_requested_.load())
                break;
            queue_.waitForWork(kIdlePoll);
        }
    }
}

void
Server::drain()
{
    drain_requested_.store(true);
    queue_.close(); // reject new submits; wake the serving thread
    if (running_.load()) {
        worker_.join();
        running_.store(false);
    } else {
        runUntilIdle();
    }
}

size_t
Server::runUntilIdle()
{
    if (running_.load())
        throw std::logic_error(
            "Server::runUntilIdle while the serving thread runs — "
            "use one pump per server");
    size_t ticks = 0;
    while (scheduler_.tick(queue_) > 0 || !queue_.empty())
        ++ticks;
    return ticks;
}

MetricsSnapshot
Server::metrics() const
{
    MetricsSnapshot snap = metrics_.snapshot();
    const nn::GemmStats &stats = backend_.stats();
    snap.engine_macs = stats.macs.load(std::memory_order_relaxed);
    snap.engine_gemm_calls =
        stats.calls.load(std::memory_order_relaxed);
    snap.engine_batch_calls =
        stats.batch_calls.load(std::memory_order_relaxed);
    snap.engine_stacked_calls =
        stats.stacked_calls.load(std::memory_order_relaxed);
    snap.engine_weight_encode_hits =
        stats.weight_encode_hits.load(std::memory_order_relaxed);
    snap.engine_weight_encode_misses =
        stats.weight_encode_misses.load(std::memory_order_relaxed);
    snap.engine_kv_encode_hits =
        stats.kv_encode_hits.load(std::memory_order_relaxed);
    snap.engine_kv_encode_misses =
        stats.kv_encode_misses.load(std::memory_order_relaxed);
    snap.engine_gaussian_draws =
        stats.gaussian_draws.load(std::memory_order_relaxed);
    snap.engine_faults_detected =
        stats.faults_detected.load(std::memory_order_relaxed);
    snap.engine_fault_retries =
        stats.fault_retries.load(std::memory_order_relaxed);
    snap.engine_fault_quarantines =
        stats.fault_quarantines.load(std::memory_order_relaxed);
    if (pool_)
        snap.kv_pool = pool_->stats();
    if (obs::TraceRecorder *rec = obs::recorder())
        snap.trace_dropped_events = rec->droppedEvents();
    return snap;
}

} // namespace serve
} // namespace lt
