#include "batch_scheduler.hh"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "nn/gemm_backend.hh"
#include "nn/tensor_ops.hh"
#include "obs/trace.hh"

namespace lt {
namespace serve {

namespace {

double
msSince(std::chrono::steady_clock::time_point t0,
        std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

} // namespace

BatchScheduler::BatchScheduler(const nn::TransformerClassifier &model,
                               nn::GemmBackend &backend,
                               const nn::QuantConfig &quant,
                               const SchedulerConfig &cfg,
                               Metrics *metrics, KvBlockPool *pool)
    : model_(model), backend_(backend), quant_(quant), cfg_(cfg),
      metrics_(metrics), pool_(pool)
{
}

size_t
BatchScheduler::tick(RequestQueue &queue)
{
    // (a) Retire requests whose deadline passed mid-generation: they
    // complete now with their partial output.
    auto now = std::chrono::steady_clock::now();
    for (Active &a : active_)
        if (a.pending.deadline && now > *a.pending.deadline)
            finish(a, /*expired=*/true);
    retireFinished();

    // (b) Admission + prefill of waiting requests into free slots.
    // The admission *phase* excludes the time spent inside prefill
    // and the KV pool so the four phase figures stay disjoint.
    double prefill_ms = 0.0;
    double pool_ms = 0.0;
    auto a0 = std::chrono::steady_clock::now();
    {
        obs::TraceScope span("tick/admission", obs::kNoRequest,
                             "waiting",
                             static_cast<int64_t>(queue.depth()));
        admit(queue, prefill_ms, pool_ms);
    }
    double admission_ms =
        std::max(0.0, msSince(a0, std::chrono::steady_clock::now()) -
                          prefill_ms - pool_ms);

    // (b') Chunked mode: one prefill chunk per warming request, so a
    // long prompt never stalls the in-flight decoders for more than
    // one chunk per tick.
    if (cfg_.prefill_chunk_tokens > 0) {
        prefillChunkTick(prefill_ms, pool_ms);
        retireFinished();
    }

    // (c) One fused decode step for every active request.
    double decode_ms = decodeTick();
    retireFinished();

    if (metrics_)
        metrics_->onTickPhases(admission_ms, prefill_ms, decode_ms,
                               pool_ms);

    active_count_.store(active_.size(), std::memory_order_relaxed);
    if (metrics_)
        metrics_->setGauges(queue.depth(), active_.size());
    obs::traceCounter("queue_depth",
                      static_cast<int64_t>(queue.depth()));
    obs::traceCounter("active_requests",
                      static_cast<int64_t>(active_.size()));
    return active_.size();
}

void
BatchScheduler::admit(RequestQueue &queue, double &prefill_ms,
                      double &pool_ms)
{
    while (active_.size() < cfg_.max_batch) {
        auto now = std::chrono::steady_clock::now();
        // Pop the queue's most urgent request (priority / EDF /
        // bypass-aging order) only when it is servable this tick: an
        // expired request always pops (it retires without touching
        // the engine or the pool), otherwise the pool budget — free
        // blocks plus evictable idle prefixes — must cover its
        // worst-case reservation. An unservable candidate waits in
        // place and nothing overtakes it.
        std::optional<PendingRequest> taken =
            queue.takeIf([&](const PendingRequest &p) {
                if (p.deadline && now > *p.deadline)
                    return true;
                if (!pool_)
                    return true;
                return pool_->canAdmit(p.request.prompt,
                                       p.request.shared_prefix_tokens,
                                       p.request.max_new_tokens);
            });
        if (!taken)
            break;
        Active a;
        a.pending = std::move(*taken);

        // A request that spent its whole deadline in the queue expires
        // without touching the engine (load-shedding under backlog).
        if (a.pending.deadline && now > *a.pending.deadline) {
            finish(a, /*expired=*/true);
            continue;
        }

        obs::traceInstant(
            "req/admitted", a.pending.id, "prompt_tokens",
            static_cast<int64_t>(a.pending.request.prompt.size()),
            "max_new",
            static_cast<int64_t>(a.pending.request.max_new_tokens));

        // Per-request containment: anything thrown between admission
        // and the first token fails ONLY this request (its future
        // carries the exception, its pool blocks go back) — the
        // scheduler and every other request keep running.
        try {
            if (pool_) {
                // Reserve the worst-case tail (and acquire or compute
                // the shared prefix) up front, then prefill under a
                // plan that right-sizes the session's K/V backing to
                // the request's own context budget — resident bytes
                // track real tokens.
                auto p0 = std::chrono::steady_clock::now();
                a.admission = pool_->admit(
                    a.pending.request.prompt,
                    a.pending.request.shared_prefix_tokens,
                    a.pending.request.max_new_tokens);
                pool_ms +=
                    msSince(p0, std::chrono::steady_clock::now());
                a.plan.prefix = a.admission.prefix;
                a.plan.reserve_tokens =
                    a.pending.request.prompt.size() +
                    a.pending.request.max_new_tokens - 1;
            }
            a.session = std::make_unique<nn::InferenceSession>(
                model_, backend_, quant_, a.pending.id);
        } catch (...) {
            failRequest(a, std::current_exception());
            continue;
        }
        // Whole-prompt mode ingests now; chunked mode defers ALL
        // prompt ingestion to prefillChunkTick, and the request just
        // holds a batch slot.
        if (cfg_.prefill_chunk_tokens == 0)
            ingest(a, a.pending.request.prompt.size(), prefill_ms,
                   pool_ms);
        if (a.session) // neither failed nor finished at its first token
            active_.push_back(std::move(a));
    }
}

Matrix
BatchScheduler::prefillTo(Active &a, size_t end)
{
    // Whole-sequence vs chunked ingestion are different quantization
    // schedules, so every (re-)ingest of a request takes the same one.
    if (cfg_.prefill_chunk_tokens == 0)
        return a.session->prefill(a.pending.request.prompt, a.plan);
    return a.session->prefillChunk(a.pending.request.prompt,
                                   a.session->contextLen(), end,
                                   a.plan);
}

void
BatchScheduler::ingest(Active &a, size_t end, double &prefill_ms,
                       double &pool_ms)
{
    const bool chunked = cfg_.prefill_chunk_tokens > 0;
    const size_t begin = a.session->contextLen();
    Matrix logits;
    try {
        obs::TraceScope span(chunked ? "tick/prefill_chunk"
                                     : "req/prefill",
                             a.pending.id, "begin",
                             static_cast<int64_t>(begin), "end",
                             static_cast<int64_t>(end));
        size_t attempt = 0;
        while (true) {
            try {
                auto f0 = std::chrono::steady_clock::now();
                logits = prefillTo(a, end);
                prefill_ms +=
                    msSince(f0, std::chrono::steady_clock::now());
                break;
            } catch (const nn::EngineFaultError &) {
                if (attempt >= kMaxStepRetries)
                    throw;
                ++attempt;
                if (metrics_)
                    metrics_->onStepRetry();
                obs::traceInstant("fault/step_retry", a.pending.id,
                                  "attempt",
                                  static_cast<int64_t>(attempt));
                // An ingest that died mid-layer left partially written
                // K/V behind: rebuild the session, which re-ingests
                // from token 0 under the request's K/V plan. Any
                // chunking of the same prompt is bit-identical, so
                // widening a chunk to [0, end) changes only the
                // schedule.
                a.session = std::make_unique<nn::InferenceSession>(
                    model_, backend_, quant_, a.pending.id);
                std::this_thread::sleep_for(cfg_.step_retry_backoff);
            }
        }
        if (pool_) {
            auto p0 = std::chrono::steady_clock::now();
            pool_->noteContext(a.admission.table,
                               a.session->contextLen());
            pool_ms += msSince(p0, std::chrono::steady_clock::now());
        }
    } catch (...) {
        failRequest(a, std::current_exception());
        return;
    }
    if (chunked && metrics_)
        metrics_->onPrefillChunk(end - begin);
    if (end < a.pending.request.prompt.size())
        return; // still warming; next chunk next tick

    // Prompt fully ingested: these logits give the first token.
    a.last_token = std::chrono::steady_clock::now();
    a.ttft_ms = msSince(a.pending.enqueued, a.last_token);
    a.generated.push_back(static_cast<int>(nn::argmaxRow(logits, 0)));
    if (a.pending.request.record_logits)
        a.step_logits.push_back(std::move(logits));
    if (metrics_)
        metrics_->onPrefill(a.ttft_ms);
    if (a.generated.size() >= a.pending.request.max_new_tokens)
        finish(a, /*expired=*/false);
}

void
BatchScheduler::prefillChunkTick(double &prefill_ms, double &pool_ms)
{
    for (Active &a : active_) {
        if (!a.session || !a.warming())
            continue;
        // The first chunk covers the mapped prefix for free, plus one
        // chunk of real tokens; later chunks resume at contextLen().
        const size_t begin = a.session->contextLen();
        const size_t prefix =
            a.plan.prefix ? a.plan.prefix->length() : 0;
        ingest(a,
               std::min(a.pending.request.prompt.size(),
                        (begin == 0 ? prefix : begin) +
                            cfg_.prefill_chunk_tokens),
               prefill_ms, pool_ms);
    }
}

double
BatchScheduler::decodeTick()
{
    // Warming requests (chunked prefill still ingesting their
    // prompts) hold slots but have no token to feed yet — the fused
    // step runs over the ready subset.
    std::vector<size_t> ready;
    ready.reserve(active_.size());
    for (size_t i = 0; i < active_.size(); ++i)
        if (active_[i].session && !active_[i].warming())
            ready.push_back(i);
    if (ready.empty())
        return 0.0;
    obs::TraceScope span("tick/decode", obs::kNoRequest, "batch",
                         static_cast<int64_t>(ready.size()));
    auto d0 = std::chrono::steady_clock::now();
    std::vector<nn::InferenceSession *> sessions;
    std::vector<int> feed;
    sessions.reserve(ready.size());
    feed.reserve(ready.size());
    for (size_t i : ready) {
        sessions.push_back(active_[i].session.get());
        feed.push_back(active_[i].generated.back());
    }

    // The fused step either advances EVERY session or none: a throw
    // mid-step leaves K/V partially mutated across the batch, so each
    // retry first replays all sessions from their prompts (cheap at
    // serve scale, and bit-identical thanks to the per-request noise
    // lanes) before re-running the step. Transient engine faults get
    // kMaxStepRetries such replays; anything else — or retry
    // exhaustion — fails the whole in-flight batch on its futures
    // while the scheduler itself keeps serving.
    std::vector<Matrix> logits;
    size_t attempt = 0;
    while (true) {
        try {
            if (attempt > 0) {
                replayActiveSessions();
                sessions.clear();
                for (size_t i : ready)
                    sessions.push_back(active_[i].session.get());
            }
            logits = nn::BatchedDecoder::step(sessions, feed);
            break;
        } catch (const nn::EngineFaultError &) {
            if (attempt >= kMaxStepRetries) {
                failActiveBatch(std::current_exception());
                return msSince(d0, std::chrono::steady_clock::now());
            }
            ++attempt;
            if (metrics_)
                metrics_->onStepRetry();
            obs::traceInstant(
                "fault/step_retry", obs::kNoRequest, "attempt",
                static_cast<int64_t>(attempt), "batch",
                static_cast<int64_t>(ready.size()));
            std::this_thread::sleep_for(cfg_.step_retry_backoff);
        } catch (...) {
            failActiveBatch(std::current_exception());
            return msSince(d0, std::chrono::steady_clock::now());
        }
    }
    auto t1 = std::chrono::steady_clock::now();

    for (size_t k = 0; k < ready.size(); ++k) {
        Active &a = active_[ready[k]];
        a.generated.push_back(
            static_cast<int>(nn::argmaxRow(logits[k], 0)));
        if (a.pending.request.record_logits)
            a.step_logits.push_back(std::move(logits[k]));
        if (metrics_)
            metrics_->recordTokenLatency(msSince(a.last_token, t1));
        obs::traceInstant(
            "req/token", a.pending.id, "batch",
            static_cast<int64_t>(ready.size()), "tokens",
            static_cast<int64_t>(a.generated.size()));
        a.last_token = t1;
        if (pool_)
            // The step re-ingested one token: materialize any block
            // boundary the context just crossed (always within the
            // admission reservation, so this cannot fail under load).
            pool_->noteContext(a.admission.table,
                               a.session->contextLen());
        if (a.generated.size() >= a.pending.request.max_new_tokens)
            finish(a, /*expired=*/false);
    }
    if (metrics_)
        metrics_->onDecodeTick(ready.size());
    return msSince(d0, std::chrono::steady_clock::now());
}

void
BatchScheduler::finish(Active &request, bool expired)
{
    RequestResult result;
    result.request_id = request.pending.id;
    result.generated = std::move(request.generated);
    result.step_logits = std::move(request.step_logits);
    result.expired = expired;
    result.total_ms = msSince(request.pending.enqueued,
                              std::chrono::steady_clock::now());
    // An expired-in-queue request never produced a first token; its
    // TTFT is the (missed) total.
    result.ttft_ms =
        result.generated.empty() ? result.total_ms : request.ttft_ms;
    obs::traceInstant(
        expired ? "req/expired" : "req/complete", request.pending.id,
        "tokens", static_cast<int64_t>(result.generated.size()));
    request.session.reset();
    request.generated.clear();
    request.step_logits.clear();
    if (pool_)
        // Return the blocks and drop the prefix ref (a no-op for the
        // empty admission of an expired-in-queue request). The prefix
        // itself stays cached, idle, until LRU eviction needs it.
        pool_->release(request.admission);
    request.pending.promise.set_value(std::move(result));
    if (metrics_)
        metrics_->onComplete(expired);
}

void
BatchScheduler::failRequest(Active &request, std::exception_ptr err)
{
    obs::traceInstant(
        "req/failed", request.pending.id, "tokens",
        static_cast<int64_t>(request.generated.size()));
    request.session.reset();
    request.generated.clear();
    request.step_logits.clear();
    if (pool_)
        // Same release path as finish(): blocks return to the free
        // list, the prefix ref drops (no-op for a default-constructed
        // admission that never made it through pool_->admit).
        pool_->release(request.admission);
    request.pending.promise.set_exception(std::move(err));
    if (metrics_)
        metrics_->onRequestFailure();
}

void
BatchScheduler::failActiveBatch(std::exception_ptr err)
{
    for (Active &a : active_)
        if (a.session)
            failRequest(a, err);
    // retireFinished() in tick() sweeps the now-session-less entries.
}

void
BatchScheduler::replayActiveSessions()
{
    obs::traceInstant("fault/replay", obs::kNoRequest, "batch",
                      static_cast<int64_t>(active_.size()));
    for (Active &a : active_) {
        // Warming requests weren't in the failed fused step and their
        // partial K/V is intact — prefillChunkTick owns their retry.
        if (!a.session || a.warming())
            continue;
        // Re-ingest the whole prompt under the request's stored K/V
        // plan, through the same path it originally took.
        a.session = std::make_unique<nn::InferenceSession>(
            model_, backend_, quant_, a.pending.id);
        prefillTo(a, a.pending.request.prompt.size());
        // Re-ingest every generated token except the last: that one
        // is the feed of the step being retried. Nobody reads the
        // replayed logits (they equal the recorded ones), so each
        // token takes the K/V-only ingest step.
        for (size_t i = 0; i + 1 < a.generated.size(); ++i)
            a.session->ingestStep(a.generated[i]);
        if (pool_)
            pool_->noteContext(a.admission.table,
                               a.session->contextLen());
    }
}

void
BatchScheduler::retireFinished()
{
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [](const Active &a) {
                                     return a.session == nullptr;
                                 }),
                  active_.end());
}

} // namespace serve
} // namespace lt
