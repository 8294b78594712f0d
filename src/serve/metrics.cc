#include "metrics.hh"

#include <algorithm>

namespace lt {
namespace serve {

void
Metrics::onSubmit()
{
    std::lock_guard<std::mutex> lock(mu_);
    auto now = std::chrono::steady_clock::now();
    if (!saw_activity_) {
        saw_activity_ = true;
        first_activity_ = now;
    }
    last_activity_ = now;
    counts_.submitted += 1;
}

void
Metrics::onRejectedQueueFull()
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_.rejected_queue_full += 1;
}

void
Metrics::onRejectedExpired()
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_.rejected_expired += 1;
}

void
Metrics::onRequestFailure()
{
    std::lock_guard<std::mutex> lock(mu_);
    last_activity_ = std::chrono::steady_clock::now();
    counts_.request_failures += 1;
}

void
Metrics::onStepRetry()
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_.engine_step_retries += 1;
}

void
Metrics::onPrefill(double ttft_ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    last_activity_ = std::chrono::steady_clock::now();
    counts_.prefills += 1;
    counts_.tokens_generated += 1; // the prefill's argmax token
    ttft_ms_.add(ttft_ms);
}

void
Metrics::onPrefillChunk(size_t tokens)
{
    std::lock_guard<std::mutex> lock(mu_);
    last_activity_ = std::chrono::steady_clock::now();
    counts_.prefill_chunks += 1;
    counts_.prefill_chunk_tokens += tokens;
}

void
Metrics::onDecodeTick(size_t batch_size)
{
    std::lock_guard<std::mutex> lock(mu_);
    last_activity_ = std::chrono::steady_clock::now();
    counts_.decode_ticks += 1;
    counts_.tokens_generated += batch_size;
}

void
Metrics::recordTokenLatency(double ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    token_ms_.add(ms);
}

void
Metrics::onComplete(bool expired)
{
    std::lock_guard<std::mutex> lock(mu_);
    last_activity_ = std::chrono::steady_clock::now();
    counts_.completed += 1;
    if (expired)
        counts_.expired += 1;
}

void
Metrics::setGauges(size_t queue_depth, size_t active_requests)
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_.queue_depth = queue_depth;
    counts_.active_requests = active_requests;
    counts_.peak_active_requests =
        std::max(counts_.peak_active_requests, active_requests);
}

void
Metrics::onTickPhases(double admission_ms, double prefill_ms,
                      double decode_ms, double pool_ms)
{
    std::lock_guard<std::mutex> lock(mu_);
    counts_.tick_admission_ms += admission_ms;
    counts_.tick_prefill_ms += prefill_ms;
    counts_.tick_decode_ms += decode_ms;
    counts_.tick_pool_ms += pool_ms;
}

MetricsSnapshot
Metrics::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snap = counts_;
    snap.ttft_p50_ms = ttft_ms_.percentile(50.0);
    snap.ttft_p99_ms = ttft_ms_.percentile(99.0);
    snap.token_p50_ms = token_ms_.percentile(50.0);
    snap.token_p99_ms = token_ms_.percentile(99.0);
    snap.ttft_hist = ttft_ms_;
    snap.token_hist = token_ms_;
    if (saw_activity_) {
        double wall_s = std::chrono::duration<double>(last_activity_ -
                                                      first_activity_)
                            .count();
        if (wall_s > 0.0)
            snap.tokens_per_s =
                static_cast<double>(snap.tokens_generated) / wall_s;
    }
    return snap;
}

} // namespace serve
} // namespace lt
