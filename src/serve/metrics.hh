/**
 * @file
 * serve::Metrics — the serving-quality sink of the continuous-batching
 * layer: queue depth, time-to-first-token, per-token latency
 * percentiles, per-tick phase time, throughput, and (via the server)
 * engine work counters.
 *
 * The scheduler records samples as requests move through admission,
 * prefill, and fused decode; snapshot() folds them into the numbers a
 * serving dashboard would plot. Latency distributions live in bounded
 * log-scaled obs::Histograms (~2 KB each), so a long-running server's
 * metrics memory is constant no matter how many tokens it serves.
 * Thread-safe: clients may snapshot while the scheduler ticks.
 */

#ifndef LT_SERVE_METRICS_HH
#define LT_SERVE_METRICS_HH

#include <chrono>
#include <cstddef>
#include <mutex>

#include "obs/histogram.hh"
#include "serve/kv_pool/kv_pool_stats.hh"

namespace lt {
namespace serve {

/** Point-in-time summary of a server's activity. */
struct MetricsSnapshot
{
    // Request lifecycle counters.
    size_t submitted = 0;
    size_t completed = 0;
    size_t expired = 0;   ///< deadline misses (subset of completed)

    /**
     * Robustness counters. Rejections never entered the queue
     * (backpressure at max_queue_depth; an already-expired deadline
     * at submit). A request failure is a future delivered by
     * exception (per-request fault containment) — the serving thread
     * survived it. Step retries are serve-level bounded re-executions
     * after a transient nn::EngineFaultError (session replay + fused
     * step re-run), before any request is failed.
     */
    size_t rejected_queue_full = 0;
    size_t rejected_expired = 0;
    size_t request_failures = 0;
    size_t engine_step_retries = 0;

    size_t prefills = 0;
    size_t decode_ticks = 0;  ///< fused batched decode steps executed
    size_t tokens_generated = 0;

    /**
     * Chunked-prefill work (zero when
     * SchedulerConfig::prefill_chunk_tokens is 0): chunks executed and
     * prompt positions they covered (shared-prefix positions count —
     * they are covered by the first chunk, for free). prefills still
     * counts whole prompts completed, so chunks / prefills is the mean
     * chunks-per-prompt.
     */
    size_t prefill_chunks = 0;
    size_t prefill_chunk_tokens = 0;

    // Gauges at snapshot time.
    size_t queue_depth = 0;
    size_t active_requests = 0;
    size_t peak_active_requests = 0; ///< high-water concurrency

    // Latency distributions (milliseconds), estimated from the
    // bounded histograms below (log-bucket resolution ~±4.4%).
    double ttft_p50_ms = 0.0;
    double ttft_p99_ms = 0.0;
    double token_p50_ms = 0.0;
    double token_p99_ms = 0.0;

    /** Generated tokens per second of serving wall clock. */
    double tokens_per_s = 0.0;

    /**
     * Where scheduler tick time went, cumulative milliseconds since
     * start. Disjoint phases: admission bookkeeping (queue pops,
     * session construction), whole-prompt prefill, fused batched
     * decode, and KV-pool work (admit/release/noteContext) — together
     * they account for (almost) all time spent inside tick(). This is
     * the serving analogue of the paper's Fig. 10 stage breakdown and
     * the baseline the chunked-prefill scheduler work is judged
     * against.
     */
    double tick_admission_ms = 0.0;
    double tick_prefill_ms = 0.0;
    double tick_decode_ms = 0.0;
    double tick_pool_ms = 0.0;

    /**
     * Trace events lost to ring-buffer wraparound in the installed
     * obs::TraceRecorder (0 when tracing is off). Overlaid by
     * Server::metrics(); nonzero means the exported trace is missing
     * its oldest events and the ring capacity should be raised.
     */
    size_t trace_dropped_events = 0;

    // Engine work, filled by Server::metrics() from backend stats.
    size_t engine_macs = 0;
    size_t engine_gemm_calls = 0;
    size_t engine_batch_calls = 0;
    /** Stacked-row dispatches: N decode rows against one weight
     *  plan in ONE engine call (N solo row products). */
    size_t engine_stacked_calls = 0;

    /**
     * Encoded-operand cache effectiveness, split by operand class.
     * Weight side: hits are weight GEMMs served from a pre-encoded
     * plan, misses are plan (re)encodes — a healthy steady-state
     * decode server shows misses frozen at one-per-(layer-weight,
     * width) while hits grow with every tick. KV side: hits are
     * attention products dispatched on cached encoded K/V operands
     * (grown by O(k) packed appends), misses are K/V cache encodes
     * (prefill seeding and beta-growth requantizations) — a dead KV
     * cache shows zero hits here as loudly as a dead weight cache
     * does on the weight counters.
     */
    size_t engine_weight_encode_hits = 0;
    size_t engine_weight_encode_misses = 0;
    size_t engine_kv_encode_hits = 0;
    size_t engine_kv_encode_misses = 0;

    /**
     * Gaussian noise draws the DPTC kernels took while serving — the
     * noise pipeline's load metric (see GemmStats::gaussian_draws).
     */
    size_t engine_gaussian_draws = 0;

    /**
     * Engine fault-tolerance counters (GemmStats ABFT layer),
     * overlaid by Server::metrics(): checksum-detected faulty tiles,
     * tile re-executions on other replicas, and replicas quarantined.
     * All zero while fault injection/verification is disabled.
     */
    size_t engine_faults_detected = 0;
    size_t engine_fault_retries = 0;
    size_t engine_fault_quarantines = 0;

    /**
     * Full latency distributions (bounded log-scaled histograms) for
     * callers that want more than the p50/p99 scalars: arbitrary
     * percentiles, counts, exact min/max/mean.
     */
    obs::Histogram ttft_hist;
    obs::Histogram token_hist;

    /**
     * Paged KV-cache pool state, overlaid by Server::metrics() when
     * ServerConfig::kv_pool is enabled (all-zero otherwise): blocks
     * in use / free / resident / shared, prefix hit-miss-eviction-
     * recompute counters, and resident KV bytes — the memory story of
     * the serve layer.
     */
    KvPoolStats kv_pool;
};

/** Thread-safe metrics accumulator. */
class Metrics
{
  public:
    void onSubmit();
    void onRejectedQueueFull();
    void onRejectedExpired();
    void onRequestFailure();
    void onStepRetry();
    void onPrefill(double ttft_ms);
    /** One prefill chunk covering `tokens` prompt positions. */
    void onPrefillChunk(size_t tokens);
    void onDecodeTick(size_t batch_size);
    void recordTokenLatency(double ms);
    void onComplete(bool expired);
    void setGauges(size_t queue_depth, size_t active_requests);

    /**
     * Accumulate one tick's disjoint phase times (milliseconds); the
     * scheduler calls this once per tick with the wall time spent in
     * admission bookkeeping, prefill, fused decode, and KV-pool work.
     */
    void onTickPhases(double admission_ms, double prefill_ms,
                      double decode_ms, double pool_ms);

    /**
     * Fold the samples into a snapshot. Percentiles use the
     * nearest-rank method over the bounded histograms; tokens_per_s
     * divides generated tokens by the wall time between the first
     * submission and the last recorded activity. Engine counters are
     * zero here — the Server overlays them from its backend.
     */
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    MetricsSnapshot counts_; ///< counters + gauges (latencies unused)
    obs::Histogram ttft_ms_;
    obs::Histogram token_ms_;
    bool saw_activity_ = false;
    std::chrono::steady_clock::time_point first_activity_;
    std::chrono::steady_clock::time_point last_activity_;
};

} // namespace serve
} // namespace lt

#endif // LT_SERVE_METRICS_HH
