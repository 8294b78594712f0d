/**
 * @file
 * BatchScheduler: the continuous-batching loop of the serve layer.
 *
 * Every tick() (a) retires requests that missed their deadline,
 * (b) admits waiting requests into free slots and runs their prefills
 * — or, with SchedulerConfig::prefill_chunk_tokens set, runs at most
 * ONE prefill chunk per warming request (chunked prefill, the token-
 * tail killer) — then (c) advances every ready session one decode
 * step together through nn::BatchedDecoder, so the engine sees one
 * stacked-row fused dispatch per projection per layer (O(layers)
 * dispatches) no matter how many requests are in flight. Requests
 * join and leave the running batch between any two ticks; the batch
 * never drains to admit new work (continuous batching, not static
 * batching).
 *
 * Whole prompts and chunks share one ingest path (ingest()): the
 * same engine-fault retry with session rebuild, KV-pool context
 * bookkeeping, and first-token emission. Fault replay re-ingests
 * through the same whole-vs-chunked switch.
 *
 * Decoding is greedy: token 0 is the argmax of the prefill logits,
 * token k the argmax of the decode step that re-ingested token k-1.
 * Because every session decodes on its own request_id noise lane, the
 * tokens (and logits) of a request are bit-identical to a solo
 * InferenceSession run — whatever the concurrency mix was.
 *
 * Single-consumer: tick() must be called from one thread at a time
 * (serve::Server owns that thread; tests may tick manually).
 *
 * Observability: when an obs::TraceRecorder is installed, every tick
 * emits "tick/admission", per-chunk "tick/prefill_chunk" (chunked
 * mode), and "tick/decode" phase spans, per-request
 * lifecycle events ("req/admitted", "req/prefill" span, "req/token"
 * per decode tick, "req/complete" / "req/expired"), and queue-depth /
 * active-request counter tracks. Independent of tracing, the tick's
 * disjoint phase wall times (admission bookkeeping, prefill, fused
 * decode, KV-pool work) accumulate into Metrics::onTickPhases.
 */

#ifndef LT_SERVE_BATCH_SCHEDULER_HH
#define LT_SERVE_BATCH_SCHEDULER_HH

#include <atomic>
#include <memory>
#include <vector>

#include "nn/batched_decoder.hh"
#include "serve/kv_pool/kv_block_pool.hh"
#include "serve/metrics.hh"
#include "serve/request_queue.hh"

namespace lt {
namespace serve {

/** Continuous-batching knobs. */
struct SchedulerConfig
{
    /**
     * Max concurrent decode sessions (the admission bound). Mirrors
     * the batch the accelerator's SRAM/HBM budget would sustain; the
     * serve tests run it 1..16, and bench_serve_slo serves 16.
     */
    size_t max_batch = 8;

    /** Backoff between engine-fault retries (gives quarantine and
     *  transient upsets time to clear). */
    std::chrono::milliseconds step_retry_backoff{1};

    /**
     * Chunked prefill: ingest each admitted prompt in chunks of at
     * most this many tokens, ONE chunk per request per tick, between
     * admission and the fused decode step — so a new prompt never
     * stalls the in-flight decoders for more than one chunk (the
     * token-p99 tail killer at high concurrency). 0 = the historical
     * whole-prompt prefill at admission time.
     *
     * Chunks ingest through the incremental decode path, so a
     * request's logits are bit-identical for ANY chunk size — but
     * chunked ingestion is a different (per-token) quantization
     * schedule than the whole-sequence prefill forward, so solo
     * reference runs must use prefillChunk too (test_chunked_prefill
     * does). With a shared prefix the mapped positions are free: the
     * first chunk covers the prefix plus one chunk of real tokens.
     */
    size_t prefill_chunk_tokens = 0;
};

/** Admits, prefills, and lockstep-decodes concurrent requests. */
class BatchScheduler
{
  public:
    /**
     * Bounded retries after a transient nn::EngineFaultError during
     * prefill or a fused decode step, before the affected request(s)
     * are failed on their futures. Each decode-step retry replays the
     * active sessions from their prompts (deterministic noise lanes
     * make the replay bit-identical), so the re-run starts from
     * consistent KV state even when the failed step died mid-layer.
     */
    static constexpr size_t kMaxStepRetries = 2;

    /**
     * @param model shared decoder (InferenceSession's requirements)
     * @param backend shared GEMM engine for every session
     * @param quant operand quantization applied to every request
     * @param metrics optional sink (may be nullptr)
     * @param pool optional paged KV pool (may be nullptr = the
     *        historical dense-reserve mode). With a pool, admission
     *        gates on the free-block budget instead of slot count
     *        alone — the queue's most urgent request (priority/EDF
     *        order, see RequestQueue::takeIf) waits without being
     *        overtaken until enough blocks are free or evictable,
     *        prefills run under a right-sized SessionKvPlan, and
     *        completion/expiry releases the request's blocks.
     */
    BatchScheduler(const nn::TransformerClassifier &model,
                   nn::GemmBackend &backend,
                   const nn::QuantConfig &quant,
                   const SchedulerConfig &cfg,
                   Metrics *metrics = nullptr,
                   KvBlockPool *pool = nullptr);

    /**
     * One scheduler tick: expire, admit + prefill, fused decode step,
     * retire finished requests. Returns the number of requests still
     * active afterwards (0 = idle).
     */
    size_t tick(RequestQueue &queue);

    /**
     * Requests in flight as of the last completed tick. Safe to poll
     * from other threads while the serving thread ticks (mid-tick
     * admissions/retirements become visible at tick end).
     */
    size_t
    activeRequests() const
    {
        return active_count_.load(std::memory_order_relaxed);
    }

    const SchedulerConfig &config() const { return cfg_; }

  private:
    /** One admitted request mid-generation. */
    struct Active
    {
        PendingRequest pending;
        std::unique_ptr<nn::InferenceSession> session;
        std::vector<int> generated;
        std::vector<Matrix> step_logits;
        std::chrono::steady_clock::time_point last_token;
        double ttft_ms = 0.0; ///< submit -> prefill completion
        /** The session's K/V plan (prefix + reservation): chunked
         *  prefill resumes under it, fault replay rebuilds from it. */
        nn::SessionKvPlan plan;
        /** Pool blocks + shared prefix (paged mode only). */
        KvBlockPool::Admission admission;

        /** Still ingesting its prompt (no first token yet): occupies
         *  a batch slot but does not decode. */
        bool warming() const { return generated.empty(); }
    };

    /** Admit (+ ingest whole prompts); accumulates prefill / KV-pool
     *  wall time into the out-params for the tick's phase
     *  accounting. */
    void admit(RequestQueue &queue, double &prefill_ms,
               double &pool_ms);
    /** One prefill chunk for every warming request (chunked mode).
     *  Chunk wall time lands in prefill_ms — per-chunk, in the tick
     *  it actually ran, not under admission. */
    void prefillChunkTick(double &prefill_ms, double &pool_ms);
    /**
     * The one prompt-ingest path: advance `a`'s session to prompt
     * token `end` (the whole prompt at admission, one chunk per tick
     * in chunked mode) under a "req/prefill" or "tick/prefill_chunk"
     * span. Transient engine faults get kMaxStepRetries retries,
     * each on a rebuilt session; the pool then learns the new context,
     * and once `end` reaches the prompt length the first token is
     * emitted (finishing a one-token request). Any other failure fails
     * the request alone: afterwards `a.session` is null iff the
     * request failed or finished.
     */
    void ingest(Active &a, size_t end, double &prefill_ms,
                double &pool_ms);
    /** Ingest prompt tokens [contextLen(), end) on a's session under
     *  its K/V plan, whole-sequence or chunked per the config — the
     *  switch admission, chunks, and fault replay share. No retry. */
    Matrix prefillTo(Active &a, size_t end);
    /** One fused decode step; returns its wall time in ms. */
    double decodeTick();
    void finish(Active &request, bool expired);
    void retireFinished();

    /** Fail ONE request: release its pool blocks, deliver `err` on
     *  its future, count it. The server stays alive. */
    void failRequest(Active &request, std::exception_ptr err);
    /** Fail every in-flight request with `err` (decode-step retries
     *  exhausted, or a non-transient batch-wide exception). */
    void failActiveBatch(std::exception_ptr err);
    /** Rebuild every active session from its prompt and replay the
     *  tokens generated so far (through ingest steps: nobody reads
     *  their logits) — bit-identical thanks to per-request noise
     *  lanes — to restore consistent KV state after a decode step
     *  died mid-flight. */
    void replayActiveSessions();

    const nn::TransformerClassifier &model_;
    nn::GemmBackend &backend_;
    nn::QuantConfig quant_;
    SchedulerConfig cfg_;
    Metrics *metrics_;
    KvBlockPool *pool_;
    std::vector<Active> active_;

    /** active_.size() snapshot for cross-thread introspection. */
    std::atomic<size_t> active_count_{0};
};

} // namespace serve
} // namespace lt

#endif // LT_SERVE_BATCH_SCHEDULER_HH
