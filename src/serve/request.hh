/**
 * @file
 * Request/result types of the continuous-batching serve layer.
 *
 * A request is a prompt plus a generation budget (and optionally a
 * deadline); the server answers with the greedy-decoded tokens and,
 * when asked, every step's logits — the artifact the bit-identity
 * contract is asserted on (serve/server.hh).
 */

#ifndef LT_SERVE_REQUEST_HH
#define LT_SERVE_REQUEST_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/linalg.hh"

namespace lt {
namespace serve {

/** One generation request submitted to the server. */
struct Request
{
    /** Prompt token ids (must be non-empty and in-vocabulary). */
    std::vector<int> prompt;

    /**
     * Tokens to generate (> 0). The first comes from the prefill
     * logits; each later one from a decode step that re-ingests its
     * predecessor — so the request consumes
     * prompt.size() + max_new_tokens - 1 positions of the model's
     * positional table (validated at submit).
     */
    size_t max_new_tokens = 0;

    /**
     * Optional completion deadline, relative to submission. A request
     * that misses it completes early with RequestResult::expired set
     * and whatever tokens it generated so far.
     */
    std::optional<std::chrono::milliseconds> deadline;

    /**
     * Keep every step's logits in the result ([0] = prefill, then one
     * per decode step; generated[k] = argmax of step_logits[k]). Off
     * by default — it is the bit-identity test hook, not a serving
     * feature.
     */
    bool record_logits = false;

    /**
     * Noise lane of the request (see InferenceSession). Defaults to a
     * server-assigned sequential id; fix it to make a server run
     * reproducible against a solo InferenceSession with the same id.
     */
    std::optional<uint64_t> request_id;

    /**
     * Scheduling priority class (higher = more urgent). The queue
     * serves the highest priority class first; within a class,
     * requests with the earliest deadline go first (EDF) and
     * deadline-less requests fall back to FIFO order. Bypass aging
     * bounds starvation: an entry overtaken too many times is served
     * next regardless of class (RequestQueue::kStarvationBypassLimit).
     * 0 (the default) keeps the historical all-FIFO behavior when no
     * request sets a priority or a deadline.
     */
    int priority = 0;

    /**
     * Leading prompt tokens shared with other requests (a system
     * prompt, few-shot header, ...). On a paged server
     * (ServerConfig::kv_pool) those positions are served from ONE
     * refcounted, copy-on-write KV prefix — computed once, mapped by
     * every request naming the same tokens — without changing the
     * request's logits (the prefix is content-addressed; see
     * nn::KvPrefix). Must leave at least one suffix token. 0 (the
     * default) shares nothing; nonzero requires paging and throws
     * std::invalid_argument at submit otherwise.
     */
    size_t shared_prefix_tokens = 0;
};

/** What the server promises back for one request. */
struct RequestResult
{
    uint64_t request_id = 0;

    /** Greedy-decoded tokens, at most max_new_tokens. */
    std::vector<int> generated;

    /** Per-step logits when Request::record_logits was set. */
    std::vector<Matrix> step_logits;

    /** Deadline missed: `generated` holds the partial output. */
    bool expired = false;

    /** Submit -> first generated token (prefill complete). */
    double ttft_ms = 0.0;

    /** Submit -> completion. */
    double total_ms = 0.0;
};

} // namespace serve
} // namespace lt

#endif // LT_SERVE_REQUEST_HH
