/**
 * @file
 * InferenceSession: request-scoped autoregressive decode on the
 * photonic execution engine (paper Section VI-B made concrete).
 *
 * A session owns everything one decode request needs — an
 * ActivationWorkspace for scratch activations, a RunContext with the
 * request's own NoiseStream lane, and a growing per-layer K/V cache —
 * while sharing the model weights with every other session:
 *
 *   InferenceSession s(model, backend);
 *   Matrix logits = s.prefill(prompt_tokens);
 *   for (...) logits = s.decodeStep(next_token);
 *
 * prefill() runs the prompt as one (causal) full-sequence forward and
 * lifts the per-head K/V the forward already materialized into the
 * cache; decodeStep() then pushes a single token row through every
 * layer as a batch of one on BatchedDecoder::step — the one decode
 * implementation, shared with the serve layer's fused steps. The
 * skinny per-head QK^T / AV products against the cache run through
 * GemmBackend::gemmBatch — the exact low-intensity traffic
 * nn/llm_workload.hh's analytic decodeStepWorkload() models
 * (bench_llm_decode cross-checks the two). A session may also start
 * without prefill(): its first decodeStep(), ingestStep() or
 * prefillChunk() token is an ordinary step against an empty cache, as
 * on the paper's DPTC, where every token's K and V are dynamic
 * operands encoded on the fly.
 *
 * A position whose logits nobody reads (a prompt chunk's tokens before
 * its last, a shared prefix, a replayed token) needs only its K/V from
 * the last layer. ingestStep() and buildKvPrefix() stop there: the
 * last layer's Q projection, QK^T/AV, WO and FFN, the final LN and the
 * head are skipped, and each skipped product claims its stream id in
 * the full step's order, so the K/V, the noise lane and every later
 * logit are bit-identical to the full step's. Such a token costs the
 * full step's MACs minus that dead work (test_chunked_prefill derives
 * both from decodeStepWorkload). Mean pooling keeps the full step.
 *
 * Determinism: each session draws noise from its own lane (derived
 * from `request_id`), so its logits are bit-identical whether it runs
 * alone or interleaved with any number of concurrent sessions.
 *
 * Parity contract (tested in tests/test_decode.cc): with quantization
 * disabled, prefill + decodeStep logits equal the full-sequence
 * forward of the same prefix at every step — exactly on IdealBackend
 * and the Ideal-mode engine (all layers are row-wise or causal), and
 * within noise tolerance on the noisy photonic engine (per-row
 * operand quantization and per-call noise streams differ from the
 * full-sequence pass, as they would on the real datapath).
 */

#ifndef LT_NN_INFERENCE_SESSION_HH
#define LT_NN_INFERENCE_SESSION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/activation_workspace.hh"
#include "nn/transformer.hh"

namespace lt {
namespace nn {

/**
 * Immutable K/V of a prompt prefix, shareable across sessions — the
 * unit the serve-layer KV block pool refcounts and evicts.
 *
 * A prefix is computed by InferenceSession::buildKvPrefix as ONE
 * whole-sequence forward over exactly its tokens, stopped at the last
 * layer's K/V, on a *content-addressed* noise lane (derived from
 * hashPrefixTokens, not from any request id), which makes it a pure
 * function of (model weights, backend config, tokens):
 *
 *  - every request that maps the prefix reads bit-identical K/V, so a
 *    shared-cache hit equals a solo run that computed its own prefix;
 *  - an evicted prefix recomputes to the same bits on readmission;
 *  - computing it never advances any request's noise lane, so cache
 *    hits and misses leave request logits untouched.
 *
 * Note the quantized prefix K/V is a function of the prefix tokens
 * ONLY (per-operand quantization scans just these rows) — which is
 * precisely why sharing requires this dedicated forward instead of
 * slicing one request's prefill cache, and why the paged/shared path
 * is opt-in per request rather than a transparent rewrite of the
 * default contiguous path.
 */
struct KvPrefix
{
    std::vector<int> tokens;            ///< the prefix token ids
    std::vector<KvLayerSegment> layers; ///< one segment per layer
    Matrix pooled_sum; ///< final-LN row sum over the prefix (Mean)

    size_t length() const { return tokens.size(); }
};

/** FNV-1a over token ids: prefix cache key + content noise lane. */
uint64_t hashPrefixTokens(const std::vector<int> &tokens);

/** The content-addressed noise lane buildKvPrefix runs `tokens` on. */
NoiseStream prefixLane(const std::vector<int> &tokens);

/**
 * How prefill should provision K/V memory for one request. The
 * default plan (no prefix, reserve_tokens = 0) maps no shared segments
 * and reserves the whole positional table, as a session started
 * without a plan does.
 */
struct SessionKvPlan
{
    /** Shared prompt prefix to map copy-on-write (may be null). */
    std::shared_ptr<const KvPrefix> prefix;

    /**
     * Context length to reserve K/V backing for (prompt + expected
     * generation); 0 = the model's full max_tokens, the dense-reserve
     * worst case the paged serve path replaces.
     */
    size_t reserve_tokens = 0;
};

/** One autoregressive decode request against a shared model. */
class InferenceSession
{
  public:
    /**
     * @param model sequence-mode, causal, Mean or LastToken pooling
     *        (throws std::invalid_argument otherwise)
     * @param backend executes every GEMM of this session
     * @param quant operand fake-quantization (mirrors RunContext)
     * @param request_id selects the session's noise lane: sessions
     *        with distinct ids draw decorrelated noise; the same id
     *        replays bit-identically on a same-config backend
     */
    InferenceSession(const TransformerClassifier &model,
                     GemmBackend &backend,
                     const QuantConfig &quant = QuantConfig::disabled(),
                     uint64_t request_id = 0);

    /**
     * Ingest the prompt (one full-sequence forward), seed the K/V
     * cache, reserve its backing for the plan's context, and return
     * the prompt's logits [1, num_classes]. Must be the first call on
     * a session.
     *
     * With a shared prefix in `plan` this is
     * prefillChunk(tokens, 0, tokens.size(), plan): the prefix's
     * tokens must equal the prompt's head (and leave at least one
     * suffix token); the session maps the prefix segments
     * copy-on-write — no forward runs over those positions — seeds the
     * pooled state from the prefix, reserves backing only for the
     * request's own tail, and ingests the suffix tokens through the
     * incremental decode path on the request's own noise lane.
     * Throws std::invalid_argument on an empty prompt, a too-long
     * prompt, a second prefill, or a prompt/prefix mismatch.
     */
    Matrix prefill(const std::vector<int> &tokens,
                   const SessionKvPlan &plan = SessionKvPlan{});

    /**
     * Resumable partial prefill: ingest prompt tokens [begin, end) of
     * `tokens`, appending to the session's K/V exactly as the
     * remaining chunks will — the serve scheduler's chunked-prefill
     * primitive, letting prompt ingestion interleave with decode
     * ticks instead of stalling them for the whole prompt.
     *
     * Chunks ingest token-by-token through the incremental decode
     * path on the session's own noise lane, token 0 included: the
     * chunk's last token takes the full decode step, whose logits are
     * returned, and every token before it an ingestStep(), which stops
     * at the last layer's K/V. Every position claims a fixed number of
     * stream ids (a skipped product claims its id without running), so
     * the result after the last chunk is bit-identical for ANY
     * chunking of the same prompt (chunk size 1 == 3 == one
     * whole-prompt chunk). `begin` must equal contextLen() (chunks
     * resume where the previous one stopped). Returns the logits after
     * token end-1 — the first-token logits once end == tokens.size().
     *
     * `plan` (shared prefix + right-sized reservation) applies on the
     * session's first chunk and is ignored once the session holds
     * tokens. With a prefix of p tokens the mapped positions count as
     * held, so the first chunk must satisfy end > p (at least one
     * suffix token must run). Throws std::invalid_argument on an
     * out-of-order or empty chunk, a prompt that disagrees with the
     * tokens already ingested, or any ordinary prefill violation.
     */
    Matrix prefillChunk(const std::vector<int> &tokens, size_t begin,
                        size_t end,
                        const SessionKvPlan &plan = SessionKvPlan{});

    /**
     * Compute the shareable K/V of `tokens` as a prompt prefix: one
     * whole-sequence forward on the content-addressed noise lane that
     * stops at the last layer's K/V (its Q, QK^T/AV, WO and FFN, the
     * final LN and the head are skipped and their stream ids claimed;
     * Mean pooling runs the full forward, since its pooled sum needs
     * every row's final LN). The per-layer quantized K/V (and, on
     * encoded-operand backends, the packed encodings) are seeded into
     * an immutable KvPrefix by MultiHeadSelfAttention::seedKvCache, as
     * a session's tail is. Bit-identical to the K/V forwardSequence +
     * seedKvCache yield on the same lane. Pure function of (model,
     * backend config, quant, tokens) — see the KvPrefix contract.
     * Throws std::invalid_argument for models an InferenceSession
     * would reject, empty/too-long prefixes, or out-of-vocabulary ids.
     */
    static std::shared_ptr<const KvPrefix>
    buildKvPrefix(const TransformerClassifier &model,
                  GemmBackend &backend, const QuantConfig &quant,
                  const std::vector<int> &tokens);

    /**
     * Append one token and return the logits after it — equal to a
     * full-sequence forward over the whole context (see the parity
     * contract above): BatchedDecoder::step over this session alone,
     * on a fresh session too. Throws std::invalid_argument when the
     * context would exceed TransformerConfig::max_tokens.
     */
    Matrix decodeStep(int token);

    /**
     * Append one token whose logits the caller will not read:
     * BatchedDecoder::ingest over this session alone. Leaves the K/V
     * caches and the noise lane bit-identical to decodeStep(token)
     * while skipping the last layer's Q, attention products, WO and
     * FFN and the head (a "session/ingest_step" span); under Mean
     * pooling it runs the full step. Throws as decodeStep() does.
     */
    void ingestStep(int token);

    /** Layer `l`'s K/V: the mapped prefix segment, if any, and the
     *  session's own tail. */
    const AttentionKvCache &kvCache(size_t l) const { return kv_.at(l); }

    /** Tokens currently in the K/V cache. */
    size_t contextLen() const { return len_; }

    /** The noise-lane / trace id this session was constructed with. */
    uint64_t requestId() const { return request_id_; }

    /** The tokens consumed so far (prompt + decoded). */
    const std::vector<int> &tokens() const { return tokens_; }

    const TransformerClassifier &model() const { return *model_; }

  private:
    friend class BatchedDecoder;

    /**
     * Validate + map a shared prefix onto an empty session (segment
     * aliasing, an empty tail reserving the plan's context budget
     * beyond the prefix, pooled state, token bookkeeping) — the head
     * of a prefix-plan first chunk.
     */
    void mapPrefix(const std::vector<int> &tokens,
                   const SessionKvPlan &plan);

    const TransformerClassifier *model_;
    uint64_t request_id_ = 0; ///< trace payload; lane lives in ctx_
    RunContext ctx_;
    ActivationWorkspace ws_;
    std::vector<AttentionKvCache> kv_;  ///< one per layer
    std::vector<int> tokens_;
    Matrix pooled_sum_;  ///< running final-LN row sum (Mean pooling)
    size_t len_ = 0;
};

} // namespace nn
} // namespace lt

#endif // LT_NN_INFERENCE_SESSION_HH
