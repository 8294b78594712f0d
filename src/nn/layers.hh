/**
 * @file
 * Transformer building-block layers with manual backward passes.
 *
 * Every layer follows the same contract:
 *  - forward(x, cache, ctx) is a *pure function* of (weights, input):
 *    it is const on the layer and writes what backward needs into the
 *    caller-owned cache (see nn/activation_workspace.hh), so one
 *    weight set can serve many concurrent requests, each with its own
 *    workspace;
 *  - backward(dy, cache) returns dL/dx and accumulates parameter
 *    gradients (training is the one stateful client);
 *  - visitParams(fn) exposes (param, grad) pairs to the optimizer.
 *
 * All matrix products route through the RunContext's GemmBackend, so a
 * model built from these layers can execute on exact arithmetic or on
 * the noisy photonic DPTC functional model. Each product draws its
 * noise-stream id from the RunContext's NoiseStream in fixed call
 * order, making noisy results independent of thread scheduling and of
 * concurrent requests. A product skipped because nobody reads its
 * result (the K/V-only forwardKv / ingestStepBatch halves) still
 * claims its id, in the same order (NoiseStream::skip), so every later
 * product draws the id it draws after the full pass. Quantization
 * follows the paper's noise-aware training recipe: weights and
 * activations are fake-quantized in forward, gradients pass straight
 * through (STE).
 */

#ifndef LT_NN_LAYERS_HH
#define LT_NN_LAYERS_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/activation_workspace.hh"
#include "nn/gemm_backend.hh"
#include "nn/quant.hh"
#include "nn/tensor_ops.hh"
#include "util/linalg.hh"
#include "util/rng.hh"

namespace lt {
namespace nn {

/**
 * Execution context threaded through every forward pass: which GEMM
 * backend runs the products, how operands are quantized, and which
 * noise stream the products draw from. Copy a context and give it a
 * distinct stream lane (NoiseStream::lane) to run requests
 * concurrently with decorrelated, scheduling-independent noise.
 */
struct RunContext
{
    GemmBackend *backend;
    QuantConfig quant;
    NoiseStream stream{};

    /**
     * Inference-only pass: layers may serve static weights from
     * their version-keyed WeightPlan caches (fake-quantized and
     * encoded once on the backend, reused across steps) and skip
     * writing the backward caches. Results are bit-identical either
     * way — stream-addressed products are pure functions of
     * (operands, config, stream) — but calling backward() on caches
     * written under this flag is invalid. Set by InferenceSession and
     * the serve layer; the *Batch serving entry points are
     * inference-only by contract and use plans regardless.
     */
    bool inference = false;
};

/** Callback type used to expose (parameter, gradient) pairs. */
using ParamVisitor = std::function<void(Matrix &, Matrix &)>;

/**
 * Version-keyed cache of encoded static-weight operands ("weight
 * plans"). A plan is the once-per-weight-version result of
 * fake-quantizing a layer weight and encoding it on a backend
 * (GemmBackend::encodeWeight): beta + DAC-quantized values in the
 * packed tile layout. Keyed by (backend identity, fakeQuant weight
 * width, weight version) — a Trainer weight update bumps the layer's
 * version (see Linear::visitParams), so the next inference fetch
 * re-encodes instead of serving a stale plan. Backends are identified
 * by their process-unique uid (not their address), so a cache can
 * never hand a plan encoded for a destroyed backend to a new one
 * reusing its storage; the entry list is capped (oldest evicted), so
 * transient backends cannot grow it without bound.
 *
 * Thread-safe (concurrent batch samples share one layer). Copying or
 * moving a layer does not copy its plans — they re-materialize on
 * first use against whatever backend the copy runs on.
 */
class WeightPlanCache
{
  public:
    WeightPlanCache() = default;
    WeightPlanCache(const WeightPlanCache &) noexcept {}
    WeightPlanCache(WeightPlanCache &&) noexcept {}
    WeightPlanCache &
    operator=(const WeightPlanCache &) noexcept
    {
        clear();
        return *this;
    }
    WeightPlanCache &
    operator=(WeightPlanCache &&) noexcept
    {
        clear();
        return *this;
    }

    /**
     * Return the plan for (backend, bits, version), calling
     * materialize() for the (fake-quantized) dense weight and
     * encoding it on the backend only on a miss. `bits` is the
     * fakeQuant weight width, or -1 when quantization is disabled.
     * Hit/miss lands on the backend's GemmStats weight_encode_*
     * counters (misses via encodeWeight, hits when the returned plan
     * is executed).
     */
    std::shared_ptr<const core::EncodedOperand>
    fetch(GemmBackend &backend, int bits, uint64_t version,
          const std::function<Matrix()> &materialize);

    void clear();

  private:
    /** Distinct (backend, width) pairs to retain; oldest evicted. */
    static constexpr size_t kMaxEntries = 4;

    struct Entry
    {
        uint64_t backend_uid;
        int bits;
        uint64_t version;
        std::shared_ptr<const core::EncodedOperand> plan;
    };

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
};

/** Fully-connected layer Y = X W + b. */
class Linear
{
  public:
    Linear(size_t in, size_t out, Rng &rng, bool bias = true);

    Matrix forward(const Matrix &x, LinearCache &cache,
                   RunContext &ctx) const;
    Matrix backward(const Matrix &dy, const LinearCache &cache);

    /**
     * Serving entry point: run xs[i] through this layer under
     * ctxs[i]'s quantization and noise lane, with the N products fused
     * into ONE stream-addressed gemmBatch on the shared backend.
     * Result i is bit-identical to forward(xs[i], cache, *ctxs[i])
     * (stream-addressed products are pure functions of (operands,
     * config, stream), so fusing never changes values). Each ctx draws
     * exactly one stream id, in index order — the same draw the solo
     * forward makes. Inference-only: no backward caches are written.
     * All ctxs must share one backend and one QuantConfig, so the
     * static weight is prepared once (one plan or one dense weight).
     */
    std::vector<Matrix>
    forwardBatch(const std::vector<Matrix> &xs,
                 const std::vector<RunContext *> &ctxs) const;

    void zeroGrad();

    /**
     * Expose (param, grad) pairs. Handing out mutable weight refs
     * counts as a weight update: the weight version is bumped, so
     * cached WeightPlans for the old values are invalidated (the
     * Trainer's optimizer step goes through here).
     */
    void visitParams(const ParamVisitor &fn);

    size_t inFeatures() const { return w_.rows(); }
    size_t outFeatures() const { return w_.cols(); }

    /** Mutable weight access bumps the version (plan invalidation). */
    Matrix &
    weight()
    {
        version_.fetch_add(1, std::memory_order_relaxed);
        return w_;
    }
    Matrix &
    bias()
    {
        version_.fetch_add(1, std::memory_order_relaxed);
        return b_;
    }

    /** Monotonic weight-version counter keying the plan cache. */
    uint64_t
    weightVersion() const
    {
        return version_.load(std::memory_order_relaxed);
    }

  private:
    /** Fetch (or build) this layer's weight plan for ctx's backend. */
    std::shared_ptr<const core::EncodedOperand>
    planFor(GemmBackend &backend, const QuantConfig &quant) const;

    void addBias(Matrix &y) const;

    Matrix w_;   ///< [in, out]
    Matrix b_;   ///< [1, out]
    Matrix dw_;
    Matrix db_;
    bool has_bias_;

    /**
     * Atomic so a weight update on one thread (checkpoint hot-reload,
     * optimizer step) and a concurrent inference thread's plan lookup
     * are an ordering question, not a data race: the reader sees
     * either the old or the new version, never a torn value.
     */
    std::atomic<uint64_t> version_{0};
    mutable WeightPlanCache plans_;
};

/** Per-row layer normalization with learned gamma/beta. */
class LayerNorm
{
  public:
    explicit LayerNorm(size_t dim, double eps = 1e-5);

    Matrix forward(const Matrix &x, LayerNormCache &cache) const;
    Matrix backward(const Matrix &dy, const LayerNormCache &cache);

    void zeroGrad();
    void visitParams(const ParamVisitor &fn);

  private:
    Matrix gamma_;  ///< [1, dim]
    Matrix beta_;   ///< [1, dim]
    Matrix dgamma_;
    Matrix dbeta_;
    double eps_;
};

/** GELU activation (stateless; the cache holds the forward input). */
class Gelu
{
  public:
    Matrix forward(const Matrix &x, GeluCache &cache) const;
    Matrix backward(const Matrix &dy, const GeluCache &cache) const;
};

/**
 * Multi-head self-attention (paper Eq. 2). The QK^T and AV products
 * are the *dynamic* matrix multiplies that motivate the whole paper;
 * they execute on the RunContext backend exactly like weight GEMMs.
 * With `causal`, token i attends only to tokens <= i (decoder mode) —
 * the configuration incremental decode requires.
 */
class MultiHeadSelfAttention
{
  public:
    MultiHeadSelfAttention(size_t dim, size_t heads, Rng &rng,
                           bool causal = false);

    Matrix forward(const Matrix &x, AttentionCache &cache,
                   RunContext &ctx) const;
    Matrix backward(const Matrix &dy, const AttentionCache &cache);

    /**
     * K/V-only forward, for a caller that keeps only the K/V: fills
     * cache.k / cache.v exactly as forward() does, through the same
     * code. The Q projection, QK^T, softmax, AV and WO are skipped;
     * their stream ids are claimed in forward()'s order (wq's before
     * wk's, then one per head for QK^T and for AV, then WO's), so ctx
     * leaves on the id forward() would leave it on.
     */
    void forwardKv(const Matrix &x, AttentionCache &cache,
                   RunContext &ctx) const;

    /**
     * Incremental decode — the one decode implementation. Runs one new
     * token row [1, dim] per request, each against its own K/V cache
     * and noise lane. Each row's K/V are appended to its cache's tail
     * (in the quantized domain the cache stores), and the per-head
     * QK^T / AV score and context rows run against the cache — the
     * skinny, memory-bound traffic of paper Section VI-B on the
     * engine.
     *
     * A request's context is its K/V parts in position order: the
     * mapped shared segment, if any, then the tail. QK^T and AV each
     * run as ONE gemmBatch over every (request, head, part) product,
     * on the parts' packed mirrors when all of them are encoded for
     * the backend and on dense views otherwise; one softmax row spans
     * all of a request's parts. Request i draws its streams in (head,
     * part) order, so result i and the mutation of kvs[i] are
     * bit-identical to a batch holding request i alone — the
     * continuous-batching correctness contract. Requires causal
     * attention (the cache only holds the past); all ctxs must share
     * one backend.
     */
    std::vector<Matrix>
    decodeStepBatch(const std::vector<Matrix> &xs,
                    const std::vector<AttentionKvCache *> &kvs,
                    const std::vector<RunContext *> &ctxs) const;

    /**
     * Ingest step, for rows whose attention output nobody reads: the
     * K/V half of decodeStepBatch(). Each row's K/V are appended to
     * its tail, dense and packed mirrors, by the code decodeStepBatch()
     * runs, so kvs[i] ends bit-identical to the full step's. The Q
     * projection, QK^T, softmax, AV and WO are skipped; request i
     * claims their stream ids in the full step's order (wq's before
     * wk's, then two per (head, part) and WO's). Validates and throws
     * as decodeStepBatch() does.
     */
    void ingestStepBatch(const std::vector<Matrix> &xs,
                         const std::vector<AttentionKvCache *> &kvs,
                         const std::vector<RunContext *> &ctxs) const;

    /**
     * Seed a K/V segment — a session's tail or a shared prefix — from
     * a forward's caches (the per-head quantized K/V the forward
     * already materialized) and, when the backend executes encoded
     * K/V operands, build the encoded mirrors up front (2 * heads
     * kv_encode misses, paid here so steady-state decode performs
     * zero K/V encodes). On other backends the encoded mirrors are
     * dropped.
     */
    void seedKvCache(const AttentionCache &cache, KvLayerSegment &seg,
                     GemmBackend &backend) const;

    void zeroGrad();
    void visitParams(const ParamVisitor &fn);

    size_t heads() const { return heads_; }
    size_t headDim() const { return dk_; }
    bool causal() const { return causal_; }

  private:
    /**
     * The K/V half of forward() and forwardKv(): the wk and wv
     * projections, sliced per head and quantized into cache.k /
     * cache.v.
     */
    void projectKv(const Matrix &x, AttentionCache &cache,
                   RunContext &ctx) const;

    /**
     * Validate a decode batch and return each request's K/V parts in
     * position order: the mapped shared segment, if any, then the
     * tail.
     */
    std::vector<std::vector<const KvLayerSegment *>>
    decodeParts(const std::vector<Matrix> &xs,
                const std::vector<AttentionKvCache *> &kvs,
                const std::vector<RunContext *> &ctxs) const;

    /**
     * The K/V half of decodeStepBatch() and ingestStepBatch(): the wk
     * and wv projections fused across the requests, then each row's
     * per-head K/V, quantized, appended to its tail (an amortized
     * O(dk) row write per dense mirror and, on encoded-operand
     * backends, an O(dk) packed append per encoded one).
     */
    void appendKvBatch(const std::vector<Matrix> &xs,
                       const std::vector<AttentionKvCache *> &kvs,
                       const std::vector<RunContext *> &ctxs) const;

    /**
     * Activate (or deactivate) seg's encoded mirrors for `backend`:
     * sizes the per-head operand vectors and re-homes them when the
     * segment last ran on a different backend. Returns whether encoded
     * dispatch is in effect.
     */
    bool prepareKvEncoded(KvLayerSegment &seg,
                          GemmBackend &backend) const;

    /**
     * Bring head h of kv's tail encoded mirrors up to date after the
     * dense appends of one token: the O(dk) packed append when the
     * cached beta still covers the new row, a full (counted) rebuild —
     * requantization in place — when it does not or the mirror is
     * out of sync.
     */
    void syncKvEncodedHead(AttentionKvCache &kv, size_t h,
                           const Matrix &k_row, const Matrix &v_row,
                           GemmBackend &backend) const;

    size_t dim_;
    size_t heads_;
    size_t dk_;
    bool causal_;
    Linear wq_, wk_, wv_, wo_;
};

/** Feed-forward network: Linear -> GELU -> Linear. */
class FeedForward
{
  public:
    FeedForward(size_t dim, size_t hidden, Rng &rng);

    Matrix forward(const Matrix &x, FeedForwardCache &cache,
                   RunContext &ctx) const;
    Matrix backward(const Matrix &dy, const FeedForwardCache &cache);

    /**
     * Serving entry point: xs[i] under ctxs[i], both projections fused
     * across requests (one gemmBatch per Linear). Bit-identical per
     * request to the solo forward; inference-only.
     */
    std::vector<Matrix>
    forwardBatch(const std::vector<Matrix> &xs,
                 const std::vector<RunContext *> &ctxs) const;

    void zeroGrad();
    void visitParams(const ParamVisitor &fn);

  private:
    Linear fc1_;
    Gelu act_;
    Linear fc2_;
};

/**
 * Pre-LN encoder block (paper Eq. 1):
 *   x' = x + MHA(LN(x));  y = x' + FFN(LN(x')).
 */
class TransformerBlock
{
  public:
    TransformerBlock(size_t dim, size_t heads, size_t mlp_hidden,
                     Rng &rng, bool causal = false);

    Matrix forward(const Matrix &x, TransformerBlockCache &cache,
                   RunContext &ctx) const;
    Matrix backward(const Matrix &dy,
                    const TransformerBlockCache &cache);

    /**
     * Incremental decode of one token row per request (see
     * MultiHeadSelfAttention::decodeStepBatch): LayerNorms and
     * residuals run row-wise per request — on the single new row they
     * match the full-sequence forward exactly — and every projection
     * fuses across requests. Bit-identical per request to a batch of
     * one.
     */
    std::vector<Matrix>
    decodeStepBatch(const std::vector<Matrix> &xs,
                    const std::vector<AttentionKvCache *> &kvs,
                    const std::vector<RunContext *> &ctxs) const;

    /**
     * K/V-only forward (MultiHeadSelfAttention::forwardKv): LN1 and
     * the attention's K/V. LN2 and the FFN are skipped; fc1's and
     * fc2's stream ids are claimed.
     */
    void forwardKv(const Matrix &x, TransformerBlockCache &cache,
                   RunContext &ctx) const;

    /**
     * Ingest step (MultiHeadSelfAttention::ingestStepBatch): LN1 and
     * the K/V append. The residuals, LN2 and the FFN are skipped;
     * fc1's and fc2's stream ids are claimed.
     */
    void ingestStepBatch(const std::vector<Matrix> &xs,
                         const std::vector<AttentionKvCache *> &kvs,
                         const std::vector<RunContext *> &ctxs) const;

    const MultiHeadSelfAttention &attention() const { return attn_; }

    void zeroGrad();
    void visitParams(const ParamVisitor &fn);

  private:
    LayerNorm ln1_;
    MultiHeadSelfAttention attn_;
    LayerNorm ln2_;
    FeedForward ffn_;
};

/** Learned token-id embedding table (BERT-substitute input path). */
class TokenEmbedding
{
  public:
    TokenEmbedding(size_t vocab, size_t dim, Rng &rng);

    /**
     * Look up a token sequence -> [seq, dim]. Ids outside the
     * vocabulary throw std::invalid_argument.
     */
    Matrix forward(const std::vector<int> &tokens,
                   TokenEmbeddingCache &cache) const;

    /** Single-token lookup -> [1, dim] (incremental decode). */
    Matrix embedRow(int token) const;

    void backward(const Matrix &dy, const TokenEmbeddingCache &cache);

    void zeroGrad();
    void visitParams(const ParamVisitor &fn);

    size_t vocabSize() const { return table_.rows(); }

  private:
    Matrix table_;  ///< [vocab, dim]
    Matrix dtable_;
};

} // namespace nn
} // namespace lt

#endif // LT_NN_LAYERS_HH
