/**
 * @file
 * Per-request activation caches for the stateless inference API.
 *
 * Every layer used to stash its forward activations in member fields,
 * which made a model object stateful: two samples could not be in
 * flight at once, and `forward*Batch` had to stream samples
 * sequentially. This header factors all of those caches into plain
 * structs owned by the *caller*:
 *
 *  - a forward pass is a pure function of (weights, input, workspace):
 *    it writes only the workspace it was handed, so one weight set can
 *    serve N concurrent requests with N workspaces;
 *  - training keeps manual backprop by owning one workspace and
 *    passing it to forward and then backward;
 *  - `InferenceSession` (nn/inference_session.hh) owns a workspace
 *    plus a growing per-layer K/V cache for autoregressive decode.
 *
 * The structs mirror the module tree of TransformerClassifier. They
 * are cheap to default-construct; matrices are (re)shaped on first
 * use, so one workspace can be reused across samples of different
 * lengths.
 */

#ifndef LT_NN_ACTIVATION_WORKSPACE_HH
#define LT_NN_ACTIVATION_WORKSPACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/encoded_operand.hh"
#include "util/linalg.hh"

namespace lt {
namespace nn {

/** Linear forward cache: quantized input and weight used by backward. */
struct LinearCache
{
    Matrix x;   ///< (fake-quantized) forward input
    Matrix wq;  ///< (fake-quantized) forward weight
};

/** LayerNorm forward cache. */
struct LayerNormCache
{
    Matrix xhat;                  ///< normalized activations
    std::vector<double> inv_std;  ///< per-row 1/sqrt(var + eps)
};

/** GELU forward cache. */
struct GeluCache
{
    Matrix x;  ///< pre-activation input
};

/** Token-embedding forward cache (which rows were gathered). */
struct TokenEmbeddingCache
{
    std::vector<int> tokens;
};

/** Multi-head self-attention forward caches (per head). */
struct AttentionCache
{
    LinearCache wq, wk, wv, wo;
    std::vector<Matrix> q;  ///< quantized per-head Q
    std::vector<Matrix> k;
    std::vector<Matrix> v;
    std::vector<Matrix> p;  ///< attention probabilities
};

/** Feed-forward (Linear -> GELU -> Linear) caches. */
struct FeedForwardCache
{
    LinearCache fc1, fc2;
    GeluCache act;
};

/** One encoder block's caches. */
struct TransformerBlockCache
{
    LayerNormCache ln1, ln2;
    AttentionCache attn;
    FeedForwardCache ffn;
};

/**
 * K/V operands of one attention layer over a token range — the one
 * store every K/V producer fills and every decode step reads, in the
 * quantized domain the attention forward caches (what the accelerator
 * would hold in its KV SRAM/HBM). A segment is either
 *
 *  - a **shared prefix** (nn::KvPrefix / serve::KvBlockPool), computed
 *    once by a full forward over exactly its tokens on a
 *    content-addressed noise lane: a pure function of (model weights,
 *    backend config, tokens), so every request that maps it — and
 *    every recompute after eviction — reads bit-identical K/V.
 *    Requests hold it as shared_ptr<const>, never mutating it (the
 *    copy-on-write rule); or
 *  - a request's **private tail** (AttentionKvCache::tail), which
 *    grows by one token per decode step.
 *
 * Both dense mirrors are row-major [tokens, dk] per head: an append is
 * one amortized-O(dk) row write to each, and QK^T reads K through a
 * transposed view (ConstMatrixView) instead of a re-strided copy.
 * When the backend executes encoded operands
 * (GemmBackend::supportsKvPlans()), MultiHeadSelfAttention::seedKvCache
 * also builds the packed forms the DPTC kernel consumes — per-head K^T
 * and V — and decode keeps a tail's packed mirrors in step with its
 * dense rows by O(dk) appends: zero per-step K/V re-encodes in steady
 * state. The dense mirrors remain the requantization source when a
 * token outgrows the cached beta, and the operands of record for
 * backends without encoded execution.
 */
struct KvLayerSegment
{
    size_t tokens = 0;      ///< token count this segment covers

    std::vector<Matrix> k;  ///< per head [tokens, dk], quantized domain
    std::vector<Matrix> v;  ///< per head [tokens, dk]

    /** Encoded mirrors (empty without encoded K/V execution). */
    std::vector<core::EncodedOperand> ek_t;  ///< per head [dk, tokens]
    std::vector<core::EncodedOperand> ev;    ///< per head [tokens, dk]

    /**
     * GemmBackend::uid() the encoded mirrors target (0 = none). Decode
     * dispatches on them only for that backend: a tail handed to a
     * different backend rebuilds its mirrors on the next step, and a
     * foreign-geometry prefix is read through its dense mirrors.
     */
    uint64_t encoded_backend_uid = 0;
};

/**
 * Decode K/V state of one attention layer for one request: the
 * context is the optional shared prefix `segment` followed by the
 * private `tail`. Attention decode appends each new token to the tail
 * and runs QK^T / AV over both parts, with one softmax spanning the
 * whole context — as a contiguous cache would. Without a segment (the
 * default non-paged path) the tail is the whole context.
 */
struct AttentionKvCache
{
    /** Shared prefix preceding the tail (null = none). */
    std::shared_ptr<const KvLayerSegment> segment;

    /** The request's own tokens: prompt (or suffix) + decoded. */
    KvLayerSegment tail;

    /** Tail length reserve() provisioned for (0 = unreserved). */
    size_t reserved_tokens = 0;

    /**
     * Reserve tail capacity for `max_tokens` so every decode step
     * appends allocation-free: the dense mirrors grow rows in
     * amortized O(1) inside reserved vectors, and the encoded mirrors
     * pre-size their packed-block storage (k-tile stride included), so
     * the block backing pointers stay stable across the whole decode.
     * MultiHeadSelfAttention::appendKvBatch applies reserved_tokens
     * right after a tail's first append (an append into an empty
     * Matrix replaces it); a seeded tail is reserved after seeding.
     */
    void
    reserve(size_t max_tokens)
    {
        reserved_tokens = max_tokens;
        for (Matrix &k_h : tail.k)
            k_h.reserve(max_tokens * k_h.cols());
        for (Matrix &v_h : tail.v)
            v_h.reserve(max_tokens * v_h.cols());
        for (core::EncodedOperand &e : tail.ek_t)
            e.reserve(e.rows(), max_tokens);
        for (core::EncodedOperand &e : tail.ev)
            e.reserve(max_tokens, e.cols());
    }
};

/**
 * All activation state of one TransformerClassifier forward pass.
 * Pass a fresh (or reused) workspace per request; pass the same
 * workspace to backward() to train.
 */
struct ActivationWorkspace
{
    LinearCache patch_embed;
    TokenEmbeddingCache token_embed;
    std::vector<TransformerBlockCache> blocks;
    LayerNormCache final_ln;
    LinearCache head;

    // Classifier-level bookkeeping (was TransformerClassifier state).
    size_t tokens = 0;       ///< token count incl. CLS
    Matrix pooled_in;        ///< final-LN output (pooling input)
    bool last_was_vision = false;
};

} // namespace nn
} // namespace lt

#endif // LT_NN_ACTIVATION_WORKSPACE_HH
