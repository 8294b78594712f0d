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

#include <algorithm>
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
 * Growing K/V operands of one attention layer for incremental decode.
 * Values live in the same (quantized) domain the attention forward
 * caches: what the accelerator would hold in its KV SRAM/HBM.
 *
 * Both dense mirrors are row-major [tokens, dk] per head, so a decode
 * step appends one token as one amortized-O(dk) row write to each —
 * the QK^T dispatch reads K through a *transposed view*
 * (ConstMatrixView), so no pre-transposed copy is re-strided per
 * step.
 *
 * When the serving backend executes encoded operands
 * (GemmBackend::supportsKvPlans()), the cache additionally holds the
 * *encoded* forms the DPTC kernel actually consumes: per-head packed
 * K^T ([dk, tokens], growing by one packed column per token) and
 * packed V ([tokens, dk], growing by one packed row). The attention
 * decode path (decodeStepBatch) keeps them in sync with the dense
 * mirrors and dispatches on them directly — zero per-step K/V
 * re-encodes in steady state; the dense mirrors remain the
 * requantization source when a new token's magnitude outgrows the
 * cached beta, and the operands of record for backends without
 * encoded execution.
 */
/**
 * Immutable, shareable K/V of one attention layer over a fixed token
 * range — the per-layer payload of a shared prompt prefix (see
 * nn::KvPrefix / serve::KvBlockPool). A segment is computed once by a
 * full forward over exactly its tokens on a content-addressed noise
 * lane, so its values are a pure function of (model weights, backend
 * config, tokens): every request mapping the same prefix — and every
 * recompute after eviction — reads bit-identical K/V. Requests attach
 * a segment to their AttentionKvCache via shared_ptr (the
 * copy-on-write rule: segments are never mutated; a request's own
 * tokens append to the cache's private tail mirrors instead).
 */
struct KvLayerSegment
{
    size_t tokens = 0;      ///< prefix length this segment covers

    std::vector<Matrix> k;  ///< per head [tokens, dk], quantized domain
    std::vector<Matrix> v;  ///< per head [tokens, dk]

    /**
     * Encoded mirrors (packed K^T / V per head), built once at segment
     * construction when the backend executes encoded operands; empty
     * otherwise. Read-only thereafter — shared dispatch never
     * re-encodes a prefix.
     */
    std::vector<core::EncodedOperand> ek_t;  ///< per head [dk, tokens]
    std::vector<core::EncodedOperand> ev;    ///< per head [tokens, dk]

    /** GemmBackend::uid() the encoded mirrors target (0 = none). */
    uint64_t encoded_backend_uid = 0;
};

struct AttentionKvCache
{
    std::vector<Matrix> k;  ///< per head [tokens, dk]
    std::vector<Matrix> v;  ///< per head [tokens, dk]
    size_t tokens = 0;      ///< cached context length (private tail)

    /**
     * Optional shared prefix preceding the private tail: attention
     * decode reads the first sharedTokens() positions of the context
     * from this immutable segment (QK^T and AV each split into a
     * segment product plus a tail product; one softmax spans both) and
     * appends new tokens to the private mirrors above. Null for the
     * default non-paged path, which this struct then serves exactly as
     * before — segment-aware dispatch is opt-in per request.
     */
    std::shared_ptr<const KvLayerSegment> segment;

    /** Tokens contributed by the shared prefix segment (0 = none). */
    size_t
    sharedTokens() const
    {
        return segment ? segment->tokens : 0;
    }

    /** Full attention context length: shared prefix + private tail. */
    size_t
    contextTokens() const
    {
        return sharedTokens() + tokens;
    }

    /** Context length reserve() provisioned for (0 = unreserved). */
    size_t reserved_tokens = 0;

    /**
     * Encoded mirrors, maintained by the attention decode path when
     * the backend supports them (empty otherwise): packed K^T / V of
     * every head, in the backend's core geometry.
     */
    std::vector<core::EncodedOperand> ek_t;  ///< per head [dk, tokens]
    std::vector<core::EncodedOperand> ev;    ///< per head [tokens, dk]

    /**
     * GemmBackend::uid() the encoded mirrors were built for (0 =
     * inactive). A cache handed to a different backend rebuilds its
     * mirrors on the next decode step instead of dispatching
     * encodings packed for foreign core geometry.
     */
    uint64_t encoded_backend_uid = 0;

    /**
     * Reserve backing capacity for a context of `max_tokens` so every
     * decode step appends allocation-free: the dense K/V mirrors grow
     * rows in amortized O(1) inside reserved vectors, and the encoded
     * mirrors pre-size their packed-block storage (k-tile stride
     * included), so the block backing pointers stay stable across the
     * whole decode. InferenceSession calls this once per layer at
     * prefill (the caches must already hold the seeded heads).
     */
    void
    reserve(size_t max_tokens)
    {
        reserved_tokens = std::max(reserved_tokens, max_tokens);
        for (Matrix &k_h : k)
            k_h.reserve(max_tokens * k_h.cols());
        for (Matrix &v_h : v)
            v_h.reserve(max_tokens * v_h.cols());
        for (core::EncodedOperand &e : ek_t)
            e.reserve(e.rows(), max_tokens);
        for (core::EncodedOperand &e : ev)
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
