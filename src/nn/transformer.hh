/**
 * @file
 * A complete encoder-only Transformer classifier with manual backprop,
 * supporting both a vision input path (patch embedding, the DeiT
 * substitute) and a token-sequence input path (token embedding, the
 * BERT substitute), plus a causal decoder mode that InferenceSession
 * (nn/inference_session.hh) drives incrementally with a K/V cache.
 *
 * The forward API is stateless: every forward is a const, pure
 * function of (weights, input, workspace) — callers own the
 * ActivationWorkspace that holds the per-request caches, so one model
 * object serves many concurrent requests. `forward*Batch` exploits
 * that by running samples concurrently on the thread pool with one
 * workspace and one NoiseStream lane per sample; results are
 * bit-identical to the sequential per-sample reference at any thread
 * count. All GEMMs run on the RunContext backend, so the same trained
 * model can be evaluated on ideal arithmetic or on the noisy photonic
 * DPTC model (the paper's Fig. 14/15 methodology).
 */

#ifndef LT_NN_TRANSFORMER_HH
#define LT_NN_TRANSFORMER_HH

#include <memory>
#include <optional>
#include <vector>

#include "nn/activation_workspace.hh"
#include "nn/layers.hh"

namespace lt {
namespace nn {

class InferenceSession;
class BatchedDecoder;

/** How the final token representation is pooled for classification. */
enum class Pooling { ClsToken, Mean, LastToken };

/** Configuration of a (small) trainable Transformer classifier. */
struct TransformerConfig
{
    size_t dim = 32;
    size_t depth = 2;
    size_t heads = 2;
    size_t mlp_hidden = 64;
    size_t num_classes = 4;

    /** Token count the positional table covers (incl. CLS if used). */
    size_t max_tokens = 17;

    Pooling pooling = Pooling::ClsToken;

    /**
     * Causal (decoder) attention: token i attends only to j <= i.
     * Required for InferenceSession's incremental K/V-cache decode;
     * incompatible with ClsToken pooling (a front CLS token would see
     * nothing under the mask).
     */
    bool causal = false;

    /** Vision mode: flattened patch length (> 0 enables this path). */
    size_t patch_dim = 0;

    /** Sequence mode: vocabulary size (> 0 enables this path). */
    size_t vocab_size = 0;

    uint64_t seed = 0x5eed;
};

/** Encoder-only Transformer with a linear classification head. */
class TransformerClassifier
{
  public:
    explicit TransformerClassifier(const TransformerConfig &cfg);

    const TransformerConfig &config() const { return cfg_; }

    /**
     * Vision forward: patches is [num_patches, patch_dim]; returns
     * logits [1, num_classes]. Pure function of (weights, input,
     * workspace); throws std::invalid_argument when the patch count
     * exceeds the positional table (max_tokens) or the patch width
     * does not match the configuration.
     */
    Matrix forwardVision(const Matrix &patches,
                         ActivationWorkspace &ws,
                         RunContext &ctx) const;

    /**
     * Sequence forward: token ids -> logits [1, num_classes]. Throws
     * std::invalid_argument on too many tokens or out-of-vocab ids.
     */
    Matrix forwardSequence(const std::vector<int> &tokens,
                           ActivationWorkspace &ws,
                           RunContext &ctx) const;

    /**
     * Batched vision inference, genuinely parallel across samples:
     * each sample gets its own workspace and its own NoiseStream lane,
     * and the samples are sharded across the global thread pool (the
     * per-sample GEMMs then run inline on their shard). Equivalent, at
     * any thread count and bit-exactly, to the sequential reference
     *
     *   NoiseStream lanes(ctx.stream.next());
     *   for i: forwardVision(batch[i], fresh_ws,
     *            RunContext{ctx.backend, ctx.quant, lanes.lane(i)});
     *
     * Inference-only (workspaces are discarded).
     */
    std::vector<Matrix>
    forwardVisionBatch(const std::vector<const Matrix *> &batch,
                       RunContext &ctx) const;

    /** Convenience overload over owned matrices. */
    std::vector<Matrix>
    forwardVisionBatch(const std::vector<Matrix> &batch,
                       RunContext &ctx) const;

    /** Batched sequence inference (see forwardVisionBatch). */
    std::vector<Matrix> forwardSequenceBatch(
        const std::vector<const std::vector<int> *> &batch,
        RunContext &ctx) const;

    /** Convenience overload over owned token vectors. */
    std::vector<Matrix>
    forwardSequenceBatch(const std::vector<std::vector<int>> &batch,
                         RunContext &ctx) const;

    /**
     * Backward from dL/dlogits through the whole network, using the
     * caches the forward wrote into `ws`.
     */
    void backward(const Matrix &dlogits, const ActivationWorkspace &ws);

    void zeroGrad();
    void visitParams(const ParamVisitor &fn);

    /** Total scalar parameter count. */
    size_t numParams();

    size_t depth() const { return blocks_.size(); }
    const TransformerBlock &block(size_t i) const { return *blocks_[i]; }

  private:
    friend class InferenceSession;
    friend class BatchedDecoder;

    /** Prepend the CLS token (ClsToken pooling), add positions and
     *  size `ws`; throws std::invalid_argument on an empty or
     *  over-long sequence. */
    Matrix positioned(Matrix x, ActivationWorkspace &ws) const;

    Matrix forwardCommon(Matrix x, ActivationWorkspace &ws,
                         RunContext &ctx) const;

    /**
     * forwardSequence() cut to what a shared K/V prefix keeps: blocks
     * 0..depth-2 run in full and the last block runs forwardKv, so
     * `ws` holds every layer's K/V (the last layer's attention cache
     * holds only K/V) and no logits are made. Every skipped product,
     * the head included, claims its stream id, in forward order.
     */
    void forwardSequenceKv(const std::vector<int> &tokens,
                           ActivationWorkspace &ws,
                           RunContext &ctx) const;

    TransformerConfig cfg_;
    Rng init_rng_;

    std::optional<Linear> patch_embed_;
    std::optional<TokenEmbedding> token_embed_;
    Matrix cls_;   ///< [1, dim] learned CLS token
    Matrix dcls_;
    Matrix pos_;   ///< [max_tokens, dim] learned positions
    Matrix dpos_;

    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    LayerNorm final_ln_;
    Linear head_;
};

} // namespace nn
} // namespace lt

#endif // LT_NN_TRANSFORMER_HH
