#include "transformer.hh"

#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace lt {
namespace nn {

TransformerClassifier::TransformerClassifier(const TransformerConfig &cfg)
    : cfg_(cfg), init_rng_(cfg.seed),
      cls_(1, cfg.dim), dcls_(1, cfg.dim, 0.0),
      pos_(cfg.max_tokens, cfg.dim), dpos_(cfg.max_tokens, cfg.dim, 0.0),
      final_ln_(cfg.dim),
      head_(cfg.dim, cfg.num_classes, init_rng_)
{
    if ((cfg.patch_dim > 0) == (cfg.vocab_size > 0))
        lt_fatal("TransformerConfig must set exactly one of patch_dim "
                 "(vision) or vocab_size (sequence)");
    if (cfg.causal && cfg.pooling == Pooling::ClsToken)
        lt_fatal("causal attention is incompatible with ClsToken "
                 "pooling (a front CLS token sees nothing under the "
                 "mask); use Mean or LastToken");
    if (cfg.patch_dim > 0)
        patch_embed_.emplace(cfg.patch_dim, cfg.dim, init_rng_);
    else
        token_embed_.emplace(cfg.vocab_size, cfg.dim, init_rng_);

    for (double &v : cls_.data())
        v = init_rng_.gaussian(0.0, 0.02);
    for (double &v : pos_.data())
        v = init_rng_.gaussian(0.0, 0.02);

    blocks_.reserve(cfg.depth);
    for (size_t i = 0; i < cfg.depth; ++i) {
        blocks_.push_back(std::make_unique<TransformerBlock>(
            cfg.dim, cfg.heads, cfg.mlp_hidden, init_rng_,
            cfg.causal));
    }
}

Matrix
TransformerClassifier::positioned(Matrix x, ActivationWorkspace &ws) const
{
    const bool use_cls = cfg_.pooling == Pooling::ClsToken;
    size_t tokens = x.rows() + (use_cls ? 1 : 0);
    if (tokens == 0)
        throw std::invalid_argument("forward on an empty sequence");
    if (tokens > cfg_.max_tokens)
        throw std::invalid_argument(
            "sequence of " + std::to_string(tokens) +
            " tokens exceeds the positional table (max_tokens = " +
            std::to_string(cfg_.max_tokens) + ")");
    Matrix seq(tokens, cfg_.dim);
    size_t offset = 0;
    if (use_cls) {
        for (size_t c = 0; c < cfg_.dim; ++c)
            seq(0, c) = cls_(0, c);
        offset = 1;
    }
    for (size_t r = 0; r < x.rows(); ++r)
        for (size_t c = 0; c < cfg_.dim; ++c)
            seq(r + offset, c) = x(r, c);
    for (size_t r = 0; r < tokens; ++r)
        for (size_t c = 0; c < cfg_.dim; ++c)
            seq(r, c) += pos_(r, c);

    ws.tokens = tokens;
    if (ws.blocks.size() != blocks_.size())
        ws.blocks.resize(blocks_.size());
    return seq;
}

Matrix
TransformerClassifier::forwardCommon(Matrix x, ActivationWorkspace &ws,
                                     RunContext &ctx) const
{
    Matrix seq = positioned(std::move(x), ws);
    const size_t tokens = seq.rows();
    for (size_t i = 0; i < blocks_.size(); ++i)
        seq = blocks_[i]->forward(seq, ws.blocks[i], ctx);
    Matrix normed = final_ln_.forward(seq, ws.final_ln);
    ws.pooled_in = normed;

    Matrix pooled(1, cfg_.dim);
    switch (cfg_.pooling) {
    case Pooling::ClsToken:
        for (size_t c = 0; c < cfg_.dim; ++c)
            pooled(0, c) = normed(0, c);
        break;
    case Pooling::Mean:
        for (size_t c = 0; c < cfg_.dim; ++c) {
            double s = 0.0;
            for (size_t r = 0; r < tokens; ++r)
                s += normed(r, c);
            pooled(0, c) = s / static_cast<double>(tokens);
        }
        break;
    case Pooling::LastToken:
        for (size_t c = 0; c < cfg_.dim; ++c)
            pooled(0, c) = normed(tokens - 1, c);
        break;
    }
    return head_.forward(pooled, ws.head, ctx);
}

Matrix
TransformerClassifier::forwardVision(const Matrix &patches,
                                     ActivationWorkspace &ws,
                                     RunContext &ctx) const
{
    if (!patch_embed_)
        lt_fatal("forwardVision called on a sequence-mode model");
    if (patches.rows() == 0)
        throw std::invalid_argument("forward on an empty patch set");
    if (patches.cols() != cfg_.patch_dim)
        throw std::invalid_argument(
            "patch width " + std::to_string(patches.cols()) +
            " != configured patch_dim " +
            std::to_string(cfg_.patch_dim));
    ws.last_was_vision = true;
    Matrix x = patch_embed_->forward(patches, ws.patch_embed, ctx);
    return forwardCommon(std::move(x), ws, ctx);
}

Matrix
TransformerClassifier::forwardSequence(const std::vector<int> &tokens,
                                       ActivationWorkspace &ws,
                                       RunContext &ctx) const
{
    if (!token_embed_)
        lt_fatal("forwardSequence called on a vision-mode model");
    if (tokens.empty())
        throw std::invalid_argument("forward on an empty sequence");
    ws.last_was_vision = false;
    Matrix x = token_embed_->forward(tokens, ws.token_embed);
    return forwardCommon(std::move(x), ws, ctx);
}

void
TransformerClassifier::forwardSequenceKv(const std::vector<int> &tokens,
                                         ActivationWorkspace &ws,
                                         RunContext &ctx) const
{
    ws.last_was_vision = false;
    Matrix seq =
        positioned(token_embed_->forward(tokens, ws.token_embed), ws);
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (i + 1 < blocks_.size())
            seq = blocks_[i]->forward(seq, ws.blocks[i], ctx);
        else
            blocks_[i]->forwardKv(seq, ws.blocks[i], ctx);
    }
    ctx.stream.skip(1); // the head, after the skipped final LN
}

namespace {

/**
 * Run `n` independent samples concurrently on the global pool, giving
 * sample i the NoiseStream lane i of a base stream consumed from the
 * caller's context. Exceptions (e.g. validation failures) are captured
 * on the worker and rethrown on the caller.
 */
template <typename RunSample>
void
parallelSamples(size_t n, RunContext &ctx, RunSample &&run)
{
    NoiseStream lanes(ctx.stream.next());
    std::mutex error_mutex;
    std::exception_ptr error;
    ThreadPool::global().parallelForEach(n, [&](size_t i) {
        try {
            RunContext sample_ctx{ctx.backend, ctx.quant,
                                  lanes.lane(i), ctx.inference};
            run(i, sample_ctx);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!error)
                error = std::current_exception();
        }
    });
    if (error)
        std::rethrow_exception(error);
}

} // namespace

std::vector<Matrix>
TransformerClassifier::forwardVisionBatch(
    const std::vector<const Matrix *> &batch, RunContext &ctx) const
{
    std::vector<Matrix> logits(batch.size());
    parallelSamples(batch.size(), ctx,
                    [&](size_t i, RunContext &sample_ctx) {
                        ActivationWorkspace ws;
                        logits[i] = forwardVision(*batch[i], ws,
                                                  sample_ctx);
                    });
    return logits;
}

std::vector<Matrix>
TransformerClassifier::forwardVisionBatch(
    const std::vector<Matrix> &batch, RunContext &ctx) const
{
    std::vector<const Matrix *> ptrs;
    ptrs.reserve(batch.size());
    for (const Matrix &m : batch)
        ptrs.push_back(&m);
    return forwardVisionBatch(ptrs, ctx);
}

std::vector<Matrix>
TransformerClassifier::forwardSequenceBatch(
    const std::vector<const std::vector<int> *> &batch,
    RunContext &ctx) const
{
    std::vector<Matrix> logits(batch.size());
    parallelSamples(batch.size(), ctx,
                    [&](size_t i, RunContext &sample_ctx) {
                        ActivationWorkspace ws;
                        logits[i] = forwardSequence(*batch[i], ws,
                                                    sample_ctx);
                    });
    return logits;
}

std::vector<Matrix>
TransformerClassifier::forwardSequenceBatch(
    const std::vector<std::vector<int>> &batch, RunContext &ctx) const
{
    std::vector<const std::vector<int> *> ptrs;
    ptrs.reserve(batch.size());
    for (const auto &tokens : batch)
        ptrs.push_back(&tokens);
    return forwardSequenceBatch(ptrs, ctx);
}

void
TransformerClassifier::backward(const Matrix &dlogits,
                                const ActivationWorkspace &ws)
{
    const size_t tokens = ws.tokens;
    Matrix dpooled = head_.backward(dlogits, ws.head);

    Matrix dnormed(tokens, cfg_.dim, 0.0);
    switch (cfg_.pooling) {
    case Pooling::ClsToken:
        for (size_t c = 0; c < cfg_.dim; ++c)
            dnormed(0, c) = dpooled(0, c);
        break;
    case Pooling::Mean: {
        double inv_n = 1.0 / static_cast<double>(tokens);
        for (size_t r = 0; r < tokens; ++r)
            for (size_t c = 0; c < cfg_.dim; ++c)
                dnormed(r, c) = dpooled(0, c) * inv_n;
        break;
    }
    case Pooling::LastToken:
        for (size_t c = 0; c < cfg_.dim; ++c)
            dnormed(tokens - 1, c) = dpooled(0, c);
        break;
    }

    Matrix dseq = final_ln_.backward(dnormed, ws.final_ln);
    for (size_t i = blocks_.size(); i-- > 0;)
        dseq = blocks_[i]->backward(dseq, ws.blocks[i]);

    // Positional gradients over all tokens.
    for (size_t r = 0; r < tokens; ++r)
        for (size_t c = 0; c < cfg_.dim; ++c)
            dpos_(r, c) += dseq(r, c);

    size_t offset = 0;
    if (cfg_.pooling == Pooling::ClsToken) {
        for (size_t c = 0; c < cfg_.dim; ++c)
            dcls_(0, c) += dseq(0, c);
        offset = 1;
    }
    Matrix dx(tokens - offset, cfg_.dim);
    for (size_t r = 0; r < dx.rows(); ++r)
        for (size_t c = 0; c < cfg_.dim; ++c)
            dx(r, c) = dseq(r + offset, c);

    if (ws.last_was_vision)
        patch_embed_->backward(dx, ws.patch_embed);
    else
        token_embed_->backward(dx, ws.token_embed);
}

void
TransformerClassifier::zeroGrad()
{
    if (patch_embed_)
        patch_embed_->zeroGrad();
    if (token_embed_)
        token_embed_->zeroGrad();
    for (double &v : dcls_.data())
        v = 0.0;
    for (double &v : dpos_.data())
        v = 0.0;
    for (auto &b : blocks_)
        b->zeroGrad();
    final_ln_.zeroGrad();
    head_.zeroGrad();
}

void
TransformerClassifier::visitParams(const ParamVisitor &fn)
{
    if (patch_embed_)
        patch_embed_->visitParams(fn);
    if (token_embed_)
        token_embed_->visitParams(fn);
    if (cfg_.pooling == Pooling::ClsToken)
        fn(cls_, dcls_);
    fn(pos_, dpos_);
    for (auto &b : blocks_)
        b->visitParams(fn);
    final_ln_.visitParams(fn);
    head_.visitParams(fn);
}

size_t
TransformerClassifier::numParams()
{
    size_t total = 0;
    visitParams([&](Matrix &w, Matrix &) { total += w.data().size(); });
    return total;
}

} // namespace nn
} // namespace lt
