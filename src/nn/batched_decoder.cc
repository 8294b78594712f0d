#include "batched_decoder.hh"

#include <stdexcept>
#include <string>

#include "obs/trace.hh"

namespace lt {
namespace nn {

std::vector<Matrix>
BatchedDecoder::step(const std::vector<InferenceSession *> &sessions,
                     const std::vector<int> &tokens)
{
    return advance(sessions, tokens, /*logits_read=*/true);
}

void
BatchedDecoder::ingest(const std::vector<InferenceSession *> &sessions,
                       const std::vector<int> &tokens)
{
    advance(sessions, tokens, /*logits_read=*/false);
}

std::vector<Matrix>
BatchedDecoder::advance(const std::vector<InferenceSession *> &sessions,
                        const std::vector<int> &tokens, bool logits_read)
{
    const size_t n = sessions.size();
    if (n == 0)
        throw std::invalid_argument(
            "BatchedDecoder::step on an empty batch");
    if (tokens.size() != n)
        throw std::invalid_argument(
            "BatchedDecoder::step: " + std::to_string(tokens.size()) +
            " tokens for " + std::to_string(n) + " sessions");

    // Validate everything BEFORE mutating any session: a failed batch
    // must not leave some K/V caches advanced and others not.
    const TransformerClassifier *model = nullptr;
    GemmBackend *backend = nullptr;
    for (size_t i = 0; i < n; ++i) {
        InferenceSession *s = sessions[i];
        if (s == nullptr)
            throw std::invalid_argument(
                "BatchedDecoder::step: null session");
        for (size_t j = 0; j < i; ++j)
            if (sessions[j] == s)
                throw std::invalid_argument(
                    "BatchedDecoder::step: session appears twice in "
                    "one batch (it would decode two tokens at once)");
        if (i == 0) {
            model = s->model_;
            backend = s->ctx_.backend;
        } else if (s->model_ != model) {
            throw std::invalid_argument(
                "BatchedDecoder::step: all sessions must share one "
                "model (the fused projections read one weight set)");
        } else if (s->ctx_.backend != backend) {
            throw std::invalid_argument(
                "BatchedDecoder::step: all sessions must share one "
                "backend");
        } else if (s->ctx_.quant != sessions[0]->ctx_.quant) {
            throw std::invalid_argument(
                "BatchedDecoder::step: all sessions must share one "
                "QuantConfig (the fused projections prepare one "
                "weight)");
        }
        if (s->len_ + 1 > model->config().max_tokens)
            throw std::invalid_argument(
                "BatchedDecoder::step: session " + std::to_string(i) +
                " would decode past the positional table: context of " +
                std::to_string(s->len_ + 1) + " tokens exceeds "
                "max_tokens = " +
                std::to_string(model->config().max_tokens));
    }
    const TransformerConfig &cfg = model->config();
    // Only a LastToken ingest skips work: Mean pooling's running sum
    // needs every row's final LN.
    const bool full = logits_read || cfg.pooling == Pooling::Mean;

    obs::TraceScope span("decoder/step", obs::kNoRequest, "batch",
                         static_cast<int64_t>(n), "layers",
                         static_cast<int64_t>(model->depth()));

    // Embed each request's new token at ITS position (identical to
    // the row the full-sequence forward builds).
    std::vector<Matrix> xs(n);
    std::vector<RunContext *> ctxs(n);
    for (size_t i = 0; i < n; ++i) {
        InferenceSession &s = *sessions[i];
        xs[i] = model->token_embed_->embedRow(tokens[i]);
        for (size_t c = 0; c < cfg.dim; ++c)
            xs[i](0, c) += model->pos_(s.len_, c);
        ctxs[i] = &s.ctx_;
    }

    // Lockstep through the layers: every projection and both dynamic
    // attention products fuse the N requests into one gemmBatch. An
    // ingest's last layer only appends its K/V: nothing reads that
    // layer's output but the head.
    std::vector<AttentionKvCache *> kvs(n);
    for (size_t l = 0; l < model->depth(); ++l) {
        for (size_t i = 0; i < n; ++i)
            kvs[i] = &sessions[i]->kv_[l];
        if (full || l + 1 < model->depth())
            xs = model->block(l).decodeStepBatch(xs, kvs, ctxs);
        else
            model->block(l).ingestStepBatch(xs, kvs, ctxs);
    }

    // Final LN + pooling per request (row-wise), then the LM head as
    // one fused batch. Mean pooling keeps a running row sum and
    // divides (not multiplies by a reciprocal): bit-matches the
    // full-sequence mean pooling. An ingest claims the head's id.
    std::vector<Matrix> logits;
    if (full) {
        LayerNormCache ln_scratch;
        std::vector<Matrix> pooled(n);
        for (size_t i = 0; i < n; ++i) {
            InferenceSession &s = *sessions[i];
            Matrix normed = model->final_ln_.forward(xs[i], ln_scratch);
            if (cfg.pooling == Pooling::Mean) {
                if (s.len_ == 0)
                    s.pooled_sum_ = Matrix(1, cfg.dim, 0.0);
                pooled[i] = Matrix(1, cfg.dim);
                for (size_t c = 0; c < cfg.dim; ++c) {
                    s.pooled_sum_(0, c) += normed(0, c);
                    pooled[i](0, c) = s.pooled_sum_(0, c) /
                                      static_cast<double>(s.len_ + 1);
                }
            } else {
                pooled[i] = std::move(normed);
            }
        }
        logits = model->head_.forwardBatch(pooled, ctxs);
    } else {
        for (RunContext *ctx : ctxs)
            ctx->stream.skip(1);
    }

    for (size_t i = 0; i < n; ++i) {
        sessions[i]->tokens_.push_back(tokens[i]);
        sessions[i]->len_ += 1;
    }
    return logits;
}

} // namespace nn
} // namespace lt
