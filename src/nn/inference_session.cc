#include "inference_session.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/batched_decoder.hh"
#include "obs/trace.hh"

namespace lt {
namespace nn {

namespace {

/** Session lanes live in their own family, apart from batch lanes. */
constexpr uint64_t kSessionLaneSalt = 0x5e55'10f7ULL;

/**
 * Shared-prefix lanes are content-addressed (lane index = token hash)
 * and live in their own family, decorrelated from both session and
 * batch lanes: computing a prefix never touches any request's draws.
 */
constexpr uint64_t kPrefixLaneSalt = 0x9e0f'11f5ULL;

/**
 * Context length a plan reserves K/V backing for: the request's own
 * budget (the serve layer's block accounting depends on it), capped at
 * the positional table; 0 = the whole table. Capacity only, never
 * values.
 */
size_t
reservedContext(const SessionKvPlan &plan, const TransformerConfig &cfg)
{
    return plan.reserve_tokens == 0
               ? cfg.max_tokens
               : std::min(plan.reserve_tokens, cfg.max_tokens);
}

/** Running final-LN row sum, in row order — matches the
 *  full-sequence mean pooling summation exactly. */
Matrix
pooledRowSum(const Matrix &pooled_in)
{
    Matrix sum(1, pooled_in.cols(), 0.0);
    for (size_t r = 0; r < pooled_in.rows(); ++r)
        for (size_t c = 0; c < pooled_in.cols(); ++c)
            sum(0, c) += pooled_in(r, c);
    return sum;
}

} // namespace

uint64_t
hashPrefixTokens(const std::vector<int> &tokens)
{
    // FNV-1a over the 32-bit token ids, matching the digest idiom the
    // golden-logit tests use.
    uint64_t h = 1469598103934665603ULL;
    for (int t : tokens) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(t));
        h *= 1099511628211ULL;
    }
    return h;
}

NoiseStream
prefixLane(const std::vector<int> &tokens)
{
    return NoiseStream(kPrefixLaneSalt).lane(hashPrefixTokens(tokens));
}

InferenceSession::InferenceSession(const TransformerClassifier &model,
                                   GemmBackend &backend,
                                   const QuantConfig &quant,
                                   uint64_t request_id)
    : model_(&model), request_id_(request_id),
      ctx_{&backend, quant,
           NoiseStream(kSessionLaneSalt).lane(request_id),
           /*inference=*/true}
{
    const TransformerConfig &cfg = model.config();
    if (cfg.vocab_size == 0)
        throw std::invalid_argument(
            "InferenceSession requires a sequence-mode model "
            "(vocab_size > 0)");
    if (!cfg.causal)
        throw std::invalid_argument(
            "InferenceSession requires causal attention "
            "(TransformerConfig::causal) — with bidirectional "
            "attention every new token would invalidate the K/V "
            "cache");
    if (cfg.pooling == Pooling::ClsToken)
        throw std::invalid_argument(
            "InferenceSession requires Mean or LastToken pooling");
    // Without a plan a tail reserves the whole positional table.
    kv_.resize(cfg.depth);
    for (AttentionKvCache &kv : kv_)
        kv.reserved_tokens = cfg.max_tokens;
}

Matrix
InferenceSession::prefill(const std::vector<int> &tokens,
                          const SessionKvPlan &plan)
{
    obs::TraceScope span(
        "session/prefill", request_id_, "prompt_tokens",
        static_cast<int64_t>(tokens.size()), "prefix_tokens",
        static_cast<int64_t>(plan.prefix ? plan.prefix->length() : 0));
    if (len_ != 0)
        throw std::invalid_argument(
            "prefill on a session that already holds " +
            std::to_string(len_) + " tokens");
    if (tokens.empty())
        throw std::invalid_argument("prefill with an empty prompt");
    // A shared prefix maps its segments copy-on-write and runs only
    // the suffix tokens: exactly one whole-prompt chunk.
    if (plan.prefix)
        return prefillChunk(tokens, 0, tokens.size(), plan);

    // One causal full-sequence forward over the prompt (validates the
    // token count and ids), then lift the per-head quantized K/V the
    // attention layers already materialized into the decode cache.
    const TransformerConfig &cfg = model_->config();
    Matrix logits = model_->forwardSequence(tokens, ws_, ctx_);
    const size_t reserve_tokens = reservedContext(plan, cfg);
    for (size_t l = 0; l < kv_.size(); ++l) {
        // Seed dense + (on encoded-operand backends) encoded K/V
        // mirrors: the per-head encodes are paid once here, so every
        // decode step appends instead of re-encoding. Then reserve the
        // context footprint once, so no decode step reallocates (or
        // re-strides) the cache storage.
        model_->block(l).attention().seedKvCache(
            ws_.blocks[l].attn, kv_[l].tail, *ctx_.backend);
        kv_[l].reserve(reserve_tokens);
    }
    if (cfg.pooling == Pooling::Mean)
        pooled_sum_ = pooledRowSum(ws_.pooled_in);

    tokens_ = tokens;
    len_ = tokens.size();
    return logits;
}

void
InferenceSession::mapPrefix(const std::vector<int> &tokens,
                            const SessionKvPlan &plan)
{
    const TransformerConfig &cfg = model_->config();
    const KvPrefix &prefix = *plan.prefix;
    const size_t p = prefix.length();
    if (p == 0 || prefix.layers.size() != kv_.size())
        throw std::invalid_argument(
            "prefill: KvPrefix of " +
            std::to_string(prefix.layers.size()) +
            " layers / " + std::to_string(p) +
            " tokens does not fit a depth-" +
            std::to_string(kv_.size()) + " model");
    if (!std::equal(prefix.tokens.begin(), prefix.tokens.end(),
                    tokens.begin()))
        throw std::invalid_argument(
            "prefill: prompt does not start with the shared prefix's "
            "tokens");
    if (cfg.pooling == Pooling::Mean &&
        (prefix.pooled_sum.rows() != 1 ||
         prefix.pooled_sum.cols() != cfg.dim))
        throw std::invalid_argument(
            "prefill: KvPrefix lacks the pooled state Mean pooling "
            "needs");

    // The request's private tail only ever holds its own tokens.
    const size_t reserve_tokens = reservedContext(plan, cfg);
    const size_t tail_reserve =
        reserve_tokens > p ? reserve_tokens - p : 0;
    for (size_t l = 0; l < kv_.size(); ++l)
        kv_[l] = AttentionKvCache{
            std::shared_ptr<const KvLayerSegment>(plan.prefix,
                                                  &prefix.layers[l]),
            KvLayerSegment{}, tail_reserve};
    if (cfg.pooling == Pooling::Mean)
        pooled_sum_ = prefix.pooled_sum;
    tokens_.assign(tokens.begin(),
                   tokens.begin() + static_cast<std::ptrdiff_t>(p));
    len_ = p;
}

Matrix
InferenceSession::prefillChunk(const std::vector<int> &tokens,
                               size_t begin, size_t end,
                               const SessionKvPlan &plan)
{
    obs::TraceScope span("session/prefill_chunk", request_id_,
                         "begin", static_cast<int64_t>(begin), "end",
                         static_cast<int64_t>(end));
    if (tokens.empty())
        throw std::invalid_argument(
            "prefillChunk with an empty prompt");
    if (begin >= end || end > tokens.size())
        throw std::invalid_argument(
            "prefillChunk: chunk [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") out of range for a " +
            std::to_string(tokens.size()) + "-token prompt");
    if (begin != len_)
        throw std::invalid_argument(
            "prefillChunk: chunk begins at token " +
            std::to_string(begin) + " but the session holds " +
            std::to_string(len_) + " tokens");
    for (size_t i = 0; i < len_; ++i)
        if (tokens_[i] != tokens[i])
            throw std::invalid_argument(
                "prefillChunk: prompt disagrees with the tokens "
                "already ingested at position " + std::to_string(i));
    const TransformerConfig &cfg = model_->config();
    if (tokens.size() > cfg.max_tokens)
        throw std::invalid_argument(
            "prefillChunk: prompt of " +
            std::to_string(tokens.size()) +
            " tokens exceeds max_tokens = " +
            std::to_string(cfg.max_tokens));

    // The plan sets the reservation the first tail token applies.
    if (len_ == 0 && plan.prefix) {
        // Mapped prefix positions are free; the first chunk must run
        // at least one real suffix token past them.
        const size_t p = plan.prefix->length();
        if (end <= p)
            throw std::invalid_argument(
                "prefillChunk: first chunk ends at token " +
                std::to_string(end) + " inside the shared prefix of " +
                std::to_string(p) + " tokens");
        mapPrefix(tokens, plan);
    } else if (len_ == 0) {
        for (AttentionKvCache &kv : kv_)
            kv.reserved_tokens = reservedContext(plan, cfg);
    }

    // Only the chunk's last token returns logits; every position
    // before it ingests its K/V alone (ingestStep).
    Matrix logits;
    for (size_t i = len_; i < end; ++i) {
        if (i + 1 < end)
            ingestStep(tokens[i]);
        else
            logits = decodeStep(tokens[i]);
    }
    return logits;
}

std::shared_ptr<const KvPrefix>
InferenceSession::buildKvPrefix(const TransformerClassifier &model,
                                GemmBackend &backend,
                                const QuantConfig &quant,
                                const std::vector<int> &tokens)
{
    const TransformerConfig &cfg = model.config();
    if (cfg.vocab_size == 0 || !cfg.causal ||
        cfg.pooling == Pooling::ClsToken)
        throw std::invalid_argument(
            "buildKvPrefix requires an InferenceSession-compatible "
            "model (causal sequence mode, Mean or LastToken pooling)");
    if (tokens.empty())
        throw std::invalid_argument(
            "buildKvPrefix on an empty prefix");

    // Content-addressed lane: the prefix's K/V depend on its tokens
    // (and the model/backend/quant config), never on which request
    // triggered the computation — the whole sharing contract.
    RunContext ctx{&backend, quant, prefixLane(tokens),
                   /*inference=*/true};
    // A prefix keeps its K/V and no logits, so the forward stops at
    // the last layer's K/V; Mean pooling's running sum needs every
    // row's final LN, so it runs the whole forward. Both validate the
    // token count and ids.
    ActivationWorkspace ws;
    if (cfg.pooling == Pooling::Mean)
        model.forwardSequence(tokens, ws, ctx);
    else
        model.forwardSequenceKv(tokens, ws, ctx);

    auto prefix = std::make_shared<KvPrefix>();
    prefix->tokens = tokens;
    prefix->layers.resize(model.depth());
    // Encoded once, here: every request that maps this prefix
    // dispatches on its packed operands without ever re-encoding them
    // (the N-users-one-encode property the pool's hit counter
    // measures).
    for (size_t l = 0; l < model.depth(); ++l)
        model.block(l).attention().seedKvCache(
            ws.blocks[l].attn, prefix->layers[l], backend);
    // The pooled state a session resumes Mean pooling from.
    if (cfg.pooling == Pooling::Mean)
        prefix->pooled_sum = pooledRowSum(ws.pooled_in);
    return prefix;
}

Matrix
InferenceSession::decodeStep(int token)
{
    obs::TraceScope span("session/decode_step", request_id_,
                         "context",
                         static_cast<int64_t>(len_ + 1));
    return BatchedDecoder::step({this}, {token}).front();
}

void
InferenceSession::ingestStep(int token)
{
    obs::TraceScope span("session/ingest_step", request_id_,
                         "context",
                         static_cast<int64_t>(len_ + 1));
    BatchedDecoder::ingest({this}, {token});
}

} // namespace nn
} // namespace lt
