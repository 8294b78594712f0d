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
    kv_.resize(cfg.depth);
}

Matrix
InferenceSession::prefill(const std::vector<int> &tokens)
{
    return prefill(tokens, SessionKvPlan{});
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
    const TransformerConfig &cfg = model_->config();
    // A plan may right-size the K/V reservation to the request's own
    // context budget instead of the positional-table worst case (the
    // serve layer's block accounting depends on this); capacity only,
    // never values.
    const size_t reserve_tokens =
        plan.reserve_tokens == 0
            ? cfg.max_tokens
            : std::min(plan.reserve_tokens, cfg.max_tokens);

    if (!plan.prefix) {
        // One causal full-sequence forward over the prompt (validates
        // the token count and ids), then lift the per-head quantized
        // K/V the attention layers already materialized into the
        // decode cache.
        Matrix logits = model_->forwardSequence(tokens, ws_, ctx_);
        for (size_t l = 0; l < kv_.size(); ++l) {
            // Seed dense + (on encoded-operand backends) encoded K/V
            // mirrors: the per-head encodes are paid once here, so
            // every decode step appends instead of re-encoding.
            model_->block(l).attention().seedKvCache(
                ws_.blocks[l].attn, kv_[l], *ctx_.backend);
            // Reserve the context footprint once — dense rows and
            // packed encoded blocks both — so every decode step
            // appends without reallocating (or re-striding) the cache
            // storage.
            kv_[l].reserve(reserve_tokens);
        }

        if (cfg.pooling == Pooling::Mean) {
            // Running sum of final-LN rows, in row order — matches
            // the full-sequence mean pooling summation exactly.
            pooled_sum_ = Matrix(1, cfg.dim, 0.0);
            for (size_t r = 0; r < ws_.pooled_in.rows(); ++r)
                for (size_t c = 0; c < ws_.pooled_in.cols(); ++c)
                    pooled_sum_(0, c) += ws_.pooled_in(r, c);
        }

        tokens_ = tokens;
        len_ = tokens.size();
        return logits;
    }

    // Shared-prefix prefill: map the precomputed segments
    // copy-on-write, then run ONLY the suffix tokens — through the
    // incremental decode path, on this request's own noise lane.
    const size_t p = plan.prefix->length();
    const size_t tail_reserve = mapPrefix(tokens, plan, reserve_tokens);

    // First suffix token creates the tail mirrors; reserve their
    // dense backing right after (an append into an empty Matrix
    // replaces it, so reserving earlier would be lost), then ingest
    // the rest of the suffix.
    Matrix logits = decodeStep(tokens[p]);
    for (AttentionKvCache &kv : kv_)
        kv.reserve(tail_reserve);
    for (size_t i = p + 1; i < tokens.size(); ++i)
        logits = decodeStep(tokens[i]);
    return logits;
}

size_t
InferenceSession::mapPrefix(const std::vector<int> &tokens,
                            const SessionKvPlan &plan,
                            size_t reserve_tokens)
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
    if (p >= tokens.size())
        throw std::invalid_argument(
            "prefill: shared prefix of " + std::to_string(p) +
            " tokens must be a proper prefix of the " +
            std::to_string(tokens.size()) +
            "-token prompt (at least one suffix token)");
    if (!std::equal(prefix.tokens.begin(), prefix.tokens.end(),
                    tokens.begin()))
        throw std::invalid_argument(
            "prefill: prompt does not start with the shared prefix's "
            "tokens");
    if (tokens.size() > cfg.max_tokens)
        throw std::invalid_argument(
            "prefill: prompt of " + std::to_string(tokens.size()) +
            " tokens exceeds max_tokens = " +
            std::to_string(cfg.max_tokens));
    if (cfg.pooling == Pooling::Mean &&
        (prefix.pooled_sum.rows() != 1 ||
         prefix.pooled_sum.cols() != cfg.dim))
        throw std::invalid_argument(
            "prefill: KvPrefix lacks the pooled state Mean pooling "
            "needs");

    const size_t tail_reserve =
        reserve_tokens > p ? reserve_tokens - p : 0;
    for (size_t l = 0; l < kv_.size(); ++l) {
        AttentionKvCache &kv = kv_[l];
        kv.segment = std::shared_ptr<const KvLayerSegment>(
            plan.prefix, &prefix.layers[l]);
        kv.k.clear();
        kv.v.clear();
        kv.ek_t.clear();
        kv.ev.clear();
        kv.encoded_backend_uid = 0;
        kv.tokens = 0;
        // The request's private mirrors only ever hold its tail; the
        // packed mirrors pick this reservation up on their first
        // (seeding) encode.
        kv.reserved_tokens = tail_reserve;
    }
    if (cfg.pooling == Pooling::Mean)
        pooled_sum_ = prefix.pooled_sum;
    tokens_.assign(tokens.begin(),
                   tokens.begin() + static_cast<std::ptrdiff_t>(p));
    len_ = p;
    return tail_reserve;
}

Matrix
InferenceSession::prefillChunk(const std::vector<int> &tokens,
                               size_t begin, size_t end)
{
    return prefillChunk(tokens, begin, end, SessionKvPlan{});
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

    Matrix logits;
    size_t i = begin;
    if (len_ == 0) {
        if (!plan.prefix) {
            // The first token seeds the caches through the one-token
            // prefill — bit-identical to a decode-path ingest (same
            // stream draw order, same K/V encode schedule) — carrying
            // the plan's right-sized reservation.
            SessionKvPlan first;
            first.reserve_tokens = plan.reserve_tokens;
            logits = prefill({tokens[0]}, first);
            i = 1;
        } else {
            // Mapped prefix positions are free; the first chunk must
            // run at least one real suffix token past them.
            const size_t p = plan.prefix->length();
            if (end <= p)
                throw std::invalid_argument(
                    "prefillChunk: first chunk ends at token " +
                    std::to_string(end) +
                    " inside the shared prefix of " +
                    std::to_string(p) + " tokens");
            const size_t reserve_tokens =
                plan.reserve_tokens == 0
                    ? cfg.max_tokens
                    : std::min(plan.reserve_tokens, cfg.max_tokens);
            const size_t tail_reserve =
                mapPrefix(tokens, plan, reserve_tokens);
            logits = decodeStep(tokens[p]);
            for (AttentionKvCache &kv : kv_)
                kv.reserve(tail_reserve);
            i = p + 1;
        }
    }
    for (; i < end; ++i)
        logits = decodeStep(tokens[i]);
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
    RunContext ctx{&backend, quant,
                   NoiseStream(kPrefixLaneSalt)
                       .lane(hashPrefixTokens(tokens)),
                   /*inference=*/true};
    ActivationWorkspace ws;
    model.forwardSequence(tokens, ws, ctx); // validates count + ids

    auto prefix = std::make_shared<KvPrefix>();
    prefix->tokens = tokens;
    prefix->layers.resize(model.depth());
    for (size_t l = 0; l < model.depth(); ++l) {
        KvLayerSegment &seg = prefix->layers[l];
        const AttentionCache &attn = ws.blocks[l].attn;
        seg.tokens = tokens.size();
        seg.k = attn.k;
        seg.v = attn.v;
        if (backend.supportsKvPlans()) {
            // Encode once, at construction: every request that maps
            // this prefix dispatches on these packed operands without
            // ever re-encoding them (the N-users-one-encode property
            // the pool's hit counter measures).
            const size_t heads = seg.k.size();
            seg.ek_t.resize(heads);
            seg.ev.resize(heads);
            for (size_t h = 0; h < heads; ++h) {
                backend.encodeKvInto(seg.ek_t[h],
                                     seg.k[h].transposedView(),
                                     core::OperandSide::B);
                backend.encodeKvInto(seg.ev[h], seg.v[h].view(),
                                     core::OperandSide::B);
            }
            seg.encoded_backend_uid = backend.uid();
        }
    }
    if (cfg.pooling == Pooling::Mean) {
        // Running final-LN row sum over the prefix, in row order —
        // the pooled state a session resumes Mean pooling from.
        prefix->pooled_sum = Matrix(1, cfg.dim, 0.0);
        for (size_t r = 0; r < ws.pooled_in.rows(); ++r)
            for (size_t c = 0; c < ws.pooled_in.cols(); ++c)
                prefix->pooled_sum(0, c) += ws.pooled_in(r, c);
    }
    return prefix;
}

Matrix
InferenceSession::decodeStep(int token)
{
    if (len_ == 0)
        return prefill({token});
    obs::TraceScope span("session/decode_step", request_id_,
                         "context",
                         static_cast<int64_t>(len_ + 1));
    return BatchedDecoder::step({this}, {token}).front();
}

} // namespace nn
} // namespace lt
