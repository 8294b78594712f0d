#include "layers.hh"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/logging.hh"

namespace lt {
namespace nn {

// ------------------------------------------------------- WeightPlanCache

std::shared_ptr<const core::EncodedOperand>
WeightPlanCache::fetch(GemmBackend &backend, int bits, uint64_t version,
                       const std::function<Matrix()> &materialize)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry &e : entries_) {
        if (e.backend_uid != backend.uid() || e.bits != bits)
            continue;
        if (e.version == version)
            return e.plan;
        // Stale: the weight changed since this plan was encoded.
        // Re-encode in place (encodeWeight counts the miss).
        e.version = version;
        e.plan = std::make_shared<const core::EncodedOperand>(
            backend.encodeWeight(materialize()));
        return e.plan;
    }
    // Bound the footprint: transient backends (an engine per eval
    // run) must not accumulate dead plans — evict the oldest entry.
    if (entries_.size() >= kMaxEntries)
        entries_.erase(entries_.begin());
    entries_.push_back(
        Entry{backend.uid(), bits, version,
              std::make_shared<const core::EncodedOperand>(
                  backend.encodeWeight(materialize()))});
    return entries_.back().plan;
}

void
WeightPlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
}

// ---------------------------------------------------------------- Linear

Linear::Linear(size_t in, size_t out, Rng &rng, bool bias)
    : w_(in, out), b_(1, out, 0.0), dw_(in, out, 0.0), db_(1, out, 0.0),
      has_bias_(bias)
{
    // Xavier-uniform initialization.
    double limit = std::sqrt(6.0 / static_cast<double>(in + out));
    for (double &v : w_.data())
        v = rng.uniform(-limit, limit);
}

void
Linear::addBias(Matrix &y) const
{
    if (!has_bias_)
        return;
    for (size_t r = 0; r < y.rows(); ++r)
        for (size_t c = 0; c < y.cols(); ++c)
            y(r, c) += b_(0, c);
}

std::shared_ptr<const core::EncodedOperand>
Linear::planFor(GemmBackend &backend, const QuantConfig &quant) const
{
    const int bits = quant.enabled ? quant.weight_bits : -1;
    return plans_.fetch(backend, bits, weightVersion(), [&] {
        return quant.enabled ? fakeQuant(w_, quant.weight_bits) : w_;
    });
}

Matrix
Linear::forward(const Matrix &x, LinearCache &cache,
                RunContext &ctx) const
{
    if (x.cols() != w_.rows())
        lt_panic("Linear forward: input dim ", x.cols(),
                 " != weight rows ", w_.rows());
    if (ctx.inference && ctx.backend->supportsWeightPlans()) {
        // Steady-state inference: the static weight comes from the
        // version-keyed plan cache — zero fakeQuant / maxAbs /
        // quantize / pack work on it per step — and the backward
        // caches are skipped. Bit-identical to the generic path
        // below (encoding is deterministic).
        auto plan = planFor(*ctx.backend, ctx.quant);
        const Matrix *xq = &x;
        Matrix xq_store;
        if (ctx.quant.enabled) {
            xq_store = fakeQuant(x, ctx.quant.act_bits);
            xq = &xq_store;
        }
        Matrix y = ctx.backend->gemm(*xq, *plan, ctx.stream.next());
        addBias(y);
        return y;
    }
    cache.x = ctx.quant.enabled ? fakeQuant(x, ctx.quant.act_bits) : x;
    cache.wq =
        ctx.quant.enabled ? fakeQuant(w_, ctx.quant.weight_bits) : w_;
    Matrix y =
        ctx.backend->gemm(cache.x, cache.wq, ctx.stream.next());
    addBias(y);
    return y;
}

std::vector<Matrix>
Linear::forwardBatch(const std::vector<Matrix> &xs,
                     const std::vector<RunContext *> &ctxs) const
{
    if (xs.size() != ctxs.size())
        lt_panic("Linear::forwardBatch: ", xs.size(), " inputs for ",
                 ctxs.size(), " contexts");
    if (xs.empty())
        return {};
    GemmBackend *backend = ctxs.front()->backend;
    const QuantConfig &quant = ctxs.front()->quant;

    // Validate and quantize the activations, and draw exactly the one
    // stream id per context the solo forward makes, in index order.
    std::vector<Matrix> xq(xs.size());
    std::vector<const Matrix *> act(xs.size());
    std::vector<uint64_t> streams;
    streams.reserve(xs.size());
    bool all_rows = true;
    for (size_t i = 0; i < xs.size(); ++i) {
        if (xs[i].cols() != w_.rows())
            lt_panic("Linear::forwardBatch: input dim ", xs[i].cols(),
                     " != weight rows ", w_.rows());
        if (ctxs[i]->backend != backend)
            lt_panic("Linear::forwardBatch: contexts disagree on the "
                     "backend");
        if (ctxs[i]->quant != quant)
            lt_panic("Linear::forwardBatch: contexts disagree on the "
                     "quantization");
        act[i] = &xs[i];
        if (quant.enabled) {
            xq[i] = fakeQuant(xs[i], quant.act_bits);
            act[i] = &xq[i];
        }
        all_rows = all_rows && xs[i].rows() == 1;
        streams.push_back(ctxs[i]->stream.next());
    }

    // The serving entry point is inference-only by contract, so when
    // the backend executes encoded operands the weight comes from the
    // version-keyed plan cache: zero re-encodes in steady state.
    // Results are bit-identical to the dense fallback (fakeQuant and
    // encoding are deterministic, so one preparation equals the
    // per-call work of the solo forward bit-for-bit).
    std::vector<Matrix> ys;
    if (backend->supportsWeightPlans()) {
        auto plan = planFor(*backend, quant);
        if (all_rows && backend->supportsRowStacking()) {
            // Decode regime: the N single rows go out as ONE stacked
            // dispatch of N solo row products (bit-identical per row).
            std::vector<ConstMatrixView> rows;
            rows.reserve(xs.size());
            for (const Matrix *a : act)
                rows.push_back(a->view());
            ys = backend->gemmRowStacked(rows, *plan, streams);
        } else {
            std::vector<
                std::pair<const Matrix *, const core::EncodedOperand *>>
                products;
            products.reserve(xs.size());
            for (const Matrix *a : act)
                products.emplace_back(a, plan.get());
            ys = backend->gemmBatch(products, streams);
        }
    } else {
        // Dense fallback: one quantized weight, or the raw weight in
        // place when quantization is off.
        Matrix wq;
        const Matrix *dense = &w_;
        if (quant.enabled) {
            wq = fakeQuant(w_, quant.weight_bits);
            dense = &wq;
        }
        std::vector<std::pair<const Matrix *, const Matrix *>>
            products;
        products.reserve(xs.size());
        for (const Matrix *a : act)
            products.emplace_back(a, dense);
        ys = backend->gemmBatch(products, streams);
    }

    for (Matrix &y : ys)
        addBias(y);
    return ys;
}

Matrix
Linear::backward(const Matrix &dy, const LinearCache &cache)
{
    // STE: gradients flow through the quantizer unchanged; the matmul
    // gradients use the quantized forward values.
    Matrix dx = dy * cache.wq.transposed();
    Matrix dw = cache.x.transposed() * dy;
    addInPlace(dw_, dw);
    if (has_bias_) {
        for (size_t r = 0; r < dy.rows(); ++r)
            for (size_t c = 0; c < dy.cols(); ++c)
                db_(0, c) += dy(r, c);
    }
    return dx;
}

void
Linear::zeroGrad()
{
    for (double &v : dw_.data())
        v = 0.0;
    for (double &v : db_.data())
        v = 0.0;
}

void
Linear::visitParams(const ParamVisitor &fn)
{
    // The visitor holds mutable weight refs (optimizer steps,
    // checkpoint loads): assume an update and invalidate cached
    // plans by bumping the version.
    version_.fetch_add(1, std::memory_order_relaxed);
    fn(w_, dw_);
    if (has_bias_)
        fn(b_, db_);
}

// ------------------------------------------------------------- LayerNorm

LayerNorm::LayerNorm(size_t dim, double eps)
    : gamma_(1, dim, 1.0), beta_(1, dim, 0.0), dgamma_(1, dim, 0.0),
      dbeta_(1, dim, 0.0), eps_(eps)
{
}

Matrix
LayerNorm::forward(const Matrix &x, LayerNormCache &cache) const
{
    const size_t rows = x.rows();
    const size_t dim = x.cols();
    cache.xhat = Matrix(rows, dim);
    cache.inv_std.assign(rows, 0.0);
    Matrix y(rows, dim);
    for (size_t r = 0; r < rows; ++r) {
        double mean = 0.0;
        for (size_t c = 0; c < dim; ++c)
            mean += x(r, c);
        mean /= static_cast<double>(dim);
        double var = 0.0;
        for (size_t c = 0; c < dim; ++c) {
            double d = x(r, c) - mean;
            var += d * d;
        }
        var /= static_cast<double>(dim);
        double inv_std = 1.0 / std::sqrt(var + eps_);
        cache.inv_std[r] = inv_std;
        for (size_t c = 0; c < dim; ++c) {
            double xh = (x(r, c) - mean) * inv_std;
            cache.xhat(r, c) = xh;
            y(r, c) = gamma_(0, c) * xh + beta_(0, c);
        }
    }
    return y;
}

Matrix
LayerNorm::backward(const Matrix &dy, const LayerNormCache &cache)
{
    const size_t rows = dy.rows();
    const size_t dim = dy.cols();
    Matrix dx(rows, dim);
    for (size_t r = 0; r < rows; ++r) {
        double sum_dxhat = 0.0;
        double sum_dxhat_xhat = 0.0;
        for (size_t c = 0; c < dim; ++c) {
            double dxhat = dy(r, c) * gamma_(0, c);
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * cache.xhat(r, c);
            dgamma_(0, c) += dy(r, c) * cache.xhat(r, c);
            dbeta_(0, c) += dy(r, c);
        }
        double inv_n = 1.0 / static_cast<double>(dim);
        for (size_t c = 0; c < dim; ++c) {
            double dxhat = dy(r, c) * gamma_(0, c);
            dx(r, c) = cache.inv_std[r] *
                       (dxhat - inv_n * sum_dxhat -
                        cache.xhat(r, c) * inv_n * sum_dxhat_xhat);
        }
    }
    return dx;
}

void
LayerNorm::zeroGrad()
{
    for (double &v : dgamma_.data())
        v = 0.0;
    for (double &v : dbeta_.data())
        v = 0.0;
}

void
LayerNorm::visitParams(const ParamVisitor &fn)
{
    fn(gamma_, dgamma_);
    fn(beta_, dbeta_);
}

// ------------------------------------------------------------------ Gelu

Matrix
Gelu::forward(const Matrix &x, GeluCache &cache) const
{
    cache.x = x;
    return gelu(x);
}

Matrix
Gelu::backward(const Matrix &dy, const GeluCache &cache) const
{
    return geluBackward(cache.x, dy);
}

// ------------------------------------------- MultiHeadSelfAttention

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t heads,
                                               Rng &rng, bool causal)
    : dim_(dim), heads_(heads), dk_(dim / heads), causal_(causal),
      wq_(dim, dim, rng), wk_(dim, dim, rng), wv_(dim, dim, rng),
      wo_(dim, dim, rng)
{
    if (dim % heads != 0)
        lt_fatal("attention dim ", dim, " not divisible by heads ",
                 heads);
}

Matrix
MultiHeadSelfAttention::forward(const Matrix &x, AttentionCache &cache,
                                RunContext &ctx) const
{
    const size_t tokens = x.rows();
    Matrix q = wq_.forward(x, cache.wq, ctx);
    projectKv(x, cache, ctx);

    // Per-head operands first, so the dynamic MMs can run as one
    // batch on the execution engine (each head's product keeps its
    // own noise stream — batching never changes results).
    cache.q.assign(heads_, Matrix());
    cache.p.assign(heads_, Matrix());
    for (size_t h = 0; h < heads_; ++h) {
        Matrix qh = sliceCols(q, h * dk_, dk_);
        if (ctx.quant.enabled)
            qh = fakeQuant(qh, ctx.quant.act_bits);
        cache.q[h] = std::move(qh);
    }

    // QK^T: the first dynamic MM, batched over heads. The transposed
    // K operand is a stride-aware view of the cached K — no
    // materialized K^T copy. Stream ids are drawn per product in
    // head order before dispatch.
    std::vector<std::pair<ConstMatrixView, ConstMatrixView>> qk_ops;
    std::vector<uint64_t> qk_streams;
    qk_ops.reserve(heads_);
    qk_streams.reserve(heads_);
    for (size_t h = 0; h < heads_; ++h) {
        qk_ops.emplace_back(cache.q[h].view(),
                            cache.k[h].transposedView());
        qk_streams.push_back(ctx.stream.next());
    }
    std::vector<Matrix> scores =
        ctx.backend->gemmBatch(qk_ops, qk_streams);

    double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(dk_));
    for (size_t h = 0; h < heads_; ++h) {
        for (double &s : scores[h].data())
            s *= inv_sqrt_dk;
        if (causal_) {
            // Token i attends only to j <= i: mask the future to -inf
            // before the softmax (exactly what the incremental decode
            // path never computes).
            for (size_t r = 0; r < tokens; ++r)
                for (size_t c = r + 1; c < tokens; ++c)
                    scores[h](r, c) =
                        -std::numeric_limits<double>::infinity();
        }
        Matrix p = rowSoftmax(scores[h]);
        cache.p[h] = ctx.quant.enabled
                         ? fakeQuant(p, ctx.quant.act_bits)
                         : std::move(p);
    }

    // AV: the second dynamic MM, batched over heads.
    std::vector<std::pair<const Matrix *, const Matrix *>> av_ops;
    std::vector<uint64_t> av_streams;
    av_ops.reserve(heads_);
    av_streams.reserve(heads_);
    for (size_t h = 0; h < heads_; ++h) {
        av_ops.emplace_back(&cache.p[h], &cache.v[h]);
        av_streams.push_back(ctx.stream.next());
    }
    std::vector<Matrix> ctx_heads =
        ctx.backend->gemmBatch(av_ops, av_streams);

    Matrix context(tokens, dim_, 0.0);
    for (size_t h = 0; h < heads_; ++h)
        pasteCols(context, ctx_heads[h], h * dk_);
    return wo_.forward(context, cache.wo, ctx);
}

void
MultiHeadSelfAttention::projectKv(const Matrix &x, AttentionCache &cache,
                                  RunContext &ctx) const
{
    Matrix k = wk_.forward(x, cache.wk, ctx);
    Matrix v = wv_.forward(x, cache.wv, ctx);
    cache.k.assign(heads_, Matrix());
    cache.v.assign(heads_, Matrix());
    for (size_t h = 0; h < heads_; ++h) {
        Matrix kh = sliceCols(k, h * dk_, dk_);
        Matrix vh = sliceCols(v, h * dk_, dk_);
        if (ctx.quant.enabled) {
            // Dynamic operands are quantized at the DAC just like
            // weights (both are activations in attention).
            kh = fakeQuant(kh, ctx.quant.act_bits);
            vh = fakeQuant(vh, ctx.quant.act_bits);
        }
        cache.k[h] = std::move(kh);
        cache.v[h] = std::move(vh);
    }
}

void
MultiHeadSelfAttention::forwardKv(const Matrix &x, AttentionCache &cache,
                                  RunContext &ctx) const
{
    ctx.stream.skip(1); // wq
    projectKv(x, cache, ctx);
    ctx.stream.skip(2 * heads_ + 1); // QK^T and AV per head, then WO
}

Matrix
MultiHeadSelfAttention::backward(const Matrix &dy,
                                 const AttentionCache &cache)
{
    Matrix dcontext = wo_.backward(dy, cache.wo);
    const size_t tokens = dcontext.rows();
    Matrix dq(tokens, dim_, 0.0);
    Matrix dk_full(tokens, dim_, 0.0);
    Matrix dv(tokens, dim_, 0.0);
    double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(dk_));

    for (size_t h = 0; h < heads_; ++h) {
        Matrix dctx_h = sliceCols(dcontext, h * dk_, dk_);
        const Matrix &p = cache.p[h];
        const Matrix &qh = cache.q[h];
        const Matrix &kh = cache.k[h];
        const Matrix &vh = cache.v[h];

        Matrix dp = dctx_h * vh.transposed();
        Matrix dvh = p.transposed() * dctx_h;
        Matrix dscores = rowSoftmaxBackward(p, dp);
        for (double &s : dscores.data())
            s *= inv_sqrt_dk;
        Matrix dqh = dscores * kh;
        Matrix dkh = dscores.transposed() * qh;

        pasteCols(dq, dqh, h * dk_);
        pasteCols(dk_full, dkh, h * dk_);
        pasteCols(dv, dvh, h * dk_);
    }

    Matrix dx = wq_.backward(dq, cache.wq);
    addInPlace(dx, wk_.backward(dk_full, cache.wk));
    addInPlace(dx, wv_.backward(dv, cache.wv));
    return dx;
}

bool
MultiHeadSelfAttention::prepareKvEncoded(KvLayerSegment &seg,
                                         GemmBackend &backend) const
{
    if (!backend.supportsKvPlans()) {
        seg.ek_t.clear();
        seg.ev.clear();
        seg.encoded_backend_uid = 0;
        return false;
    }
    if (seg.encoded_backend_uid != backend.uid() ||
        seg.ek_t.size() != heads_ || seg.ev.size() != heads_) {
        // Re-home: encodings packed for another backend's core
        // geometry are dropped; syncKvEncodedHead rebuilds them from
        // the dense mirrors on the next append.
        seg.ek_t.assign(heads_, core::EncodedOperand());
        seg.ev.assign(heads_, core::EncodedOperand());
        seg.encoded_backend_uid = backend.uid();
    }
    return true;
}

void
MultiHeadSelfAttention::syncKvEncodedHead(AttentionKvCache &kv,
                                          size_t h,
                                          const Matrix &k_row,
                                          const Matrix &v_row,
                                          GemmBackend &backend) const
{
    // K^T mirror: the new token is one packed column — one contiguous
    // nlambda-run per k-slice. appendColumn refuses when the cached
    // beta no longer covers the row (a fresh encode would pick a new
    // beta); encodeKvInto then requantizes in place from the dense
    // mirror, preserving the reserved packed capacity.
    core::EncodedOperand &ekt = kv.tail.ek_t[h];
    const Matrix &k_h = kv.tail.k[h];
    const bool k_in_sync =
        ekt.rows() == dk_ && ekt.cols() + 1 == k_h.rows();
    if (!(k_in_sync && ekt.appendColumn(k_row.data().data(), dk_))) {
        backend.encodeKvInto(ekt, k_h.transposedView(),
                             core::OperandSide::B);
        if (kv.reserved_tokens > 0)
            ekt.reserve(dk_, kv.reserved_tokens);
    }

    // V mirror: the new token is one packed row.
    core::EncodedOperand &ev_h = kv.tail.ev[h];
    const Matrix &v_h = kv.tail.v[h];
    const bool v_in_sync =
        ev_h.cols() == dk_ && ev_h.rows() + 1 == v_h.rows();
    if (!(v_in_sync && ev_h.appendRow(v_row.data().data(), dk_))) {
        backend.encodeKvInto(ev_h, v_h.view(), core::OperandSide::B);
        if (kv.reserved_tokens > 0)
            ev_h.reserve(kv.reserved_tokens, dk_);
    }
}

namespace {

/**
 * One dynamic attention product against a K/V part: the left row
 * block times the part's right operand, as a dense view and — when the
 * part's mirrors are encoded for the dispatching backend — its packed
 * form.
 */
struct KvProduct
{
    ConstMatrixView a;
    ConstMatrixView b;                  ///< dense right operand
    const core::EncodedOperand *b_plan; ///< its packed mirror, or null
};

/**
 * Run a K/V product list as one stream-addressed gemmBatch. One batch
 * takes one operand form: the packed mirrors when every product has
 * one, else dense views (bit-identical either way; one
 * foreign-geometry prefix demotes the whole batch).
 */
std::vector<Matrix>
runKvProducts(GemmBackend &backend, const std::vector<KvProduct> &ps,
              const std::vector<uint64_t> &streams)
{
    std::vector<std::pair<ConstMatrixView, const core::EncodedOperand *>>
        packed;
    std::vector<std::pair<ConstMatrixView, ConstMatrixView>> dense;
    bool all_packed = true;
    for (const KvProduct &p : ps) {
        packed.emplace_back(p.a, p.b_plan);
        dense.emplace_back(p.a, p.b);
        all_packed = all_packed && p.b_plan != nullptr;
    }
    return all_packed ? backend.gemmBatch(packed, streams)
                      : backend.gemmBatch(dense, streams);
}

} // namespace

std::vector<std::vector<const KvLayerSegment *>>
MultiHeadSelfAttention::decodeParts(
    const std::vector<Matrix> &xs,
    const std::vector<AttentionKvCache *> &kvs,
    const std::vector<RunContext *> &ctxs) const
{
    if (!causal_)
        throw std::invalid_argument(
            "decodeStepBatch requires causal attention: a K/V cache "
            "only holds the past");
    const size_t n = xs.size();
    if (kvs.size() != n || ctxs.size() != n)
        lt_panic("decodeStepBatch: ", n, " rows vs ", kvs.size(),
                 " caches vs ", ctxs.size(), " contexts");
    for (const Matrix &x : xs)
        if (x.rows() != 1 || x.cols() != dim_)
            throw std::invalid_argument(
                "decodeStepBatch expects one [1, dim] token row per "
                "request");

    std::vector<std::vector<const KvLayerSegment *>> parts(n);
    for (size_t i = 0; i < n; ++i) {
        if (const KvLayerSegment *seg = kvs[i]->segment.get()) {
            if (seg->k.size() != heads_)
                throw std::invalid_argument(
                    "decodeStepBatch: request " + std::to_string(i) +
                    "'s shared K/V segment holds " +
                    std::to_string(seg->k.size()) +
                    " heads for an attention of " +
                    std::to_string(heads_));
            parts[i].push_back(seg);
        }
        parts[i].push_back(&kvs[i]->tail);
    }
    return parts;
}

void
MultiHeadSelfAttention::appendKvBatch(
    const std::vector<Matrix> &xs,
    const std::vector<AttentionKvCache *> &kvs,
    const std::vector<RunContext *> &ctxs) const
{
    // Each projection fused across the N requests (request i draws
    // its wk, then its wv stream, whatever else rides in the batch).
    std::vector<Matrix> k = wk_.forwardBatch(xs, ctxs);
    std::vector<Matrix> v = wv_.forwardBatch(xs, ctxs);

    // Per request: append this token's per-head K/V to ITS tail, in
    // the quantized operand domain.
    GemmBackend &backend = *ctxs.front()->backend;
    const bool encoded = backend.supportsKvPlans();
    for (size_t i = 0; i < xs.size(); ++i) {
        KvLayerSegment &tail = kvs[i]->tail;
        if (tail.k.size() != heads_) {
            tail.k.assign(heads_, Matrix());
            tail.v.assign(heads_, Matrix());
            tail.tokens = 0;
        }
        prepareKvEncoded(tail, backend);
        for (size_t h = 0; h < heads_; ++h) {
            Matrix k_row = sliceCols(k[i], h * dk_, dk_);
            Matrix v_row = sliceCols(v[i], h * dk_, dk_);
            if (ctxs[i]->quant.enabled) {
                k_row = fakeQuant(k_row, ctxs[i]->quant.act_bits);
                v_row = fakeQuant(v_row, ctxs[i]->quant.act_bits);
            }
            appendRow(tail.k[h], k_row);
            appendRow(tail.v[h], v_row);
            if (encoded)
                syncKvEncodedHead(*kvs[i], h, k_row, v_row, backend);
        }
        // The first append replaces the empty mirrors, so the tail's
        // reservation takes effect here, once.
        if (++tail.tokens == 1 && kvs[i]->reserved_tokens > 0)
            kvs[i]->reserve(kvs[i]->reserved_tokens);
    }
}

void
MultiHeadSelfAttention::ingestStepBatch(
    const std::vector<Matrix> &xs,
    const std::vector<AttentionKvCache *> &kvs,
    const std::vector<RunContext *> &ctxs) const
{
    const auto parts = decodeParts(xs, kvs, ctxs);
    if (xs.empty())
        return;
    for (RunContext *ctx : ctxs)
        ctx->stream.skip(1); // wq
    appendKvBatch(xs, kvs, ctxs);
    // QK^T and AV per (head, part), then WO.
    for (size_t i = 0; i < xs.size(); ++i)
        ctxs[i]->stream.skip(2 * heads_ * parts[i].size() + 1);
}

std::vector<Matrix>
MultiHeadSelfAttention::decodeStepBatch(
    const std::vector<Matrix> &xs,
    const std::vector<AttentionKvCache *> &kvs,
    const std::vector<RunContext *> &ctxs) const
{
    // A request's context is its K/V parts in position order: the
    // mapped shared segment, if any, then its private tail.
    const auto parts = decodeParts(xs, kvs, ctxs);
    const size_t n = xs.size();
    if (n == 0)
        return {};
    GemmBackend *backend = ctxs.front()->backend;

    // The Q projection fused across the N requests (request i draws
    // its wq stream before its wk and wv ones), then the K/V half an
    // ingest step runs too, then the per-head query rows, quantized.
    std::vector<Matrix> q = wq_.forwardBatch(xs, ctxs);
    appendKvBatch(xs, kvs, ctxs);
    std::vector<std::vector<Matrix>> qh(n);
    for (size_t i = 0; i < n; ++i) {
        qh[i].resize(heads_);
        for (size_t h = 0; h < heads_; ++h) {
            qh[i][h] = sliceCols(q[i], h * dk_, dk_);
            if (ctxs[i]->quant.enabled)
                qh[i][h] =
                    fakeQuant(qh[i][h], ctxs[i]->quant.act_bits);
        }
    }

    // A part dispatches packed only on mirrors built for this backend.
    const bool encoded = backend->supportsKvPlans();
    auto packed = [&](const KvLayerSegment &part) {
        return encoded && part.encoded_backend_uid == backend->uid() &&
               part.ek_t.size() == heads_ && part.ev.size() == heads_;
    };

    // QK^T: one product per (request, head, part) in one batch; the
    // K operand is a transposed view of the part's K (or its packed
    // K^T). Request i draws its streams in (head, part) order, exactly
    // as in a batch of one — the grouping of the dispatch is invisible
    // to the stream-addressed backend.
    std::vector<KvProduct> qk;
    std::vector<uint64_t> qk_streams;
    for (size_t i = 0; i < n; ++i)
        for (size_t h = 0; h < heads_; ++h)
            for (const KvLayerSegment *part : parts[i]) {
                qk.push_back({qh[i][h].view(),
                              part->k[h].transposedView(),
                              packed(*part) ? &part->ek_t[h] : nullptr});
                qk_streams.push_back(ctxs[i]->stream.next());
            }
    std::vector<Matrix> scores = runKvProducts(*backend, qk, qk_streams);

    // One score row per (request, head) over the whole context, parts
    // side by side, so the softmax (and its quantization) spans shared
    // and private positions together, as a contiguous cache would.
    double inv_sqrt_dk = 1.0 / std::sqrt(static_cast<double>(dk_));
    std::vector<Matrix> probs(n * heads_);
    size_t op = 0;
    for (size_t i = 0; i < n; ++i) {
        size_t context = 0;
        for (const KvLayerSegment *part : parts[i])
            context += part->tokens;
        for (size_t h = 0; h < heads_; ++h) {
            Matrix row(1, context);
            size_t c0 = 0;
            for (const KvLayerSegment *part : parts[i]) {
                pasteCols(row, scores[op++], c0);
                c0 += part->tokens;
            }
            for (double &e : row.data())
                e *= inv_sqrt_dk;
            Matrix p = rowSoftmax(row);
            probs[i * heads_ + h] =
                ctxs[i]->quant.enabled
                    ? fakeQuant(p, ctxs[i]->quant.act_bits)
                    : std::move(p);
        }
    }

    // AV: the same (request, head, part) product list; each part reads
    // its own probability columns as a leading-dimension view of the
    // quantized row.
    std::vector<KvProduct> av;
    std::vector<uint64_t> av_streams;
    for (size_t i = 0; i < n; ++i)
        for (size_t h = 0; h < heads_; ++h) {
            const Matrix &p = probs[i * heads_ + h];
            size_t c0 = 0;
            for (const KvLayerSegment *part : parts[i]) {
                av.push_back({p.colsView(c0, part->tokens),
                              part->v[h].view(),
                              packed(*part) ? &part->ev[h] : nullptr});
                av_streams.push_back(ctxs[i]->stream.next());
                c0 += part->tokens;
            }
        }
    std::vector<Matrix> ctx_heads =
        runKvProducts(*backend, av, av_streams);

    // A head's context row is the sum of its parts' products.
    std::vector<Matrix> contexts(n);
    op = 0;
    for (size_t i = 0; i < n; ++i) {
        contexts[i] = Matrix(1, dim_, 0.0);
        for (size_t h = 0; h < heads_; ++h) {
            Matrix head_ctx = std::move(ctx_heads[op++]);
            for (size_t j = 1; j < parts[i].size(); ++j)
                addInPlace(head_ctx, ctx_heads[op++]);
            pasteCols(contexts[i], head_ctx, h * dk_);
        }
    }
    return wo_.forwardBatch(contexts, ctxs);
}

void
MultiHeadSelfAttention::seedKvCache(const AttentionCache &cache,
                                    KvLayerSegment &seg,
                                    GemmBackend &backend) const
{
    // Both mirrors keep the forward's row-major [tokens, dk] layout —
    // no transpose at all; the QK^T dispatch reads K through a
    // transposed view, and decode appends rows.
    seg.k = cache.k;
    seg.v = cache.v;
    seg.tokens = cache.k.empty() ? 0 : cache.k.front().rows();
    // Forget the encoded mirrors' home so prepareKvEncoded replaces
    // them with empty operands (or, without encoded K/V support,
    // clears them): stale encodings never survive a reseed.
    seg.encoded_backend_uid = 0;
    if (!prepareKvEncoded(seg, backend))
        return;
    // Encode the K/V once, here, so a tail's decode steps are appends
    // and a shared prefix is never re-encoded by any request that maps
    // it: the prefill cost the paper's encoded-operand case amortizes
    // (2 * heads kv_encode misses per layer).
    for (size_t h = 0; h < heads_; ++h) {
        backend.encodeKvInto(seg.ek_t[h], seg.k[h].transposedView(),
                             core::OperandSide::B);
        backend.encodeKvInto(seg.ev[h], seg.v[h].view(),
                             core::OperandSide::B);
    }
}

void
MultiHeadSelfAttention::zeroGrad()
{
    wq_.zeroGrad();
    wk_.zeroGrad();
    wv_.zeroGrad();
    wo_.zeroGrad();
}

void
MultiHeadSelfAttention::visitParams(const ParamVisitor &fn)
{
    wq_.visitParams(fn);
    wk_.visitParams(fn);
    wv_.visitParams(fn);
    wo_.visitParams(fn);
}

// ----------------------------------------------------------- FeedForward

FeedForward::FeedForward(size_t dim, size_t hidden, Rng &rng)
    : fc1_(dim, hidden, rng), fc2_(hidden, dim, rng)
{
}

Matrix
FeedForward::forward(const Matrix &x, FeedForwardCache &cache,
                     RunContext &ctx) const
{
    return fc2_.forward(
        act_.forward(fc1_.forward(x, cache.fc1, ctx), cache.act),
        cache.fc2, ctx);
}

std::vector<Matrix>
FeedForward::forwardBatch(const std::vector<Matrix> &xs,
                          const std::vector<RunContext *> &ctxs) const
{
    std::vector<Matrix> h = fc1_.forwardBatch(xs, ctxs);
    for (Matrix &row : h)
        row = gelu(row); // same elementwise map Gelu::forward applies
    return fc2_.forwardBatch(h, ctxs);
}

Matrix
FeedForward::backward(const Matrix &dy, const FeedForwardCache &cache)
{
    return fc1_.backward(
        act_.backward(fc2_.backward(dy, cache.fc2), cache.act),
        cache.fc1);
}

void
FeedForward::zeroGrad()
{
    fc1_.zeroGrad();
    fc2_.zeroGrad();
}

void
FeedForward::visitParams(const ParamVisitor &fn)
{
    fc1_.visitParams(fn);
    fc2_.visitParams(fn);
}

// ------------------------------------------------------ TransformerBlock

TransformerBlock::TransformerBlock(size_t dim, size_t heads,
                                   size_t mlp_hidden, Rng &rng,
                                   bool causal)
    : ln1_(dim), attn_(dim, heads, rng, causal), ln2_(dim),
      ffn_(dim, mlp_hidden, rng)
{
}

Matrix
TransformerBlock::forward(const Matrix &x, TransformerBlockCache &cache,
                          RunContext &ctx) const
{
    // x' = x + MHA(LN(x))
    Matrix h =
        attn_.forward(ln1_.forward(x, cache.ln1), cache.attn, ctx);
    addInPlace(h, x);
    // y = x' + FFN(LN(x'))
    Matrix y = ffn_.forward(ln2_.forward(h, cache.ln2), cache.ffn, ctx);
    addInPlace(y, h);
    return y;
}

Matrix
TransformerBlock::backward(const Matrix &dy,
                           const TransformerBlockCache &cache)
{
    // Through the FFN residual.
    Matrix dh = ln2_.backward(ffn_.backward(dy, cache.ffn), cache.ln2);
    addInPlace(dh, dy);
    // Through the attention residual.
    Matrix dx =
        ln1_.backward(attn_.backward(dh, cache.attn), cache.ln1);
    addInPlace(dx, dh);
    return dx;
}

void
TransformerBlock::forwardKv(const Matrix &x, TransformerBlockCache &cache,
                            RunContext &ctx) const
{
    attn_.forwardKv(ln1_.forward(x, cache.ln1), cache.attn, ctx);
    ctx.stream.skip(2); // fc1, fc2
}

namespace {

/** LayerNorm is a row-wise pure function: run it per request
 *  (scratch caches are inference-discarded). */
std::vector<Matrix>
normRows(const LayerNorm &ln, const std::vector<Matrix> &xs)
{
    LayerNormCache scratch;
    std::vector<Matrix> normed(xs.size());
    for (size_t i = 0; i < xs.size(); ++i)
        normed[i] = ln.forward(xs[i], scratch);
    return normed;
}

} // namespace

std::vector<Matrix>
TransformerBlock::decodeStepBatch(
    const std::vector<Matrix> &xs,
    const std::vector<AttentionKvCache *> &kvs,
    const std::vector<RunContext *> &ctxs) const
{
    std::vector<Matrix> h =
        attn_.decodeStepBatch(normRows(ln1_, xs), kvs, ctxs);
    for (size_t i = 0; i < xs.size(); ++i)
        addInPlace(h[i], xs[i]);
    std::vector<Matrix> y = ffn_.forwardBatch(normRows(ln2_, h), ctxs);
    for (size_t i = 0; i < xs.size(); ++i)
        addInPlace(y[i], h[i]);
    return y;
}

void
TransformerBlock::ingestStepBatch(
    const std::vector<Matrix> &xs,
    const std::vector<AttentionKvCache *> &kvs,
    const std::vector<RunContext *> &ctxs) const
{
    attn_.ingestStepBatch(normRows(ln1_, xs), kvs, ctxs);
    for (RunContext *ctx : ctxs)
        ctx->stream.skip(2); // fc1, fc2
}

void
TransformerBlock::zeroGrad()
{
    ln1_.zeroGrad();
    attn_.zeroGrad();
    ln2_.zeroGrad();
    ffn_.zeroGrad();
}

void
TransformerBlock::visitParams(const ParamVisitor &fn)
{
    ln1_.visitParams(fn);
    attn_.visitParams(fn);
    ln2_.visitParams(fn);
    ffn_.visitParams(fn);
}

// -------------------------------------------------------- TokenEmbedding

TokenEmbedding::TokenEmbedding(size_t vocab, size_t dim, Rng &rng)
    : table_(vocab, dim), dtable_(vocab, dim, 0.0)
{
    for (double &v : table_.data())
        v = rng.gaussian(0.0, 0.02);
}

Matrix
TokenEmbedding::forward(const std::vector<int> &tokens,
                        TokenEmbeddingCache &cache) const
{
    cache.tokens = tokens;
    Matrix out(tokens.size(), table_.cols());
    for (size_t t = 0; t < tokens.size(); ++t) {
        int id = tokens[t];
        if (id < 0 || static_cast<size_t>(id) >= table_.rows())
            throw std::invalid_argument(
                "token id " + std::to_string(id) +
                " outside vocabulary of " +
                std::to_string(table_.rows()));
        for (size_t c = 0; c < table_.cols(); ++c)
            out(t, c) = table_(static_cast<size_t>(id), c);
    }
    return out;
}

Matrix
TokenEmbedding::embedRow(int token) const
{
    if (token < 0 || static_cast<size_t>(token) >= table_.rows())
        throw std::invalid_argument(
            "token id " + std::to_string(token) +
            " outside vocabulary of " + std::to_string(table_.rows()));
    Matrix out(1, table_.cols());
    for (size_t c = 0; c < table_.cols(); ++c)
        out(0, c) = table_(static_cast<size_t>(token), c);
    return out;
}

void
TokenEmbedding::backward(const Matrix &dy,
                         const TokenEmbeddingCache &cache)
{
    if (dy.rows() != cache.tokens.size())
        lt_panic("TokenEmbedding backward shape mismatch");
    for (size_t t = 0; t < cache.tokens.size(); ++t) {
        auto id = static_cast<size_t>(cache.tokens[t]);
        for (size_t c = 0; c < table_.cols(); ++c)
            dtable_(id, c) += dy(t, c);
    }
}

void
TokenEmbedding::zeroGrad()
{
    for (double &v : dtable_.data())
        v = 0.0;
}

void
TokenEmbedding::visitParams(const ParamVisitor &fn)
{
    fn(table_, dtable_);
}

} // namespace nn
} // namespace lt
