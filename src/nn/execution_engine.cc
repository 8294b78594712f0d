#include "execution_engine.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <string>

#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace lt {
namespace nn {

ExecutionEngine::ExecutionEngine(const EngineConfig &cfg)
    : cfg_(cfg), fault_model_(cfg.faults),
      fault_active_(cfg.fault_policy.verify ||
                    std::any_of(cfg.faults.replicas.begin(),
                                cfg.faults.replicas.end(),
                                [](const core::ReplicaFaultConfig &r) {
                                    return r.faulty();
                                }))
{
    size_t replicas = cfg.num_cores > 0
                          ? cfg.num_cores
                          : ThreadPool::global().numThreads();
    cores_.reserve(replicas);
    for (size_t i = 0; i < replicas; ++i)
        cores_.emplace_back(cfg.dptc);
    replica_faults_.assign(replicas, 0);
    replica_quarantined_.assign(replicas, 0);
    healthy_.resize(replicas);
    std::iota(healthy_.begin(), healthy_.end(), size_t{0});
}

ExecutionEngine::ExecutionEngine(const core::DptcConfig &dcfg,
                                 core::EvalMode mode, size_t num_cores)
    : ExecutionEngine(EngineConfig{dcfg, mode, num_cores})
{
}

std::vector<Matrix>
ExecutionEngine::run(std::span<const ProductRef> products,
                     std::span<const uint64_t> streams,
                     obs::TraceScope &span)
{
    const size_t n = products.size();
    if (streams.size() != n)
        lt_fatal("ExecutionEngine: ", streams.size(), " streams for ", n,
                 " products");
    const core::Dptc &proto = cores_.front();
    const core::EvalMode mode = cfg_.mode;

    // 1. Validate and count every product and allocate its output.
    //    Product i owns the call's units [first_unit[i],
    //    first_unit[i + 1]): its output tiles, in order.
    std::vector<Matrix> results;
    results.reserve(n);
    std::vector<size_t> first_unit(n + 1, 0);
    int64_t macs = 0;
    int64_t encoded = 0;
    for (size_t i = 0; i < n; ++i) {
        const ProductRef &p = products[i];
        size_t cols = p.b.cols();
        if (p.b_plan != nullptr) {
            validateEncoded(p.a, *p.b_plan);
            recordEncodedHit(*p.b_plan);
            cols = p.b_plan->cols();
            ++encoded;
        } else if (p.a.cols() != p.b.rows()) {
            lt_fatal("ExecutionEngine: inner dimension mismatch: ",
                     p.a.cols(), " vs ", p.b.rows());
        }
        stats_.record(p.a.rows(), p.a.cols(), cols);
        macs += static_cast<int64_t>(p.a.rows() * p.a.cols() * cols);
        results.emplace_back(p.a.rows(), cols, 0.0);
        first_unit[i + 1] =
            first_unit[i] + proto.outputTilesFor(p.a.rows(), cols);
    }
    span.setArg(1, "macs", macs);
    span.setArg(2, "encoded", encoded);

    // 2. Encode each product once, on the first shard that reaches it
    //    (a shard that needs a product another shard is encoding waits
    //    for it): its activation, and its right operand unless that
    //    arrived pre-encoded (weight plan / encoded K-V cache). Encoding
    //    inside the tile loop keeps one pool dispatch per call.
    std::vector<core::EncodedOperand> ea(n);
    std::vector<core::EncodedOperand> eb(n);
    std::vector<std::once_flag> encode_once(n);
    auto encode = [&](size_t i) {
        std::call_once(encode_once[i], [&] {
            ea[i] = proto.encode(products[i].a, core::OperandSide::A,
                                 mode);
            if (products[i].b_plan == nullptr)
                eb[i] = proto.encode(products[i].b,
                                     core::OperandSide::B, mode);
        });
    };
    auto rightOf = [&](size_t i) -> const core::EncodedOperand & {
        return products[i].b_plan != nullptr ? *products[i].b_plan
                                             : eb[i];
    };
    auto seedOf = [&](size_t i) {
        return deriveSeed(cfg_.dptc.seed, streams[i]);
    };

    // 3. Run the tiles. Units own disjoint output regions and every
    //    tile's noise is (stream, tile)-seeded, so the split affects
    //    wall-clock only, never the result. Draw counts accumulate per
    //    shard and fold into the shared atomic once per shard.
    //
    //    Disarmed, the fault layer costs this branch and one empty()
    //    test per product run of a shard. Armed, the call reads the
    //    healthy set once and every checked tile retries over that one
    //    snapshot, so a quarantine reaches the next call, never a
    //    sibling tile, and every count is the same at any thread
    //    count. With every replica quarantined the tiles run unchecked
    //    (degraded). A tile that runs out of retries throws: its shard
    //    stops and stashes the first exception (none may leak into a
    //    pool worker), the other shards run to completion, and the
    //    call rethrows it.
    const std::vector<size_t> healthy =
        fault_active_ ? healthySnapshot() : std::vector<size_t>{};
    std::mutex err_mu;
    std::exception_ptr err;
    ThreadPool::global().parallelFor(
        first_unit[n],
        [&](size_t begin, size_t end, size_t shard) {
            uint64_t draws = 0;
            size_t i = std::upper_bound(first_unit.begin(),
                                        first_unit.end(), begin) -
                       first_unit.begin() - 1;
            try {
                for (; begin < end; ++i) {
                    const size_t stop = std::min(end, first_unit[i + 1]);
                    if (stop == begin)
                        continue; // a product with no output tiles
                    encode(i);
                    const core::EncodedOperand &b = rightOf(i);
                    const double scale = ea[i].beta() * b.beta();
                    const size_t t0 = begin - first_unit[i];
                    const size_t t1 = stop - first_unit[i];
                    if (healthy.empty())
                        cores_[shard].gemmTiles(ea[i], b, mode, scale, t0,
                                                t1, results[i], seedOf(i),
                                                &draws);
                    else
                        for (size_t t = t0; t < t1; ++t)
                            runTileChecked(ea[i], b, scale, t, results[i],
                                           seedOf(i), healthy, draws);
                    begin = stop;
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mu);
                if (!err)
                    err = std::current_exception();
            }
            stats_.gaussian_draws.fetch_add(draws,
                                            std::memory_order_relaxed);
        },
        cores_.size());
    if (err)
        std::rethrow_exception(err);
    return results;
}

namespace {

/** Zero one output tile region (gemmTiles accumulates: re-runs and
 *  dead-shard injection both need the region cleared first). */
void
zeroRegion(Matrix &out, size_t row0, size_t rows, size_t col0,
           size_t cols)
{
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            out(row0 + r, col0 + c) = 0.0;
}

} // namespace

void
ExecutionEngine::runTileChecked(const core::EncodedOperand &a,
                                const core::EncodedOperand &b,
                                double scale, size_t tile, Matrix &out,
                                uint64_t stream_seed,
                                const std::vector<size_t> &healthy,
                                uint64_t &draws)
{
    const core::DptcConfig &g = cfg_.dptc;
    const size_t m = a.rows();
    const size_t n = b.cols();
    const size_t tiles_per_row = (n + g.nv - 1) / g.nv;
    const size_t tr = tile / tiles_per_row;
    const size_t tc = tile % tiles_per_row;
    const size_t row0 = tr * g.nh;
    const size_t col0 = tc * g.nv;
    const size_t rows = std::min(g.nh, m - row0);
    const size_t cols = std::min(g.nv, n - col0);

    // Attempt r runs on snapshot replica (tile + r) mod |snapshot|:
    // which replicas a tile tries, and therefore which faults can
    // fire, depends only on the tile and the call's snapshot — never
    // on thread count or on what sibling tiles record meanwhile.
    for (size_t attempt = 0; attempt < healthy.size(); ++attempt) {
        const size_t replica = healthy[(tile + attempt) % healthy.size()];
        if (attempt > 0) {
            stats_.fault_retries.fetch_add(1, std::memory_order_relaxed);
            obs::traceInstant("fault/retry", obs::kNoRequest, "replica",
                              static_cast<int64_t>(replica), "tile",
                              static_cast<int64_t>(tile));
        }
        zeroRegion(out, row0, rows, col0, cols);
        cores_[replica].gemmTiles(a, b, cfg_.mode, scale, tile,
                                  tile + 1, out, stream_seed, &draws);
        fault_model_.corruptTile(replica, stream_seed, tile, out,
                                 row0, rows, col0, cols, scale);
        if (verifyTile(a, b, scale, tc, out, row0, rows, col0, cols))
            return;

        stats_.faults_detected.fetch_add(1,
                                         std::memory_order_relaxed);
        obs::traceInstant("fault/detected", obs::kNoRequest,
                          "replica", static_cast<int64_t>(replica),
                          "tile", static_cast<int64_t>(tile));
        recordReplicaFault(replica);

        if (attempt >= cfg_.fault_policy.max_tile_retries)
            throw EngineFaultError(
                "ExecutionEngine: tile checksum failed after " +
                std::to_string(attempt + 1) +
                " attempts across replicas (tile " +
                std::to_string(tile) + ")");
    }

    // Digital fallback: the tile failed on every snapshot replica, so
    // it reruns on the same kernel with the same (stream, tile) noise
    // and no injection, bit-identical to a healthy-replica run.
    zeroRegion(out, row0, rows, col0, cols);
    cores_.front().gemmTiles(a, b, cfg_.mode, scale, tile, tile + 1, out,
                             stream_seed, &draws);
}

namespace {

// verifyTile's checksum tolerances. Every checksum compares a
// deviation from the digital recompute against the element's PHYSICAL
// noise basis sigma^2 = scale^2 * (sum_slices partial^2 +
// sum_j (a_j b_j)^2): the kernel's stochastic terms multiply each
// k-slice partial dot and each analog product, not the final
// accumulated value, so output-anchored envelopes misfire on
// cancellation-heavy columns (logits columns ride ~0.1 outputs on
// ~0.5 partials). All three multipliers are calibrated against the
// empirical worst case at DOUBLE the paper's noise across serve
// workloads and random sweeps with both samplers; tighten only with
// lighter noise.

/**
 * Per-column signed-sum multiplier: |sum_obs - sum_exp| vs the RSS of
 * the column's element bases. Distributed bias along a column
 * accumulates linearly while the envelope grows as sqrt(rows).
 * Measured legit max 0.40 at 2x paper noise.
 */
constexpr double kColumnTolerance = 1.0;

/**
 * Per-element multiplier: |obs - exp| vs the element's own basis. The
 * localized-fault detector (dead tile, stuck channel, bit flip,
 * strong drift). Measured legit max 0.46 at 2x paper noise.
 */
constexpr double kElemTolerance = 1.0;

/**
 * Tile-deviation multiplier: ||O - D||_F vs the RSS of all element
 * bases. Legitimate per-element deviations are independent draws at a
 * small fraction of their basis, so this ratio concentrates with tile
 * size; coherent corruption spread thinly across the tile (mild
 * calibration drift) does not. The check adds a (1 + 2/sqrt(N))
 * small-tile relaxation. Measured legit max 0.21 at 2x paper noise.
 */
constexpr double kNormTolerance = 0.30;

/** Absolute slack added to every checksum comparison. */
constexpr double kAbsTolerance = 1e-9;

} // namespace

bool
ExecutionEngine::verifyTile(const core::EncodedOperand &a,
                            const core::EncodedOperand &b,
                            double scale, size_t tc, const Matrix &out,
                            size_t row0, size_t rows, size_t col0,
                            size_t cols) const
{
    const size_t k = a.cols();
    const size_t nl = b.packedNlambda();
    if (nl == 0 || rows == 0 || cols == 0)
        return true; // nothing verifiable
    const size_t ktiles = (k + nl - 1) / nl;

    // Digital recompute of the tile from the SAME quantized operands
    // the kernel consumed, through the kernel's DETERMINISTIC channel
    // transfer — Eq. 9 per wavelength: mult_gain * x * y + add_gain *
    // (x^2 - y^2), with the dispersion-derived per-channel gains the
    // analog dot applies (quantization and dispersion both cancel
    // exactly; the add term survives even where x*y = 0, so a plain
    // dot-product reference misfires on it). What remains between D
    // and the output is purely stochastic.
    //
    // Alongside D, the PHYSICAL noise basis of each element: the
    // stochastic terms act on the k-slice partial sums (the per-slice
    // systematic eps multiplies each partial dot) and the individual
    // products (encoding noise inside the analog dot) — NOT on the
    // final accumulated value. Cancellation-heavy columns (e.g.
    // logits) have tiny outputs riding on large partials, so any
    // envelope anchored on output magnitude misfires on them;
    // sigma^2 = scale^2 * (sum_slices partial^2 + sum_j term_j^2) is
    // the scale legitimate noise actually has. O(rows*cols*k), paid
    // only while the fault layer is armed.
    const core::DDot &dd = cores_.front().ddot();
    const bool calibrated = cfg_.dptc.channel_calibration;
    std::vector<double> mult_gain(nl), add_gain(nl);
    for (size_t j = 0; j < nl; ++j) {
        mult_gain[j] = calibrated ? 1.0 : dd.multiplicativeGain(j);
        add_gain[j] = calibrated ? 0.0 : dd.additiveGain(j);
    }
    std::vector<double> d(rows * cols, 0.0);
    std::vector<double> var(rows * cols, 0.0);
    for (size_t r = 0; r < rows; ++r) {
        const double *ar = a.row(row0 + r);
        for (size_t c = 0; c < cols; ++c) {
            double acc = 0.0;
            double basis = 0.0;
            for (size_t tk = 0; tk < ktiles; ++tk) {
                const double *col = b.tileColumn(tc, tk, c);
                const size_t k0 = tk * nl;
                const size_t len = std::min(nl, k - k0);
                double partial = 0.0;
                double termsq = 0.0;
                for (size_t j = 0; j < len; ++j) {
                    const double x = ar[k0 + j];
                    const double y = col[j];
                    const double xy = x * y;
                    partial += mult_gain[j] * xy +
                               add_gain[j] * (x * x - y * y);
                    const double mag =
                        std::fabs(xy) +
                        std::fabs(add_gain[j]) * (x * x + y * y);
                    termsq += mag * mag;
                }
                acc += partial;
                basis += partial * partial + termsq;
            }
            d[r * cols + c] = scale * acc;
            var[r * cols + c] = scale * scale * basis;
        }
    }

    // Per-element checksums, plus structural signatures no continuous
    // noise process can produce:
    //  - non-finite or astronomically scaled values (a flipped high
    //    exponent bit multiplies by 2^(+-128); the legit output is a
    //    continuous variable within a few sigma of D, so landing
    //    120 binary orders of magnitude below the element's scale
    //    has measure zero);
    //  - magnitude deviations outside kElemTolerance x the element's
    //    physical noise basis. A corruption inside every element's
    //    basis is statistically indistinguishable from noise.
    double norm_diff_sq = 0.0;
    double basis_sum = 0.0;
    double sumsq_o = 0.0;
    double sumsq_d = 0.0;
    bool all_zero = true;
    bool any_signal = false;
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c) {
            const double ov = out(row0 + r, col0 + c);
            if (!std::isfinite(ov))
                return false;
            const double dv = d[r * cols + c];
            const double v = var[r * cols + c];
            const double sigma = std::sqrt(v);
            const double diff = ov - dv;
            if (ov != 0.0)
                all_zero = false;
            if (std::fabs(dv) > kAbsTolerance ||
                sigma > kAbsTolerance)
                any_signal = true;
            if (ov != 0.0 && std::fabs(ov) <
                                 0x1p-60 * (std::fabs(dv) + sigma))
                return false; // shrunk by a flipped exponent bit
            if (std::fabs(diff) >
                kElemTolerance * sigma + kAbsTolerance)
                return false;
            norm_diff_sq += diff * diff;
            basis_sum += v;
            sumsq_o += ov * ov;
            sumsq_d += dv * dv;
        }

    // Dead-region signature: every element EXACTLY 0.0 where the
    // reference carries signal. Legitimate analog noise is continuous
    // — an exact all-zero tile from a live shard has measure zero —
    // so this detects a dead shard at any SNR, including single-row
    // decode tiles whose per-element deviation sits inside the noise
    // basis.
    if (all_zero && any_signal)
        return false;

    // Tile deviation checksum: ||O - D||_F against the RSS of the
    // element bases, relaxed by (1 + 2/sqrt(N)) for thin tail tiles
    // (fewer observations, no concentration). Legitimate per-element
    // deviations are independent draws at a fraction of their basis,
    // so this ratio concentrates with tile size while corruption
    // spread across the tile (drift, attenuation) does not.
    const double nelem = static_cast<double>(rows * cols);
    if (std::sqrt(norm_diff_sq) >
        kNormTolerance * (1.0 + 2.0 / std::sqrt(nelem)) *
                std::sqrt(basis_sum) +
            kAbsTolerance)
        return false;

    // Gain checksum, gated on high SNR: when the tile's signal
    // dominates its noise basis (structured operands — attention
    // probabilities, aligned activations — unlike zero-mean random
    // fills), a relative gain error reads directly off the Frobenius
    // norms: dead 1.0, a 1.6x calibration drift 0.6, against
    // legitimate noise of at most ~0.25x signal at this gate.
    const double norm_d = std::sqrt(sumsq_d);
    if (norm_d >= 2.0 * std::sqrt(basis_sum) &&
        std::fabs(std::sqrt(sumsq_o) - norm_d) >
            0.5 * norm_d + kAbsTolerance)
        return false;

    // Column checksums: distributed bias along a column (mild drift,
    // a low DAC rail) accumulates linearly in the signed sum while
    // the envelope (RSS of the column's element bases) only grows as
    // sqrt(rows). A pinned (stuck-at) DAC channel additionally leaves
    // every row of its column at the SAME exact value — impossible
    // for continuous noise over distinct references.
    for (size_t c = 0; c < cols; ++c) {
        double so = 0.0;
        double sd = 0.0;
        double venv = 0.0;
        bool o_const = rows > 1;
        bool d_varies = false;
        const double o0 = out(row0, col0 + c);
        const double d0 = d[c];
        for (size_t r = 0; r < rows; ++r) {
            const double ov = out(row0 + r, col0 + c);
            const double dv = d[r * cols + c];
            so += ov;
            sd += dv;
            venv += var[r * cols + c];
            if (ov != o0)
                o_const = false;
            if (std::fabs(dv - d0) > kAbsTolerance)
                d_varies = true;
        }
        if (o_const && d_varies)
            return false; // stuck-at channel
        if (std::fabs(so - sd) >
            kColumnTolerance * std::sqrt(venv) + kAbsTolerance)
            return false;
    }
    return true;
}

void
ExecutionEngine::recordReplicaFault(size_t replica)
{
    std::lock_guard<std::mutex> lock(health_mu_);
    if (replica_quarantined_[replica])
        return;
    if (++replica_faults_[replica] <
        cfg_.fault_policy.quarantine_threshold)
        return;
    replica_quarantined_[replica] = 1;
    healthy_.erase(
        std::remove(healthy_.begin(), healthy_.end(), replica),
        healthy_.end());
    stats_.fault_quarantines.fetch_add(1, std::memory_order_relaxed);
    obs::traceInstant("fault/quarantine", obs::kNoRequest, "replica",
                      static_cast<int64_t>(replica), "healthy",
                      static_cast<int64_t>(healthy_.size()));
}

std::vector<size_t>
ExecutionEngine::healthySnapshot() const
{
    std::lock_guard<std::mutex> lock(health_mu_);
    return healthy_;
}

EngineStatus
ExecutionEngine::status() const
{
    EngineStatus s;
    {
        std::lock_guard<std::mutex> lock(health_mu_);
        s.total_replicas = cores_.size();
        s.healthy_replicas = healthy_.size();
        s.quarantined_replicas = cores_.size() - healthy_.size();
        s.degraded = fault_active_ && healthy_.empty();
    }
    s.faults_detected =
        stats_.faults_detected.load(std::memory_order_relaxed);
    s.fault_retries =
        stats_.fault_retries.load(std::memory_order_relaxed);
    s.quarantines =
        stats_.fault_quarantines.load(std::memory_order_relaxed);
    return s;
}

Matrix
ExecutionEngine::gemm(const Matrix &a, const Matrix &b)
{
    return gemm(a.view(), b.view(), next_stream_.fetch_add(1));
}

Matrix
ExecutionEngine::gemm(const Matrix &a, const Matrix &b, uint64_t stream)
{
    return gemm(a.view(), b.view(), stream);
}

Matrix
ExecutionEngine::gemm(const ConstMatrixView &a, const ConstMatrixView &b,
                      uint64_t stream)
{
    const ProductRef p{a, b, nullptr};
    obs::TraceScope span("engine/gemm", obs::kNoRequest, "products", 1);
    return std::move(run({&p, 1}, {&stream, 1}, span).front());
}

void
ExecutionEngine::validateEncoded(const ConstMatrixView &a,
                                 const core::EncodedOperand &w) const
{
    if (w.side() != core::OperandSide::B)
        lt_fatal("ExecutionEngine: pre-encoded operand must be "
                 "encoded for the B side");
    if (!cores_.front().acceptsEncoded(w, cfg_.mode))
        lt_fatal("ExecutionEngine: pre-encoded operand packed for a "
                 "different core geometry/mode");
    if (a.cols() != w.rows())
        lt_fatal("ExecutionEngine::gemm inner dimension mismatch: ",
                 a.cols(), " vs ", w.rows());
}

void
ExecutionEngine::recordEncodedHit(const core::EncodedOperand &w)
{
    auto &counter = w.kind() == core::OperandKind::KvCache
                        ? stats_.kv_encode_hits
                        : stats_.weight_encode_hits;
    counter.fetch_add(1, std::memory_order_relaxed);
}

core::EncodedOperand
ExecutionEngine::encodeWeight(const Matrix &w)
{
    stats_.weight_encode_misses.fetch_add(1, std::memory_order_relaxed);
    core::EncodedOperand op =
        cores_.front().encode(w, core::OperandSide::B, cfg_.mode);
    op.setKind(core::OperandKind::Weight);
    return op;
}

void
ExecutionEngine::encodeKvInto(core::EncodedOperand &op,
                              const ConstMatrixView &m,
                              core::OperandSide side)
{
    if (!cfg_.kv_plans)
        lt_fatal("encodeKvInto on an engine with kv_plans disabled "
                 "(check supportsKvPlans() first)");
    if (side != core::OperandSide::B)
        lt_fatal("encodeKvInto: decode K/V operands are B-side");
    stats_.kv_encode_misses.fetch_add(1, std::memory_order_relaxed);
    const core::Dptc &proto = cores_.front();
    const bool rebuildable =
        !op.empty() && op.side() == core::OperandSide::B &&
        proto.acceptsEncoded(op, cfg_.mode) && m.rows() >= op.rows() &&
        m.cols() >= op.cols();
    if (rebuildable && cfg_.mode != core::EvalMode::Ideal) {
        // Beta-growth requantization: rewrite the values in place so
        // the reserved packed capacity (and the block backing
        // pointers) survive. Bit-identical to a fresh encode.
        op.requantize(m, core::Dptc::maxAbs(m));
    } else {
        op = proto.encode(m, core::OperandSide::B, cfg_.mode);
    }
    op.setKind(core::OperandKind::KvCache);
}

Matrix
ExecutionEngine::gemm(const Matrix &a, const core::EncodedOperand &w,
                      uint64_t stream)
{
    const ProductRef p{a.view(), ConstMatrixView(), &w};
    obs::TraceScope span("engine/gemm", obs::kNoRequest, "products", 1);
    return std::move(run({&p, 1}, {&stream, 1}, span).front());
}

std::vector<Matrix>
ExecutionEngine::gemmBatch(
    const std::vector<std::pair<const Matrix *, const Matrix *>>
        &products)
{
    // Internal stream ids are claimed for the whole batch up front, in
    // product order — the assignment must not depend on which thread
    // runs which product.
    std::vector<uint64_t> streams(products.size());
    std::iota(streams.begin(), streams.end(),
              next_stream_.fetch_add(products.size()));
    return gemmBatch(products, streams);
}

std::vector<Matrix>
ExecutionEngine::gemmBatch(
    const std::vector<std::pair<const Matrix *, const Matrix *>>
        &products,
    const std::vector<uint64_t> &streams)
{
    std::vector<std::pair<ConstMatrixView, ConstMatrixView>> views;
    views.reserve(products.size());
    for (const auto &[pa, pb] : products)
        views.emplace_back(pa->view(), pb->view());
    return gemmBatch(views, streams);
}

std::vector<Matrix>
ExecutionEngine::gemmBatch(
    const std::vector<std::pair<ConstMatrixView, ConstMatrixView>>
        &products,
    const std::vector<uint64_t> &streams)
{
    std::vector<ProductRef> refs;
    refs.reserve(products.size());
    for (const auto &[va, vb] : products)
        refs.push_back(ProductRef{va, vb, nullptr});
    stats_.recordBatch();
    obs::TraceScope span("engine/gemmBatch", obs::kNoRequest,
                         "products", static_cast<int64_t>(refs.size()));
    return run(refs, streams, span);
}

std::vector<Matrix>
ExecutionEngine::gemmBatch(
    const std::vector<
        std::pair<const Matrix *, const core::EncodedOperand *>>
        &products,
    const std::vector<uint64_t> &streams)
{
    std::vector<std::pair<ConstMatrixView, const core::EncodedOperand *>>
        views;
    views.reserve(products.size());
    for (const auto &[pa, pw] : products)
        views.emplace_back(pa->view(), pw);
    return gemmBatch(views, streams);
}

std::vector<Matrix>
ExecutionEngine::gemmBatch(
    const std::vector<
        std::pair<ConstMatrixView, const core::EncodedOperand *>>
        &products,
    const std::vector<uint64_t> &streams)
{
    std::vector<ProductRef> refs;
    refs.reserve(products.size());
    for (const auto &[va, pw] : products)
        refs.push_back(ProductRef{va, ConstMatrixView(), pw});
    stats_.recordBatch();
    obs::TraceScope span("engine/gemmBatch", obs::kNoRequest,
                         "products", static_cast<int64_t>(refs.size()));
    return run(refs, streams, span);
}

std::vector<Matrix>
ExecutionEngine::gemmRowStacked(const std::vector<ConstMatrixView> &rows,
                                const core::EncodedOperand &w,
                                const std::vector<uint64_t> &streams)
{
    if (rows.empty())
        return {};
    // Row i is the solo product gemm(rows[i], w, streams[i]): its own
    // [1, k] encode (beta) and its own stream seed.
    std::vector<ProductRef> refs;
    refs.reserve(rows.size());
    for (const ConstMatrixView &r : rows) {
        if (r.rows() != 1)
            lt_fatal("gemmRowStacked: every stacked operand must be "
                     "a single row, got ", r.rows(), " rows");
        refs.push_back(ProductRef{r, ConstMatrixView(), &w});
    }
    stats_.stacked_calls.fetch_add(1, std::memory_order_relaxed);
    obs::TraceScope span("engine/gemmRowStacked", obs::kNoRequest,
                         "rows", static_cast<int64_t>(rows.size()));
    return run(refs, streams, span);
}

} // namespace nn
} // namespace lt
