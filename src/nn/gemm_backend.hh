/**
 * @file
 * Pluggable GEMM execution backends for the Transformer stack.
 *
 * Every matrix multiply in the model (weight projections and the
 * dynamic attention products QK^T / AV) routes through a GemmBackend,
 * so the same network can run on exact arithmetic (the paper's "GPU"
 * reference) or on the noisy photonic DPTC functional model. The
 * photonic path is executed by the multi-core ExecutionEngine
 * (nn/execution_engine.hh), which shards GEMM tiles across DPTC core
 * replicas on the global thread pool.
 *
 * Noise addressing: stateless-inference forwards name the noise stream
 * of every product explicitly (a NoiseStream carried by RunContext),
 * so results are a pure function of (operands, config, stream) — they
 * do not depend on backend call history, thread scheduling, or how
 * many other requests execute concurrently. The stream-less gemm()
 * entry points remain for direct use (benches, ad-hoc products) and
 * consume an internal per-engine counter as before.
 */

#ifndef LT_NN_GEMM_BACKEND_HH
#define LT_NN_GEMM_BACKEND_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dptc.hh"
#include "util/linalg.hh"
#include "util/rng.hh"

namespace lt {
namespace nn {

/**
 * A GEMM dispatch failed integrity verification beyond the engine's
 * internal recovery budget (per-tile retries exhausted while healthy
 * replicas remained). Transient by design: the engine quarantines
 * repeat offenders between attempts, so a bounded caller-side retry
 * (the serve layer's step retry with backoff) typically lands on a
 * reshaped healthy set — or on the degraded unchecked path — and
 * succeeds.
 */
class EngineFaultError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Deterministic noise-stream allocator: yields decorrelated 64-bit
 * stream ids from a (base, counter) pair via the splitMix64 seed
 * derivation. A forward pass draws one id per GEMM in fixed call
 * order, so noisy results depend only on the stream a RunContext was
 * constructed with — never on which thread ran the product or on what
 * else the backend executed in between. Independent requests (batch
 * samples, decode sessions) take decorrelated lanes via lane().
 */
class NoiseStream
{
  public:
    NoiseStream() = default;
    explicit NoiseStream(uint64_t base) : base_(base) {}

    /** Claim the next stream id (call-order deterministic). */
    uint64_t
    next()
    {
        return deriveSeed(base_, count_++);
    }

    /**
     * Claim the next n ids without using them: the ids of products a
     * step skips because nobody reads their results. Every later
     * product then draws the id it would have drawn had they run.
     */
    void skip(uint64_t n) { count_ += n; }

    /** Decorrelated child stream for independent request/sample i. */
    NoiseStream
    lane(uint64_t i) const
    {
        return NoiseStream(deriveSeed(base_, i));
    }

    uint64_t base() const { return base_; }

  private:
    uint64_t base_ = 0;
    uint64_t count_ = 0;
};

/**
 * Statistics a backend gathers while the model runs. Counters are
 * atomic: tiles and batched products record concurrently once GEMMs
 * run on the thread pool.
 */
struct GemmStats
{
    std::atomic<size_t> calls{0};
    std::atomic<size_t> macs{0};

    /**
     * gemmBatch invocations (one per batch, however many products it
     * carries). The continuous-batching acceptance metric: a fused
     * decode step dispatches O(layers) batches regardless of how many
     * requests ride in each (test_serve pins it at batch sizes
     * 1..16).
     */
    std::atomic<size_t> batch_calls{0};

    /**
     * gemmRowStacked invocations (one per stacked dispatch, however
     * many request rows it carries; each row still runs as its own
     * solo product). The dispatch-count metric of the stacked decode
     * path: a fused decode step dispatches 6·depth+1 stacked
     * projections plus 2·depth attention batches, so total
     * dispatches/step drop from 8·depth+1 to 2·depth + (stacked) —
     * test_serve pins both counts exactly.
     */
    std::atomic<size_t> stacked_calls{0};

    /**
     * Encoded-operand cache effectiveness, split by operand class so
     * a dead K/V cache fails as loudly as a dead weight cache:
     *
     *  - weight_encode_*: static weight plans. A *hit* is one GEMM
     *    product served from a pre-encoded weight operand (no maxAbs
     *    / quantize / pack on the weight); a *miss* is one
     *    encodeWeight() call (a plan being built or rebuilt after a
     *    weight-version bump).
     *  - kv_encode_*: the growing decode K/V operands. A *hit* is
     *    one attention product dispatched on a cached encoded K/V
     *    operand (grown by an O(k) packed append instead of a fresh
     *    encode); a *miss* is one encodeKv() build or requantization
     *    (cache seeding at prefill, a beta outgrown by a new token,
     *    or a cache re-homed to a different backend).
     *
     * Steady-state decode must show BOTH miss counters == 0 — the
     * acceptance counters of the encoded-operand caches (tested in
     * tests/test_decode.cc, surfaced by serve::Metrics and the bench
     * JSON snapshots).
     */
    std::atomic<size_t> weight_encode_hits{0};
    std::atomic<size_t> weight_encode_misses{0};
    std::atomic<size_t> kv_encode_hits{0};
    std::atomic<size_t> kv_encode_misses{0};

    /**
     * Gaussian noise draws the DPTC kernels took (encoding magnitude
     * and phase draws plus per-output systematic eps draws), summed
     * across shards. The noise pipeline's load metric: decode-regime
     * cost is dominated by these draws, so the counter is surfaced by
     * serve::Metrics and the bench JSON snapshots to pin how much
     * sampling each configuration pays for.
     */
    std::atomic<size_t> gaussian_draws{0};

    /**
     * Fault-tolerance counters (ExecutionEngine ABFT layer; all zero
     * while fault injection/verification is disabled):
     *
     *  - faults_detected: output tiles whose checksum verification
     *    failed (injected or organic corruption caught at dispatch);
     *  - fault_retries: detected-faulty tiles re-executed on another
     *    replica;
     *  - fault_quarantines: replicas removed from the healthy set
     *    after repeated faults (the engine reshards over survivors).
     */
    std::atomic<size_t> faults_detected{0};
    std::atomic<size_t> fault_retries{0};
    std::atomic<size_t> fault_quarantines{0};

    void
    record(size_t m, size_t k, size_t n)
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        macs.fetch_add(m * k * n, std::memory_order_relaxed);
    }

    void
    recordBatch()
    {
        batch_calls.fetch_add(1, std::memory_order_relaxed);
    }

    void
    reset()
    {
        calls.store(0, std::memory_order_relaxed);
        macs.store(0, std::memory_order_relaxed);
        batch_calls.store(0, std::memory_order_relaxed);
        stacked_calls.store(0, std::memory_order_relaxed);
        weight_encode_hits.store(0, std::memory_order_relaxed);
        weight_encode_misses.store(0, std::memory_order_relaxed);
        kv_encode_hits.store(0, std::memory_order_relaxed);
        kv_encode_misses.store(0, std::memory_order_relaxed);
        gaussian_draws.store(0, std::memory_order_relaxed);
        faults_detected.store(0, std::memory_order_relaxed);
        fault_retries.store(0, std::memory_order_relaxed);
        fault_quarantines.store(0, std::memory_order_relaxed);
    }
};

/** Abstract GEMM executor. */
class GemmBackend
{
  public:
    GemmBackend() : uid_(nextUid()) {}
    virtual ~GemmBackend() = default;

    /**
     * Process-unique identity of this backend instance. Never reused
     * across the process lifetime, unlike the object's address —
     * caches keyed on it (the nn-layer WeightPlanCache) cannot serve
     * a stale entry to a new backend that happens to be allocated
     * where a destroyed one lived.
     */
    uint64_t uid() const { return uid_; }

    /** Compute a [m,k] x [k,n] product. */
    virtual Matrix gemm(const Matrix &a, const Matrix &b) = 0;

    /**
     * Stream-addressed product: `stream` names the noise stream this
     * GEMM draws from, making the result independent of backend call
     * history. Backends without per-call stochastic state ignore the
     * id (the default delegates to gemm()).
     */
    virtual Matrix
    gemm(const Matrix &a, const Matrix &b, uint64_t stream)
    {
        (void)stream;
        return gemm(a, b);
    }

    /**
     * Execute many independent products in one call. Results equal
     * gemm() applied per product, in order; multi-core backends
     * override this to shard all the products' output tiles across
     * their replicas (attention batches per-head QK^T / AV through
     * here).
     */
    virtual std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products)
    {
        stats_.recordBatch();
        std::vector<Matrix> results;
        results.reserve(products.size());
        for (const auto &[a, b] : products)
            results.push_back(gemm(*a, *b));
        return results;
    }

    /**
     * Stream-addressed batch: product i draws from streams[i].
     * Results equal gemm(a_i, b_i, streams[i]) per product, in order,
     * regardless of which core executes which product.
     */
    virtual std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products,
              const std::vector<uint64_t> &streams)
    {
        (void)streams;
        return gemmBatch(products);
    }

    // ---- stride-aware operand views ------------------------------
    //
    // A ConstMatrixView names an operand inside someone else's
    // storage (leading dimension, optional transposed read), so
    // callers stop materializing re-strided copies: attention
    // dispatches QK^T against a transposed view of the K cache, and a
    // column block of a projection output is a view, not a slice
    // copy. Results are bit-identical to materializing the views and
    // calling the dense overloads — the default implementations do
    // exactly that; DPTC-datapath backends read the views in place.

    /** Stream-addressed product on operand views. */
    virtual Matrix
    gemm(const ConstMatrixView &a, const ConstMatrixView &b,
         uint64_t stream)
    {
        Matrix ad = a.dense();
        Matrix bd = b.dense();
        return gemm(ad, bd, stream);
    }

    /** Stream-addressed batch on operand views. */
    virtual std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<ConstMatrixView,
                                          ConstMatrixView>> &products,
              const std::vector<uint64_t> &streams)
    {
        std::vector<Matrix> dense;
        dense.reserve(2 * products.size());
        std::vector<std::pair<const Matrix *, const Matrix *>> refs;
        refs.reserve(products.size());
        for (const auto &[a, b] : products) {
            dense.push_back(a.dense());
            dense.push_back(b.dense());
            refs.emplace_back(&dense[dense.size() - 2],
                              &dense[dense.size() - 1]);
        }
        return gemmBatch(refs, streams);
    }

    // ---- pre-encoded (static weight) operands --------------------
    //
    // Backends that execute on the DPTC datapath can accept the right
    // operand pre-encoded (core::EncodedOperand — beta + quantized +
    // packed, built once by encodeWeight). Results are bit-identical
    // to passing the dense weight: encoding is deterministic, so
    // caching it only removes repeated work. Layers gate on
    // supportsWeightPlans() and fall back to dense operands
    // otherwise.

    /** True when this backend executes pre-encoded weight operands. */
    virtual bool supportsWeightPlans() const { return false; }

    /**
     * Encode a static (weight) operand once for reuse across GEMMs.
     * Counts one weight_encode_miss (a plan build). Only valid on
     * backends with supportsWeightPlans().
     */
    virtual core::EncodedOperand encodeWeight(const Matrix &w);

    /**
     * Stream-addressed product against a pre-encoded weight. Equals
     * gemm(a, w_dense, stream) bit-for-bit when `w` encodes w_dense.
     * Counts one weight_encode_hit (kv_encode_hit for KvCache-kind
     * operands).
     */
    virtual Matrix gemm(const Matrix &a, const core::EncodedOperand &w,
                        uint64_t stream);

    /**
     * Stream-addressed batch against pre-encoded right operands
     * (product i: as[i] x *encoded[i], stream streams[i]). Counts one
     * weight_encode_hit or kv_encode_hit per product, by the
     * operand's OperandKind.
     */
    virtual std::vector<Matrix>
    gemmBatch(const std::vector<
                  std::pair<const Matrix *,
                            const core::EncodedOperand *>> &products,
              const std::vector<uint64_t> &streams);

    /** View-A variant of the pre-encoded batch. */
    virtual std::vector<Matrix>
    gemmBatch(const std::vector<
                  std::pair<ConstMatrixView,
                            const core::EncodedOperand *>> &products,
              const std::vector<uint64_t> &streams);

    // ---- stacked-row dispatch ------------------------------------
    //
    // The serve decode regime runs N requests' [1, k] activations
    // against the SAME pre-encoded weight. A backend with
    // supportsRowStacking() accepts all N rows in ONE dispatch and
    // runs them as N solo row products: row i is encoded on its own
    // and draws from stream streams[i], and the engine runs the rows
    // as one dispatch's products, sharding their (row, column tile)
    // units across its replicas as it does any batch's. Each row is
    // still a one-row DPTC pass, so the dispatch saves engine calls,
    // not passes. Results are bit-identical per row to gemm(rows[i],
    // w, streams[i]).

    /** True when this backend fuses stacked row dispatches. */
    virtual bool supportsRowStacking() const { return false; }

    /**
     * One stacked dispatch of N single-row products against a shared
     * pre-encoded weight: result i equals gemm(rows[i], w,
     * streams[i]) bit-for-bit. Counts one stacked_call plus the
     * per-row call/hit counters. Only valid on backends with
     * supportsRowStacking().
     */
    virtual std::vector<Matrix>
    gemmRowStacked(const std::vector<ConstMatrixView> &rows,
                   const core::EncodedOperand &w,
                   const std::vector<uint64_t> &streams);

    // ---- encoded K/V caches (growing activation operands) --------
    //
    // The decode K/V caches are *dynamic* operands that grow by one
    // token per step. Backends on the DPTC datapath can hold them in
    // encoded form: encodeKvInto() (re)builds the packed encoding —
    // cache seeding at prefill, or a requantization when a new
    // token's magnitude outgrows the cached beta — and the owner
    // appends subsequent tokens in place via
    // EncodedOperand::appendColumn/appendRow (O(k), no backend
    // round-trip). Dispatching on the cached encoding is
    // bit-identical to re-encoding the dense operand every step.

    /** True when this backend executes encoded K/V cache operands. */
    virtual bool supportsKvPlans() const { return false; }

    /**
     * Build (or requantize in place, preserving reserved packed
     * capacity) the encoded form of a growing K/V operand. Counts
     * one kv_encode_miss. Only valid on backends with
     * supportsKvPlans().
     */
    virtual void encodeKvInto(core::EncodedOperand &op,
                              const ConstMatrixView &m,
                              core::OperandSide side);

    virtual const GemmStats &stats() const { return stats_; }
    virtual void resetStats() { stats_.reset(); }

  protected:
    GemmStats stats_;

  private:
    static uint64_t
    nextUid()
    {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    uint64_t uid_;
};

/** Exact double-precision GEMM (digital reference). */
class IdealBackend : public GemmBackend
{
  public:
    using GemmBackend::gemm;

    Matrix gemm(const Matrix &a, const Matrix &b) override;

    /**
     * Views execute on the view-aware matmul directly (the B^T pack
     * of a transposed view is a straight copy) — bit-identical to
     * materializing the view first.
     */
    Matrix gemm(const ConstMatrixView &a, const ConstMatrixView &b,
                uint64_t stream) override;

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<ConstMatrixView,
                                          ConstMatrixView>> &products,
              const std::vector<uint64_t> &streams) override;
};

} // namespace nn
} // namespace lt

#endif // LT_NN_GEMM_BACKEND_HH
