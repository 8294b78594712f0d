/**
 * @file
 * ExecutionEngine: the multi-core, batched GEMM execution layer.
 *
 * The Lightening-Transformer accelerator is an array of Nt x Nc DPTC
 * tensor cores, each computing one-shot [Nh, Nlambda] x [Nlambda, Nv]
 * tiles in parallel (paper Section IV). This engine is the software
 * mirror of that layout: it owns a pool of identical DPTC core
 * replicas and accumulates k-slices digitally per output tile
 * (output-stationary, like the hardware). Every entry point — a
 * single gemm, a gemmBatch, a stacked-row dispatch — runs through one
 * dispatch: the call's (product, output tile) units shard across the
 * replicas on the global thread pool, for static-weight projections
 * and dynamic attention products alike.
 *
 * Determinism: every output tile seeds its noise from (stream, tile
 * index) — see Dptc::gemmTiles — so results are bit-identical at any
 * thread count. Streams come in two flavours:
 *
 *  - stream-addressed calls (gemm/gemmBatch with explicit stream ids,
 *    used by the stateless model forwards via RunContext::stream) are
 *    pure functions of (operands, config, stream): independent of
 *    engine call history and of how many requests run concurrently;
 *  - legacy stream-less calls consume an internal counter in call
 *    order, so a freshly-constructed engine replays the exact same
 *    sequence of noisy results for the same sequence of calls, while
 *    distinct calls draw independent noise.
 */

#ifndef LT_NN_EXECUTION_ENGINE_HH
#define LT_NN_EXECUTION_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/dptc.hh"
#include "core/fault_model.hh"
#include "nn/gemm_backend.hh"

namespace lt {
namespace obs {
class TraceScope;
}
namespace nn {

/**
 * Detection and recovery knobs of the engine's ABFT layer. Active
 * whenever some replica is configured faulty (EngineConfig::faults) or
 * `verify` is set explicitly; otherwise the engine stays on the
 * unchecked tile loop.
 */
struct FaultPolicy
{
    /**
     * Verify tile checksums even with injection off — the deployment
     * posture for real (non-simulated) device faults. Verification
     * never changes results; it only arms detection/recovery.
     */
    bool verify = false;

    /**
     * Re-executions of a detected-faulty tile, each on the next
     * replica of the call's healthy snapshot, before the call gives
     * up with EngineFaultError. A tile that fails on every snapshot
     * replica first falls back to an uninjected run instead.
     */
    size_t max_tile_retries = 3;

    /**
     * Detected faults on one replica before it is quarantined. The
     * engine reshards over the survivors from the next call on: a
     * call's tiles all retry over the snapshot the call started with.
     */
    size_t quarantine_threshold = 3;
};

/** Replica-health snapshot of a fault-tolerant engine. */
struct EngineStatus
{
    size_t total_replicas = 0;
    size_t healthy_replicas = 0;
    size_t quarantined_replicas = 0;

    /**
     * Every replica quarantined: tiles run unchecked and uninjected
     * on the same kernel (bit-identical results, photonic speedup
     * forfeited) instead of aborting.
     */
    bool degraded = false;

    uint64_t faults_detected = 0;
    uint64_t fault_retries = 0;
    uint64_t quarantines = 0;
};

/** Engine geometry and evaluation fidelity. */
struct EngineConfig
{
    core::DptcConfig dptc;
    core::EvalMode mode = core::EvalMode::Noisy;

    /**
     * DPTC core replicas to shard tiles across. Mirrors
     * arch::ArchConfig's cores per chip (LT-B: nt * nc = 4 * 2 = 8,
     * Table IV); 0 means one replica per thread-pool worker.
     */
    size_t num_cores = 8;

    /**
     * Serve pre-encoded weight operands (supportsWeightPlans()) and,
     * on them, stacked-row decode projections (supportsRowStacking()).
     * Off forces the nn layers down the per-call re-encode path — the
     * "cache off" side of the cached-vs-uncached identity tests and
     * of bench_engine_scaling's decode-regime scenario. Results are
     * bit-identical either way.
     */
    bool weight_plans = true;

    /**
     * Serve encoded K/V cache operands (supportsKvPlans()): the
     * decode path keeps per-head K^T/V encoded and appends one
     * packed column/row per token instead of re-encoding the whole
     * cache every step. Off forces per-step K/V re-encodes (the PR 4
     * steady state — the baseline column of bench_engine_scaling's
     * decode scenario). Results are bit-identical either way.
     */
    bool kv_plans = true;

    /**
     * Per-replica fault injection (core::FaultModel). No replica is
     * faulty by default: every tile runs unchecked and every golden
     * digest and perf baseline is unchanged. Any faulty() replica arms
     * the checks.
     */
    core::FaultConfig faults{};

    /** Detection/recovery knobs (active when a replica is faulty or
     *  verify is set). */
    FaultPolicy fault_policy{};
};

/** Multi-core tiled GEMM executor over DPTC replicas. */
class ExecutionEngine : public GemmBackend
{
  public:
    explicit ExecutionEngine(const EngineConfig &cfg);
    ExecutionEngine(const core::DptcConfig &dcfg, core::EvalMode mode,
                    size_t num_cores = 8);

    /**
     * Tiled [m,k] x [k,n] product: operands are beta-normalized and
     * quantized once, then output tiles are sharded across the core
     * replicas. Bit-identical at any thread count; consumes the next
     * internal stream id, so repeated calls draw fresh noise.
     */
    Matrix gemm(const Matrix &a, const Matrix &b) override;

    /**
     * Stream-addressed product: noise depends only on (operands,
     * config, stream) — the engine's internal counter is untouched,
     * so concurrent requests with their own NoiseStream lanes get
     * results identical to running alone.
     */
    Matrix gemm(const Matrix &a, const Matrix &b,
                uint64_t stream) override;

    /**
     * Batched execution: run many independent products in one call.
     * The batch's (product, output tile) units shard across the
     * replicas as one range, so many small GEMMs (the serving regime)
     * and a few large ones keep the cores equally busy. Stream ids
     * are assigned to the products in order before dispatch, so
     * results match gemm() called per product in order on an engine
     * with the same call history — regardless of which core runs
     * which tile.
     */
    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products)
        override;

    /** Stream-addressed batch: product i draws from streams[i]. */
    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products,
              const std::vector<uint64_t> &streams) override;

    // ---- stride-aware operand views ------------------------------
    // Views execute natively: operands are encoded straight from the
    // viewed storage (Dptc::encode reads through the leading
    // dimension / transposed flag), so a transposed or column-block
    // operand costs no materialized copy — and results are
    // bit-identical to passing the materialized equivalent.

    Matrix gemm(const ConstMatrixView &a, const ConstMatrixView &b,
                uint64_t stream) override;

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<ConstMatrixView,
                                          ConstMatrixView>> &products,
              const std::vector<uint64_t> &streams) override;

    // ---- pre-encoded weight operands -----------------------------
    // The decode/serve steady state: the stationary operand of every
    // projection GEMM is encoded once (encodeWeight) and reused, so a
    // step re-encodes only its activations. Bit-identical to the
    // dense-operand calls (encoding is deterministic).

    bool supportsWeightPlans() const override
    {
        return cfg_.weight_plans;
    }

    /** Encode a weight once (counts one weight_encode_miss). */
    core::EncodedOperand encodeWeight(const Matrix &w) override;

    /**
     * Stream-addressed product against a pre-encoded right operand
     * (counts one weight/kv encode hit by the operand's kind). The
     * activation is encoded per call.
     */
    Matrix gemm(const Matrix &a, const core::EncodedOperand &w,
                uint64_t stream) override;

    /** Stream-addressed batch against pre-encoded right operands. */
    std::vector<Matrix>
    gemmBatch(const std::vector<
                  std::pair<const Matrix *,
                            const core::EncodedOperand *>> &products,
              const std::vector<uint64_t> &streams) override;

    /** View-A variant of the pre-encoded batch. */
    std::vector<Matrix>
    gemmBatch(const std::vector<
                  std::pair<ConstMatrixView,
                            const core::EncodedOperand *>> &products,
              const std::vector<uint64_t> &streams) override;

    // ---- stacked-row dispatch ------------------------------------
    // The serve decode regime: N requests' [1, k] rows against the
    // shared pre-encoded weight in ONE dispatch. Row i runs as the
    // solo product gemm(rows[i], w, streams[i]) — its own [1, k]
    // encode, beta and stream seed — and the rows are that dispatch's
    // products, so their (row, column tile) units shard across the
    // replicas like any call's (product, output tile) units and
    // result i is bit-identical to the solo product. The dispatch
    // saves engine calls, not DPTC passes: each row is a one-row
    // pass, as it is alone. It needs the shared encoded weight, so it
    // is on exactly when weight plans are.

    bool
    supportsRowStacking() const override
    {
        return cfg_.weight_plans;
    }

    std::vector<Matrix>
    gemmRowStacked(const std::vector<ConstMatrixView> &rows,
                   const core::EncodedOperand &w,
                   const std::vector<uint64_t> &streams) override;

    // ---- encoded K/V caches --------------------------------------

    bool supportsKvPlans() const override { return cfg_.kv_plans; }

    /**
     * (Re)build a growing K/V operand's encoding: a fresh packed
     * encode when `op` is empty or was packed for another geometry,
     * an in-place requantization (capacity preserved) otherwise.
     * Counts one kv_encode_miss either way.
     */
    void encodeKvInto(core::EncodedOperand &op, const ConstMatrixView &m,
                      core::OperandSide side) override;

    core::EvalMode mode() const { return cfg_.mode; }
    size_t numCores() const { return cores_.size(); }

    /**
     * Replica-health + fault-counter snapshot. Cheap and thread-safe;
     * all-healthy and all-zero while the fault layer is inactive.
     */
    EngineStatus status() const;

    /** Core replica i (replica 0 is the pre-refactor single core). */
    core::Dptc &core(size_t i = 0) { return cores_.at(i); }
    const core::Dptc &core(size_t i = 0) const { return cores_.at(i); }

  private:
    /**
     * One product of a dispatch: a left operand view plus either a
     * right operand view (encoded per call) or a pre-encoded operand
     * (weight plan / encoded K-V cache).
     */
    struct ProductRef
    {
        ConstMatrixView a;
        ConstMatrixView b;                  ///< right operand view…
        const core::EncodedOperand *b_plan; ///< …or pre-encoded form
    };

    /**
     * The one dispatch behind every public entry point; product i
     * draws from stream streams[i]. Validates every product and counts
     * its call, MACs and encoded hit (the span's "macs" and "encoded"
     * args, after the adapter's count arg), then runs the tiles: the
     * call's (product, output tile) units shard across the replicas in
     * one parallelFor. Unchecked (fault layer disarmed, or every
     * replica quarantined), each shard hands each product's contiguous
     * run of its units to one Dptc::gemmTiles call; fault-armed, each
     * unit runs through runTileChecked against the healthy snapshot
     * the call read once. Each product's operands are encoded once,
     * by the first shard that reaches it. A checked tile's
     * EngineFaultError is rethrown after every shard has finished.
     */
    std::vector<Matrix> run(std::span<const ProductRef> products,
                            std::span<const uint64_t> streams,
                            obs::TraceScope &span);

    // ---- fault-tolerant dispatch (active iff fault_active_) ------

    /**
     * Execute + verify + recover ONE output tile of a checked call.
     * Attempt r runs on replica healthy[(tile + r) mod |healthy|] of
     * the call's snapshot, followed by injection (when configured)
     * and ABFT checksum verification. A failed attempt counts a fault
     * against its replica; past max_tile_retries it throws
     * EngineFaultError, and after failing on every snapshot replica
     * the tile reruns uninjected (the digital fallback). The tile's
     * Gaussian draws, failed attempts included, add to `draws`.
     */
    void runTileChecked(const core::EncodedOperand &a,
                        const core::EncodedOperand &b, double scale,
                        size_t tile, Matrix &out, uint64_t stream_seed,
                        const std::vector<size_t> &healthy,
                        uint64_t &draws);

    /**
     * ABFT verification of one tile region: per-column checksums
     * against the digitally recomputed quantized product (the
     * quantization cancels exactly — only legitimate noise remains)
     * plus a Frobenius-norm energy check. Returns true when the
     * region is within the calibrated envelope.
     */
    bool verifyTile(const core::EncodedOperand &a,
                    const core::EncodedOperand &b, double scale,
                    size_t tc, const Matrix &out, size_t row0,
                    size_t rows, size_t col0, size_t cols) const;

    /** Count a fault against `replica`; quarantine on threshold. */
    void recordReplicaFault(size_t replica);

    /** Copy of the healthy replica list (empty = degraded). */
    std::vector<size_t> healthySnapshot() const;

    void validateEncoded(const ConstMatrixView &a,
                         const core::EncodedOperand &w) const;

    /** Count one encoded-dispatch hit on the kind-matched counter. */
    void recordEncodedHit(const core::EncodedOperand &w);

    EngineConfig cfg_;

    /**
     * One Dptc per shard. The replicas are functionally identical
     * today (gemmTiles is const and counter-seeded), but they mirror
     * the hardware's per-core state — per-core calibration tables and
     * device variations land here in later PRs — and fix the shard
     * count.
     */
    std::vector<core::Dptc> cores_;

    /** Next internal stream id, consumed in (stream-less) call order. */
    std::atomic<uint64_t> next_stream_{0};

    // ---- fault-tolerance state -----------------------------------

    core::FaultModel fault_model_;

    /**
     * True when some replica is configured faulty or verification is
     * set: each dispatch then reads the healthy set once, and a
     * non-empty snapshot sends its tiles through runTileChecked. The
     * false side never touches the fault layer — no per-tile cost
     * (bench_engine_scaling's decode budget runs with it false).
     */
    bool fault_active_ = false;

    mutable std::mutex health_mu_;
    std::vector<uint32_t> replica_faults_;      ///< per-replica count
    std::vector<uint8_t> replica_quarantined_;  ///< 1 = quarantined
    std::vector<size_t> healthy_;               ///< surviving replicas
};

} // namespace nn
} // namespace lt

#endif // LT_NN_EXECUTION_ENGINE_HH
