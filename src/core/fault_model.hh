/**
 * @file
 * FaultModel: deterministic, counter-addressed discrete-fault
 * injection for the DPTC core replicas.
 *
 * The paper's Gaussian noise pipeline models the *analog* imprecision
 * of a healthy device; real photonic parts additionally exhibit
 * discrete failures — a dead core, a DAC channel stuck at a rail, a
 * transient accumulator upset, a calibration table that drifted. The
 * FaultModel injects those at the engine's dispatch boundary, after a
 * replica's tile kernel has produced its (noisy) output region, so the
 * hot kernels stay untouched and the off path never reaches it.
 *
 * Addressing discipline: whether a fault fires on a given tile is a
 * pure function of (fault seed, replica, stream seed, tile) through
 * the same deriveSeed() chain the noise pipeline uses — independent
 * of thread count, call history, and wall clock. Combined with the
 * engine's tile-indexed replica assignment, an injected-fault run is
 * exactly reproducible, which is what lets tests pin recovery
 * bit-identity against the fault-free run.
 */

#ifndef LT_CORE_FAULT_MODEL_HH
#define LT_CORE_FAULT_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/linalg.hh"

namespace lt {
namespace core {

/** Discrete fault classes a core replica can exhibit. */
enum class FaultKind
{
    DeadShard,     ///< replica produces all-zero tile outputs
    StuckChannel,  ///< one DAC/output channel pinned at a rail value
    BitFlip,       ///< transient bit-flip in a digital accumulator
    Drift,         ///< calibration drift: multiplicative tile gain
};

/** Fault behaviour of ONE core replica (default: healthy). */
struct ReplicaFaultConfig
{
    /** DeadShard: the replica's tile outputs are zeroed. */
    bool dead = false;

    /**
     * StuckChannel: output column (stuck_channel mod tile width)
     * of every affected tile is pinned at stuck_value * scale —
     * a rail in the physical output domain (scale = beta_a * beta_b,
     * so the pinned value survives operand renormalization).
     * Negative = no stuck channel.
     */
    int stuck_channel = -1;
    double stuck_value = 4.0;

    /**
     * BitFlip: probability (per activated tile) of flipping one high
     * exponent bit of one accumulator word — the classic SEU model.
     */
    double bitflip_prob = 0.0;

    /** Drift: multiplicative gain on the tile output (1.0 = none). */
    double drift_gain = 1.0;

    /**
     * Per-tile activation probability of this replica's faults. 1.0
     * makes a persistent (hard) fault; < 1 models intermittents.
     */
    double activation_prob = 1.0;

    /** True when any fault kind is configured. */
    bool
    faulty() const
    {
        return dead || stuck_channel >= 0 || bitflip_prob > 0.0 ||
               drift_gain != 1.0;
    }
};

/**
 * Engine-level fault-injection configuration. Off by default: the
 * engine arms its checks only when some replica is faulty() (or
 * FaultPolicy::verify is set), and otherwise stays on the unchecked
 * tile loop, so every golden digest and perf baseline is unchanged.
 */
struct FaultConfig
{
    /** Base seed of the fault-activation hash chain. */
    uint64_t seed = 0x4641'554cULL; // "FAUL"

    /**
     * Per-replica fault behaviour, indexed by engine replica id.
     * Replicas beyond the vector (or with default entries) are
     * healthy.
     */
    std::vector<ReplicaFaultConfig> replicas;

    /** The replica's config, or nullptr when it is healthy. */
    const ReplicaFaultConfig *
    replica(size_t i) const
    {
        if (i >= replicas.size() || !replicas[i].faulty())
            return nullptr;
        return &replicas[i];
    }
};

/**
 * Applies configured faults to output tile regions. Stateless apart
 * from its config; safe to call concurrently from engine shards.
 */
class FaultModel
{
  public:
    FaultModel() = default;
    explicit FaultModel(const FaultConfig &cfg) : cfg_(cfg) {}

    const FaultConfig &config() const { return cfg_; }

    /**
     * Possibly corrupt the tile output region
     * out[row0..row0+rows) x [col0..col0+cols) as replica `replica`
     * would. The activation decision and every stochastic choice
     * inside derive from (seed, replica, stream_seed, tile) — the
     * noise pipeline's counter-addressing discipline — so injection
     * is bit-reproducible at any thread count. `scale` is the
     * product's beta_a * beta_b (rails pin in the physical domain).
     * Returns true when the region was modified.
     */
    bool corruptTile(size_t replica, uint64_t stream_seed, size_t tile,
                     Matrix &out, size_t row0, size_t rows,
                     size_t col0, size_t cols, double scale) const;

  private:
    FaultConfig cfg_;
};

} // namespace core
} // namespace lt

#endif // LT_CORE_FAULT_MODEL_HH
