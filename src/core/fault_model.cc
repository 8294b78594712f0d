#include "fault_model.hh"

#include <cstring>

#include "util/rng.hh"

namespace lt {
namespace core {

bool
FaultModel::corruptTile(size_t replica, uint64_t stream_seed,
                        size_t tile, Matrix &out, size_t row0,
                        size_t rows, size_t col0, size_t cols,
                        double scale) const
{
    const ReplicaFaultConfig *rc = cfg_.replica(replica);
    if (rc == nullptr)
        return false;

    // One decision stream per (replica, GEMM stream, tile): the same
    // deriveSeed chain the noise pipeline addresses tiles with, so
    // whether (and how) a fault fires never depends on thread count
    // or call interleaving.
    Rng rng(deriveSeed(deriveSeed(cfg_.seed, replica),
                       deriveSeed(stream_seed, tile)));
    if (rc->activation_prob < 1.0 &&
        !rng.bernoulli(rc->activation_prob))
        return false;

    // A dead shard dominates every other kind: the replica produced
    // nothing, so the accumulated region is simply zero.
    if (rc->dead) {
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                out(row0 + r, col0 + c) = 0.0;
        return true;
    }

    bool injected = false;
    if (rc->drift_gain != 1.0) {
        for (size_t r = 0; r < rows; ++r)
            for (size_t c = 0; c < cols; ++c)
                out(row0 + r, col0 + c) *= rc->drift_gain;
        injected = true;
    }
    if (rc->stuck_channel >= 0 && cols > 0) {
        const size_t c =
            static_cast<size_t>(rc->stuck_channel) % cols;
        for (size_t r = 0; r < rows; ++r)
            out(row0 + r, col0 + c) = rc->stuck_value * scale;
        injected = true;
    }
    if (rc->bitflip_prob > 0.0 && rng.bernoulli(rc->bitflip_prob) &&
        rows > 0 && cols > 0) {
        const size_t r = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(rows) - 1));
        const size_t c = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(cols) - 1));
        double &v = out(row0 + r, col0 + c);
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        bits ^= uint64_t{1} << 59; // high exponent bit: x 2^(+-128)
        std::memcpy(&v, &bits, sizeof(bits));
        injected = true;
    }
    return injected;
}

} // namespace core
} // namespace lt
