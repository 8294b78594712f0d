/**
 * @file
 * EncodedOperand: a GEMM operand prepared once for the DPTC datapath.
 *
 * The paper's DPTC is *dynamically operated*: operands stream through
 * DAC + MZM encoding every shot, so a stationary operand (layer
 * weights during decode) costs the same to re-encode on every GEMM —
 * in the software model that was a full maxAbs + normalizeQuantize
 * pass over the weight matrix per call, plus a strided re-gather of
 * every B-tile column inside the tile kernel. An EncodedOperand is
 * the once-per-weight-version result of that preparation:
 *
 *  - beta:   the max-abs normalization scale (Section III-B),
 *  - data:   the beta-normalized, DAC-quantized values, laid out for
 *            the tile kernel:
 *              A side — row-major panels (a row's k-slice is one
 *              contiguous read, exactly the hoisted x-gather),
 *              B side — column-major-packed tiles: for each (output
 *              column tile, k-slice) block, the up-to-Nv columns are
 *              stored as contiguous length-Nlambda runs, so the hot
 *              loop reads each y-vector as a straight pointer walk
 *              instead of Nh strided gathers per tile.
 *
 * Dptc::encode() is the only producer of fresh encodings; B-side
 * operands additionally support *incremental growth* for the decode
 * K/V caches: appendColumn()/appendRow() quantize one new K column /
 * V row straight into the packed layout (one contiguous nlambda-run
 * per k-slice for a column append) without touching the existing
 * blocks, and reserve() pre-sizes the packed storage for a maximum
 * context so the block backing pointers stay stable across a whole
 * decode. Growth is bit-compatible with re-encoding the grown dense
 * operand from scratch as long as beta still covers the new values;
 * when it does not, the owner rebuilds via Dptc::encode (the KV-cache
 * requantization path). Dptc::gemmTiles() (the packed overload) is
 * the consumer. Encoding is pure and deterministic, so a GEMM on
 * pre-encoded operands is bit-identical to encoding inline.
 */

#ifndef LT_CORE_ENCODED_OPERAND_HH
#define LT_CORE_ENCODED_OPERAND_HH

#include <cstddef>
#include <vector>

#include "util/linalg.hh"

namespace lt {
namespace core {

/** Which side of the product an operand was packed for. */
enum class OperandSide
{
    A,  ///< left operand [m, k]: row-major panels
    B,  ///< right operand [k, n]: column-major-packed tiles
};

/**
 * What an encoding caches for — attribution for the GemmStats
 * encode-counter split (weight-plan hits/misses vs activation/KV
 * hits/misses), so a dead KV cache fails loudly in the same counters
 * a dead weight cache does.
 */
enum class OperandKind
{
    Transient,  ///< encoded inline for one product, never cached
    Weight,     ///< a static-weight plan (nn WeightPlanCache)
    KvCache,    ///< a growing decode K/V operand (AttentionKvCache)
};

/** A beta-normalized, quantized, kernel-layout GEMM operand. */
class EncodedOperand
{
  public:
    EncodedOperand() = default;

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }

    /** Max-abs normalization scale (1.0 for Ideal-mode encodes). */
    double beta() const { return beta_; }

    /** DAC width the values were quantized to (0 = raw, Ideal mode). */
    int bits() const { return bits_; }

    OperandSide side() const { return side_; }

    OperandKind kind() const { return kind_; }
    void setKind(OperandKind kind) { kind_ = kind; }

    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** A side: pointer to the contiguous row `r` (length cols()). */
    const double *
    row(size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /**
     * B side: pointer to the contiguous packed column `c` (local to
     * the tile, length nlambda) of k-slice `tk` in column tile `tc`.
     */
    const double *
    tileColumn(size_t tc, size_t tk, size_t c) const
    {
        return data_.data() +
               ((tc * tiles_k_cap_ + tk) * nv_ + c) * nlambda_;
    }

    /** B-side packing geometry (0 on A-side operands). */
    size_t packedNv() const { return nv_; }
    size_t packedNlambda() const { return nlambda_; }

    /**
     * B-side k-tile capacity: the stride (in k-slices) between
     * consecutive column-tile blocks. encode() sets it to the exact
     * k-tile count; reserve() raises it so row appends never
     * re-stride the packed blocks.
     */
    size_t packedKTileCapacity() const { return tiles_k_cap_; }

    // ---- incremental B-side growth (decode K/V caches) ------------

    /**
     * Pre-size the packed storage of a B-side operand for growth to
     * [max_rows, max_cols]: the k-tile stride is raised to cover
     * max_rows (re-packing the existing blocks once, here, instead of
     * on every append) and the full block footprint is allocated
     * zero-filled, so every subsequent appendColumn/appendRow up to
     * the reserved shape writes in place — the backing pointers of
     * all packed blocks are stable across the whole decode.
     */
    void reserve(size_t max_rows, size_t max_cols);

    /**
     * Append one column (length rows()) to a B-side operand, growing
     * cols() by one. `vals` are in the same (pre-normalization)
     * domain encode() consumed; each value is beta-normalized and
     * quantized exactly as a fresh encode would, and written as one
     * contiguous nlambda-run per k-slice of the column's tile — O(k)
     * work, no re-stride of existing blocks.
     *
     * Returns false (without writing) when a value's magnitude
     * exceeds beta(): the append would disagree with a fresh
     * re-encode of the grown operand (whose beta would be larger), so
     * the owner must rebuild via Dptc::encode instead.
     */
    bool appendColumn(const double *vals, size_t n);

    /**
     * Append one row (length cols()) to a B-side operand, growing
     * rows() by one — the V-cache append. Same beta contract as
     * appendColumn. Crossing into a k-slice beyond the reserved
     * k-tile capacity re-strides the packed blocks (geometric
     * growth); reserve() up front keeps appends re-stride-free.
     */
    bool appendRow(const double *vals, size_t n);

    /**
     * Re-quantize a B-side operand in place from its dense source
     * (same or grown shape) under a new beta, preserving the reserved
     * packed capacity — the KV-cache beta-growth path: when a new
     * token's magnitude outgrows the cached beta, every stored value
     * changes, but the backing blocks need not move. Bit-identical to
     * a fresh encode of `m` when new_beta == maxAbs(m).
     */
    void requantize(const ConstMatrixView &m, double new_beta);

    /**
     * Unpack to a dense [rows, cols] matrix of the normalized,
     * quantized values (what Dptc::normalizeQuantize would return).
     * Test/diagnostic helper, not a hot path.
     */
    Matrix normalized() const;

    /**
     * Backing-store pointer (test/diagnostic: the packed-block
     * pointer-stability assertions of the decode caches).
     */
    const double *packedData() const { return data_.data(); }

  private:
    friend class Dptc;

    /** Beta-normalize + DAC-quantize one raw value. */
    double quantizeValue(double v) const;

    /** Grow the k-tile stride to `new_cap`, re-packing blocks. */
    void growKTileCapacity(size_t new_cap);

    /** Column-tile blocks the current storage can hold. */
    size_t
    blockCapacity() const
    {
        const size_t block = tiles_k_cap_ * nv_ * nlambda_;
        return block == 0 ? 0 : data_.size() / block;
    }

    size_t rows_ = 0;
    size_t cols_ = 0;
    double beta_ = 0.0;
    int bits_ = 0;

    /**
     * True when beta was derived from the operand's max-abs (any
     * non-Ideal encode): growth past it must rebuild. Ideal-mode
     * encodes pin beta to 1.0 whatever the values, so appends never
     * invalidate them.
     */
    bool dynamic_beta_ = false;
    OperandSide side_ = OperandSide::A;
    OperandKind kind_ = OperandKind::Transient;

    // B-side tile geometry the data was packed for.
    size_t nv_ = 0;
    size_t nlambda_ = 0;
    size_t tiles_k_ = 0;      ///< k-tiles actually populated
    size_t tiles_k_cap_ = 0;  ///< k-tile stride between blocks

    std::vector<double> data_;
};

} // namespace core
} // namespace lt

#endif // LT_CORE_ENCODED_OPERAND_HH
