/**
 * @file
 * Fake-quantization for low-bit Transformer training and inference.
 *
 * The paper applies low-bit quantization to both weights and
 * activations (following LSQ [15]) and trains with noise injected.
 * We implement per-tensor symmetric fake quantization with a dynamic
 * max-abs scale and straight-through gradients (quantization is
 * invisible to the backward pass).
 */

#ifndef LT_NN_QUANT_HH
#define LT_NN_QUANT_HH

#include "util/linalg.hh"

namespace lt {
namespace nn {

/** Bit widths for the quantized datapath. */
struct QuantConfig
{
    int weight_bits = 8;
    int act_bits = 8;
    bool enabled = true;

    bool operator==(const QuantConfig &) const = default;

    static QuantConfig
    disabled()
    {
        QuantConfig q;
        q.enabled = false;
        return q;
    }

    static QuantConfig
    w4a4()
    {
        return {4, 4, true};
    }

    static QuantConfig
    w8a8()
    {
        return {8, 8, true};
    }
};

/**
 * Per-tensor symmetric fake quantization: scale by max-abs into
 * [-1, 1], snap to the b-bit grid, scale back. Identity when bits <= 0
 * or the tensor is all-zero.
 */
Matrix fakeQuant(const Matrix &m, int bits);

/** Max-abs of a matrix (the dynamic quantization scale). */
double tensorScale(const Matrix &m);

} // namespace nn
} // namespace lt

#endif // LT_NN_QUANT_HH
