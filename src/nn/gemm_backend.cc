#include "gemm_backend.hh"

#include "util/logging.hh"

namespace lt {
namespace nn {

core::EncodedOperand
GemmBackend::encodeWeight(const Matrix &w)
{
    (void)w;
    lt_fatal("encodeWeight on a backend without weight-plan support "
             "(check supportsWeightPlans() first)");
}

Matrix
GemmBackend::gemm(const Matrix &a, const core::EncodedOperand &w,
                  uint64_t stream)
{
    (void)a;
    (void)w;
    (void)stream;
    lt_fatal("encoded-operand gemm on a backend without weight-plan "
             "support (check supportsWeightPlans() first)");
}

std::vector<Matrix>
GemmBackend::gemmBatch(
    const std::vector<
        std::pair<const Matrix *, const core::EncodedOperand *>>
        &products,
    const std::vector<uint64_t> &streams)
{
    (void)products;
    (void)streams;
    lt_fatal("encoded-operand gemmBatch on a backend without "
             "weight-plan support (check supportsWeightPlans() first)");
}

std::vector<Matrix>
GemmBackend::gemmBatch(
    const std::vector<
        std::pair<ConstMatrixView, const core::EncodedOperand *>>
        &products,
    const std::vector<uint64_t> &streams)
{
    (void)products;
    (void)streams;
    lt_fatal("encoded-operand gemmBatch on a backend without "
             "weight-plan support (check supportsWeightPlans() first)");
}

std::vector<Matrix>
GemmBackend::gemmRowStacked(const std::vector<ConstMatrixView> &rows,
                            const core::EncodedOperand &w,
                            const std::vector<uint64_t> &streams)
{
    (void)rows;
    (void)w;
    (void)streams;
    lt_fatal("gemmRowStacked on a backend without row-stacking "
             "support (check supportsRowStacking() first)");
}

void
GemmBackend::encodeKvInto(core::EncodedOperand &op,
                          const ConstMatrixView &m,
                          core::OperandSide side)
{
    (void)op;
    (void)m;
    (void)side;
    lt_fatal("encodeKvInto on a backend without encoded-K/V support "
             "(check supportsKvPlans() first)");
}

Matrix
IdealBackend::gemm(const Matrix &a, const Matrix &b)
{
    stats_.record(a.rows(), a.cols(), b.cols());
    return matmul(a, b);
}

Matrix
IdealBackend::gemm(const ConstMatrixView &a, const ConstMatrixView &b,
                   uint64_t stream)
{
    (void)stream;
    stats_.record(a.rows(), a.cols(), b.cols());
    return matmul(a, b);
}

std::vector<Matrix>
IdealBackend::gemmBatch(
    const std::vector<std::pair<ConstMatrixView, ConstMatrixView>>
        &products,
    const std::vector<uint64_t> &streams)
{
    (void)streams;
    stats_.recordBatch();
    std::vector<Matrix> results;
    results.reserve(products.size());
    for (const auto &[a, b] : products) {
        stats_.record(a.rows(), a.cols(), b.cols());
        results.push_back(matmul(a, b));
    }
    return results;
}

} // namespace nn
} // namespace lt
