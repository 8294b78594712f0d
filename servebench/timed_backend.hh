/**
 * @file
 * TimedBackend: a GemmBackend decorator that forwards every call to
 * the engine under test and attributes the call to one of three
 * classes, counting calls and MACs always and wall time on request:
 *
 *  - static:  products whose right operand is a pre-encoded weight
 *             plan (the Q/K/V/O and FFN projections and the LM head,
 *             stacked-row dispatches included);
 *  - dynamic: activation x activation products (QK^T, AV), on dense
 *             operands or on encoded K/V cache operands;
 *  - encode:  weight-plan builds and K/V-cache encodes.
 *
 * Every virtual of GemmBackend is overridden, so no call reaches the
 * engine through a base-class default that would re-enter this
 * decorator and count one dispatch twice. Results and stats() are the
 * engine's own: the decorator only observes.
 *
 * Not thread-safe: the counters are plain fields, written by the one
 * thread that drives the model and read after that thread is joined.
 */

#ifndef SERVEBENCH_TIMED_BACKEND_HH
#define SERVEBENCH_TIMED_BACKEND_HH

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "nn/gemm_backend.hh"

namespace servebench {

using lt::Matrix;
using lt::ConstMatrixView;
using lt::core::EncodedOperand;

class TimedBackend : public lt::nn::GemmBackend
{
  public:
    /** One attribution class. */
    struct Class
    {
        uint64_t calls = 0;
        uint64_t macs = 0;
        double ms = 0.0; ///< 0 unless the backend is timed
    };

    struct Totals
    {
        Class static_w; ///< against encoded weight plans
        Class dynamic;  ///< activation x activation (QK^T, AV)
        Class encode;   ///< encodeWeight + encodeKvInto
        uint64_t stacked_calls = 0;
        uint64_t stacked_rows = 0;

        uint64_t dispatches() const { return static_w.calls + dynamic.calls; }
        uint64_t macs() const { return static_w.macs + dynamic.macs; }
        double busyMs() const { return static_w.ms + dynamic.ms + encode.ms; }
    };

    /**
     * @param inner the engine every call forwards to (must outlive
     *        this decorator)
     * @param timed read the clock around each call; off, only calls
     *        and MACs are counted
     */
    TimedBackend(lt::nn::GemmBackend &inner, bool timed)
        : inner_(inner), timed_(timed)
    {
    }

    const Totals &totals() const { return totals_; }
    void resetTotals() { totals_ = Totals{}; }

    Matrix
    gemm(const Matrix &a, const Matrix &b) override
    {
        Scope s(*this, totals_.dynamic, a.rows() * a.cols() * b.cols());
        return inner_.gemm(a, b);
    }

    Matrix
    gemm(const Matrix &a, const Matrix &b, uint64_t stream) override
    {
        Scope s(*this, totals_.dynamic, a.rows() * a.cols() * b.cols());
        return inner_.gemm(a, b, stream);
    }

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products)
        override
    {
        Scope s(*this, totals_.dynamic, denseMacs(products));
        return inner_.gemmBatch(products);
    }

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products,
              const std::vector<uint64_t> &streams) override
    {
        Scope s(*this, totals_.dynamic, denseMacs(products));
        return inner_.gemmBatch(products, streams);
    }

    Matrix
    gemm(const ConstMatrixView &a, const ConstMatrixView &b,
         uint64_t stream) override
    {
        Scope s(*this, totals_.dynamic, a.rows() * a.cols() * b.cols());
        return inner_.gemm(a, b, stream);
    }

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<ConstMatrixView,
                                          ConstMatrixView>> &products,
              const std::vector<uint64_t> &streams) override
    {
        uint64_t macs = 0;
        for (const auto &[a, b] : products)
            macs += a.rows() * a.cols() * b.cols();
        Scope s(*this, totals_.dynamic, macs);
        return inner_.gemmBatch(products, streams);
    }

    bool
    supportsWeightPlans() const override
    {
        return inner_.supportsWeightPlans();
    }

    EncodedOperand
    encodeWeight(const Matrix &w) override
    {
        Scope s(*this, totals_.encode, 0);
        return inner_.encodeWeight(w);
    }

    Matrix
    gemm(const Matrix &a, const EncodedOperand &w,
         uint64_t stream) override
    {
        Scope s(*this, classOf(w), a.rows() * a.cols() * w.cols());
        return inner_.gemm(a, w, stream);
    }

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<const Matrix *,
                                          const EncodedOperand *>>
                  &products,
              const std::vector<uint64_t> &streams) override
    {
        Scope s(*this, encodedClass(products), encodedMacs(products));
        return inner_.gemmBatch(products, streams);
    }

    std::vector<Matrix>
    gemmBatch(const std::vector<std::pair<ConstMatrixView,
                                          const EncodedOperand *>>
                  &products,
              const std::vector<uint64_t> &streams) override
    {
        Scope s(*this, encodedClass(products), encodedMacs(products));
        return inner_.gemmBatch(products, streams);
    }

    bool
    supportsRowStacking() const override
    {
        return inner_.supportsRowStacking();
    }

    std::vector<Matrix>
    gemmRowStacked(const std::vector<ConstMatrixView> &rows,
                   const EncodedOperand &w,
                   const std::vector<uint64_t> &streams) override
    {
        uint64_t macs = 0;
        for (const ConstMatrixView &r : rows)
            macs += r.rows() * r.cols() * w.cols();
        totals_.stacked_calls += 1;
        totals_.stacked_rows += rows.size();
        Scope s(*this, classOf(w), macs);
        return inner_.gemmRowStacked(rows, w, streams);
    }

    bool
    supportsKvPlans() const override
    {
        return inner_.supportsKvPlans();
    }

    void
    encodeKvInto(EncodedOperand &op, const ConstMatrixView &m,
                 lt::core::OperandSide side) override
    {
        Scope s(*this, totals_.encode, 0);
        inner_.encodeKvInto(op, m, side);
    }

    const lt::nn::GemmStats &stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }

  private:
    using Clock = std::chrono::steady_clock;

    /** Counts one call into `c` and, when timed, adds its wall time. */
    class Scope
    {
      public:
        Scope(TimedBackend &owner, Class &c, uint64_t macs)
            : c_(c), timed_(owner.timed_)
        {
            c_.calls += 1;
            c_.macs += macs;
            if (timed_)
                t0_ = Clock::now();
        }

        ~Scope()
        {
            if (timed_)
                c_.ms += std::chrono::duration<double, std::milli>(
                             Clock::now() - t0_)
                             .count();
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Class &c_;
        bool timed_;
        Clock::time_point t0_{};
    };

    Class &
    classOf(const EncodedOperand &w)
    {
        return w.kind() == lt::core::OperandKind::Weight
                   ? totals_.static_w
                   : totals_.dynamic;
    }

    /** A batch is attributed by its first product; the model never
     *  mixes weight plans and K/V operands in one batch. */
    template <typename A>
    Class &
    encodedClass(
        const std::vector<std::pair<A, const EncodedOperand *>> &products)
    {
        return products.empty() ? totals_.dynamic
                                : classOf(*products.front().second);
    }

    template <typename A>
    static uint64_t
    encodedMacs(
        const std::vector<std::pair<A, const EncodedOperand *>> &products)
    {
        uint64_t macs = 0;
        for (const auto &[a, w] : products)
            macs += rowsOf(a) * colsOf(a) * w->cols();
        return macs;
    }

    static uint64_t
    denseMacs(const std::vector<std::pair<const Matrix *,
                                          const Matrix *>> &products)
    {
        uint64_t macs = 0;
        for (const auto &[a, b] : products)
            macs += a->rows() * a->cols() * b->cols();
        return macs;
    }

    static uint64_t rowsOf(const Matrix *a) { return a->rows(); }
    static uint64_t colsOf(const Matrix *a) { return a->cols(); }
    static uint64_t rowsOf(const ConstMatrixView &a) { return a.rows(); }
    static uint64_t colsOf(const ConstMatrixView &a) { return a.cols(); }

    lt::nn::GemmBackend &inner_;
    bool timed_;
    Totals totals_;
};

} // namespace servebench

#endif // SERVEBENCH_TIMED_BACKEND_HH
