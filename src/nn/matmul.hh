/**
 * @file
 * Two-operand matrix multiplication (MatMulAB), used by attention.
 *
 * A has shape (N, Ha, 1, Ca) and B has shape (1, Hb, 1, Cb); both
 * operands are activations.  In the accelerator, the B operand streams
 * through the weight port, so FIdelity's fault models treat B elements
 * as "weights".  With transB the layer computes A * B^T (rows of B are
 * the reduction vectors), otherwise A * B.
 */

#ifndef FIDELITY_NN_MATMUL_HH
#define FIDELITY_NN_MATMUL_HH

#include <atomic>

#include "nn/layer.hh"

namespace fidelity
{

/** Batched A*B (or A*B^T) where both operands come from the graph. */
class MatMulAB : public MacLayer
{
  public:
    /**
     * @param name Layer name.
     * @param trans_b Compute A * B^T instead of A * B.
     * @param scale Constant multiplied into every output (e.g. the
     *              1/sqrt(d) attention scaling); applied at writeback.
     */
    MatMulAB(std::string name, bool trans_b, float scale = 1.0f);

    LayerKind kind() const override { return LayerKind::MatMul; }

    using Layer::forward;
    int numInputs() const override { return 2; }

    bool transB() const { return transB_; }

    /** Constant output scaling applied at writeback. */
    float outScale() const { return scale_; }

    Tensor makeOutput(const std::vector<const Tensor *> &ins) const override;
    Tensor forward(const std::vector<const Tensor *> &ins) const override;

    /**
     * Row-local in A: a change in A's row i reaches only output row i
     * (every column).  A change in B reaches every row.
     */
    Region propagateRegion(const std::vector<const Tensor *> &ins,
                           int inputIdx, const Region &in,
                           const Tensor &out) const override;

    /** Recompute only the region's rows (and columns). */
    void forwardRegion(const std::vector<const Tensor *> &ins,
                       const Region &region, Tensor &out) const override;

    /** Lanes over injections: lane-wise MAC rows, each operand read
     *  per lane where its plane holds lane values, else broadcast
     *  from the golden tensor. */
    bool forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden,
                              LanePlane &out) const override;

    std::size_t
    weightCount(const std::vector<const Tensor *> &ins) const override;
    float weightAt(const std::vector<const Tensor *> &ins,
                   std::size_t idx) const override;

    std::vector<NeuronIndex>
    inputConsumers(const std::vector<const Tensor *> &ins,
                   std::size_t elem) const override;
    std::vector<NeuronIndex>
    weightConsumers(const std::vector<const Tensor *> &ins,
                    std::size_t widx) const override;

    float computeNeuron(const std::vector<const Tensor *> &ins,
                        const NeuronIndex &out,
                        const OperandSub *sub) const override;

    int
    reductionLength() const override
    {
        return lastReduction_.load(std::memory_order_relaxed);
    }
    bool hasBias() const override { return false; }

  private:
    void checkInputs(const std::vector<const Tensor *> &ins) const;

    /** forwardRegionBatched at lane width W over stored-form operands
     *  of type T (float, or int32 in the integer modes). */
    template <int W, class T>
    void forwardBatchedImpl(const std::vector<const Tensor *> &ins,
                            LanePlane *const *inPlanes,
                            const Region &region, const BatchCover *cover,
                            const Tensor &golden, LanePlane &out) const;

    bool transB_;
    float scale_;

    // Recorded on every forward()/computeNeuron() so reductionLength()
    // has a defined value; the reduction depth is fixed by the input
    // shapes, so concurrent recorders always store the same number —
    // relaxed atomics make that benign race a defined one.
    mutable std::atomic<int> lastReduction_ = 0;
};

} // namespace fidelity

#endif // FIDELITY_NN_MATMUL_HH
