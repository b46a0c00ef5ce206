#include "nn/matmul.hh"

#include <limits>

#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/gemm.hh"

namespace fidelity
{

MatMulAB::MatMulAB(std::string name, bool trans_b, float scale)
    : MacLayer(std::move(name)), transB_(trans_b), scale_(scale)
{
}

void
MatMulAB::checkInputs(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 2, "matmul expects two inputs");
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    panic_if(a.w() != 1 || b.w() != 1,
             "matmul ", name_, ": operands must have W = 1, got ",
             a.shapeStr(), " and ", b.shapeStr());
    panic_if(b.n() != 1, "matmul ", name_, ": B must have N = 1");
    if (transB_) {
        panic_if(a.c() != b.c(), "matmul ", name_, " (transB): A columns ",
                 a.c(), " != B columns ", b.c());
    } else {
        panic_if(a.c() != b.h(), "matmul ", name_, ": A columns ", a.c(),
                 " != B rows ", b.h());
    }
}

Tensor
MatMulAB::makeOutput(const std::vector<const Tensor *> &ins) const
{
    checkInputs(ins);
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    int out_cols = transB_ ? b.h() : b.c();
    return Tensor(a.n(), a.h(), 1, out_cols);
}

float
MatMulAB::computeNeuron(const std::vector<const Tensor *> &ins,
                        const NeuronIndex &out, const OperandSub *sub) const
{
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    int red = a.c();
    lastReduction_.store(red, std::memory_order_relaxed);
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    const float *ad = a.data().data();
    const float *bd = b.data().data();
    const std::size_t a_base =
        (static_cast<std::size_t>(out.n) * a.h() + out.h) * a.c();
    const std::size_t b_row =
        transB_ ? static_cast<std::size_t>(out.c) * b.c() : 0;
    const std::size_t b_cols = b.c();
    float acc = 0.0f;
    std::int64_t iacc = 0;
    for (int k = 0; k < red; ++k) {
        std::size_t aoff = a_base + k;
        std::size_t boff = transB_
            ? b_row + k
            : static_cast<std::size_t>(k) * b_cols + out.c;
        float av = ad[aoff];
        float bv = bd[boff];
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::Input &&
                (s->termIndex >= 0 ? k == s->termIndex
                                   : aoff == s->flatIndex)) {
                av = s->value;
            } else if (s->kind == OperandSub::Kind::Weight &&
                       boff == s->flatIndex) {
                bv = s->value;
            }
        }
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::PsumFlip &&
                k == static_cast<int>(s->flatIndex)) {
                if (integer)
                    iacc = psumFlipInt(iacc, s->flipMask());
                else
                    acc = psumFlipFloat(acc, s->flipMask());
            }
        }
        if (integer)
            iacc += static_cast<std::int64_t>(quantInput(av)) *
                    quantWeight(bv);
        else
            acc += storeInput(av) * storeWeight(bv);
    }
    for (const OperandSub *s = sub; s; s = s->next) {
        if (s->kind == OperandSub::Kind::PsumFlip &&
            red == static_cast<int>(s->flatIndex)) {
            if (integer)
                iacc = psumFlipInt(iacc, s->flipMask());
            else
                acc = psumFlipFloat(acc, s->flipMask());
        }
    }
    double facc = integer
        ? static_cast<double>(iacc) * inQuant_.scale * wQuant_.scale
        : static_cast<double>(acc);
    return writeback(facc * scale_, 0.0f);
}

Tensor
MatMulAB::forward(const std::vector<const Tensor *> &ins) const
{
    Tensor out = makeOutput(ins);
    forwardRegion(ins, Region::full(out), out);
    return out;
}

Region
MatMulAB::propagateRegion(const std::vector<const Tensor *> &, int inputIdx,
                          const Region &in, const Tensor &out) const
{
    return inputIdx == 0 ? in.acrossChannels(out) : Region::full(out);
}

void
MatMulAB::forwardRegion(const std::vector<const Tensor *> &ins,
                        const Region &region, Tensor &out) const
{
    // Fast path, bit-identical to computeNeuron(): B is converted once
    // per call, the region's A rows once each, then every row
    // accumulates in canonical k order.  Output row i reads only A's
    // row i, so running just the region's rows is exact.
    checkInputs(ins);
    if (region.empty())
        return;
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    int red = a.c();
    lastReduction_.store(red, std::memory_order_relaxed);
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;

    int cols = out.c();
    const int c0 = region.c0, c1 = region.c1;
    auto bAt = [&](int k, int c) {
        return transB_ ? static_cast<std::size_t>(c) * red + k
                       : static_cast<std::size_t>(k) * cols + c;
    };
    const std::size_t len = static_cast<std::size_t>(region.n1 - region.n0) *
                            (region.h1 - region.h0) * red;
    const float *ad = a.data().data();
    float *od = out.data().data();

    // B is an activation, so its pack is per-call arena scratch
    // rather than a persistent cache; the pack step also resolves
    // transB so the kernel always streams the fixed-width layouts.
    Arena &arena = Arena::local();
    const simd::KernelTable &kt = simd::table();
    if (integer) {
        auto aq = arena.ints(len);
        auto bq = arena.ints(b.size());
        simd::quantizeBatch(b.data().data(), bq.data(), b.size(),
                            wQuant_);
        auto wb = [&](std::int64_t iacc, int) {
            double facc = static_cast<double>(iacc) * inQuant_.scale *
                          wQuant_.scale;
            return writeback(facc * scale_, 0.0f);
        };
        // Per-call narrow eligibility: scan B's quantised magnitudes
        // for the chunk bound (see Conv2D::packWeights).  B is an
        // activation, so a NaN may quantise to INT32_MIN: its magnitude
        // saturates to INT32_MAX, which rules the narrow path out.
        std::int32_t maxAbsW = 0;
        for (std::size_t i = 0; i < b.size(); ++i) {
            std::int32_t v = bq[i] == std::numeric_limits<std::int32_t>::min()
                                 ? std::numeric_limits<std::int32_t>::max()
                                 : (bq[i] < 0 ? -bq[i] : bq[i]);
            maxAbsW = v > maxAbsW ? v : maxAbsW;
        }
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        int chunk = simd::narrowChunkPairs(bits, maxAbsW);
        if (simd::narrowEligible(chunk)) {
            auto an = arena.shorts(len + 1);
            auto bp = arena.shorts(simd::packNarrowSize(red, cols));
            simd::packNarrow(
                red, cols,
                [&](int k, int c) { return bq[bAt(k, c)]; },
                bp.data());
            auto accL = arena.longs(
                simd::packSize(1, cols, simd::kNarrowLanes));
            forEachPositionRun(a, region, [&](std::size_t p0,
                                              std::size_t np) {
                const std::size_t n = np * red;
                simd::quantizeBatch(ad + p0 * red, aq.data(), n,
                                    inQuant_);
                for (std::size_t i = 0; i < n; ++i)
                    an[i] = static_cast<std::int16_t>(aq[i]);
                an[n] = 0;
                simd::denseNarrow(kt, an.data(), np, red, cols, c0, c1,
                                  bp.data(), chunk, accL.data(),
                                  od + p0 * cols, wb);
            });
        } else {
            constexpr int L = simd::kI64Lanes;
            auto bp = arena.ints(simd::packSize(red, cols, L));
            simd::packLaneBlocked(
                red, cols, L,
                [&](int k, int c) { return bq[bAt(k, c)]; },
                bp.data());
            auto accL = arena.longs(simd::packSize(1, cols, L));
            forEachPositionRun(a, region, [&](std::size_t p0,
                                              std::size_t np) {
                simd::quantizeBatch(ad + p0 * red, aq.data(), np * red,
                                    inQuant_);
                simd::denseInt(kt, aq.data(), np, red, cols, c0, c1,
                               bp.data(), accL.data(), od + p0 * cols,
                               wb);
            });
        }
    } else {
        constexpr int L = simd::kF32Lanes;
        bool half = precision_ == Precision::FP16;
        auto as = arena.floats(half ? len : 0);
        auto bs = arena.floats(half ? b.size() : 0);
        const float *bf = b.data().data();
        if (half) {
            simd::roundToHalfBatch(bf, bs.data(), b.size());
            bf = bs.data();
        }
        auto bp = arena.floats(simd::packSize(red, cols, L));
        simd::packLaneBlocked(
            red, cols, L,
            [&](int k, int c) { return bf[bAt(k, c)]; }, bp.data());
        auto accF = arena.floats(simd::packSize(1, cols, L));
        forEachPositionRun(a, region, [&](std::size_t p0,
                                          std::size_t np) {
            const float *af = ad + p0 * red;
            if (half) {
                simd::roundToHalfBatch(af, as.data(), np * red);
                af = as.data();
            }
            simd::denseFloat(kt, af, np, red, cols, c0, c1, bp.data(),
                             accF.data(), od + p0 * cols,
                             [&](double acc, int) {
                                 return writeback(acc * scale_, 0.0f);
                             });
        });
    }
}

std::size_t
MatMulAB::weightCount(const std::vector<const Tensor *> &ins) const
{
    checkInputs(ins);
    return ins[1]->size();
}

float
MatMulAB::weightAt(const std::vector<const Tensor *> &ins,
                   std::size_t idx) const
{
    panic_if(idx >= ins[1]->size(), "B index out of range");
    return (*ins[1])[idx];
}

std::vector<NeuronIndex>
MatMulAB::inputConsumers(const std::vector<const Tensor *> &ins,
                         std::size_t elem) const
{
    checkInputs(ins);
    const Tensor &a = *ins[0];
    NeuronIndex e = a.indexOf(elem);
    int out_cols = transB_ ? ins[1]->h() : ins[1]->c();
    // An A element feeds every neuron of its output row.
    std::vector<NeuronIndex> out;
    out.reserve(out_cols);
    for (int j = 0; j < out_cols; ++j)
        out.push_back({e.n, e.h, 0, j});
    return out;
}

std::vector<NeuronIndex>
MatMulAB::weightConsumers(const std::vector<const Tensor *> &ins,
                          std::size_t widx) const
{
    checkInputs(ins);
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    NeuronIndex e = b.indexOf(widx);
    int col = transB_ ? e.h : e.c;
    // A B element feeds every neuron of its output column, in all
    // batches of A.
    std::vector<NeuronIndex> out;
    for (int n = 0; n < a.n(); ++n)
        for (int i = 0; i < a.h(); ++i)
            out.push_back({n, i, 0, col});
    return out;
}

} // namespace fidelity
