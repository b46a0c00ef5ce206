#include "nn/matmul.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "nn/lanes.hh"
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
                const bool declined =
                    simd::narrowOperands(aq.data(), an.data(), n);
                an[n] = 0;
                simd::denseNarrow(kt, an.data(), aq.data(), declined, np,
                                  red, cols, c0, c1, bp.data(), chunk,
                                  accL.data(), od + p0 * cols, wb);
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

namespace
{

/**
 * Integer lane-wise MAC rows, the int64 twin of simd laneMacF32:
 * acc[c*W + l] = sum_k (int64)a[k*W + l] * b[c*bcol + k*bstride + l].
 * Exact, so a NaN operand's INT32_MIN multiplies as computeNeuron()
 * multiplies it — there is no narrow path to decline.
 */
template <int W>
void
laneMacI64(const std::int32_t *a, const std::int32_t *b, int red,
           std::size_t bstride, std::size_t bcol, int nc,
           std::int64_t *acc)
{
    std::fill_n(acc, nc * W, std::int64_t{0});
    for (int k = 0; k < red; ++k) {
        const std::int32_t *ak = a + k * W;
        const std::int32_t *bk = b + k * bstride;
        for (int c = 0; c < nc; ++c)
            for (int l = 0; l < W; ++l)
                acc[c * W + l] += static_cast<std::int64_t>(ak[l]) *
                                  bk[c * bcol + l];
    }
}

} // namespace

template <int W, class T>
void
MatMulAB::forwardBatchedImpl(const std::vector<const Tensor *> &ins,
                             LanePlane *const *inPlanes,
                             const Region &region, const BatchCover *cover,
                             const Tensor &golden, LanePlane &out) const
{
    // Attention lanes usually carry both operands dirty (a fault ahead
    // of the block reaches Q, K and V), so the kernel multiplies two
    // lane rows element by element: acc[l] += A[i,k][l] * B[c,k][l].
    // Each operand is staged as lane-minor stored-form values
    // x[e*W + l]: a plane that holds lane values (its input is dirty
    // in some lane; clean lanes hold golden bits there) is read in
    // place when already in stored form and converted otherwise; an
    // input with no lane values broadcasts its golden tensor.
    constexpr bool kInt = std::is_same_v<T, std::int32_t>;
    const Tensor &a = *ins[0];
    const Tensor &b = *ins[1];
    LanePlane &ap = *inPlanes[0];
    LanePlane &bp = *inPlanes[1];
    const int red = a.c();
    const int cols = golden.c();
    lastReduction_.store(red, std::memory_order_relaxed);
    if (!ap.valid().empty())
        ap.ensure(a, Region{region.n0, region.n1, region.h0, region.h1,
                            0, 1, 0, red});
    if (!bp.valid().empty())
        bp.ensure(b, Region::full(b));

    Arena &arena = Arena::local();
    auto lease = [&arena](std::size_t n) {
        if constexpr (kInt)
            return arena.ints(n);
        else
            return arena.floats(n);
    };
    auto stage = [&](const Tensor &t, const LanePlane &p,
                     const QuantParams &q, std::size_t off,
                     std::size_t len, T *dst) -> const T * {
        if (!p.valid().empty()) {
            const float *src = p.lanes(off);
            if constexpr (kInt) {
                simd::quantizeBatch(src, dst, len * W, q);
                return dst;
            } else {
                if (precision_ != Precision::FP16 || p.storedForm())
                    return src;
                simd::roundToHalfBatch(src, dst, len * W);
                return dst;
            }
        }
        const float *src = t.data().data() + off;
        if constexpr (kInt)
            simd::quantizeBatch(src, dst, len, q);
        else if (precision_ == Precision::FP16)
            simd::roundToHalfBatch(src, dst, len);
        else
            std::copy(src, src + len, dst);
        // Spread each value over its W lanes, last element first so
        // no value is overwritten before it is read.
        for (std::size_t e = len; e-- > 0;) {
            const T v = dst[e];
            for (int l = 0; l < W; ++l)
                dst[e * W + l] = v;
        }
        return dst;
    };

    // B whole, once per call; then one A row per covered output row.
    // B[c, k] sits at c*bcol + k*bstride lane rows from B's origin.
    auto bS = lease(b.size() * W);
    const T *bsrc = stage(b, bp, wQuant_, 0, b.size(), bS.data());
    const std::size_t bstride =
        transB_ ? W : static_cast<std::size_t>(cols) * W;
    const std::size_t bcol =
        transB_ ? static_cast<std::size_t>(red) * W : W;
    auto aS = lease(static_cast<std::size_t>(red) * W);

    const BatchCover::Span cfull{region.c0, region.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    // Column runs stay within one integer writeback run.
    constexpr int kRun = simd::kNarrowLanes;
    std::int64_t acc[kRun * W];
    const simd::KernelTable &kt = simd::table();
    for (int n = region.n0; n < region.n1; ++n) {
        for (int h = region.h0; h < region.h1; ++h) {
            if (cover) {
                int nsp = 0;
                cover->row(n, h, nsp);
                if (nsp == 0)
                    continue;
            }
            const T *arow =
                stage(a, ap, inQuant_, a.offset(n, h, 0, 0), red,
                      aS.data());
            const std::size_t flat = golden.offset(n, h, 0, 0);
            for (int cs = 0; cs < ncs; ++cs) {
                for (int c = csp[cs].w0; c < csp[cs].w1; c += kRun) {
                    const int nc = std::min(kRun, csp[cs].w1 - c);
                    float *op = out.lanes(flat + c);
                    if constexpr (kInt) {
                        laneMacI64<W>(arow, bsrc + c * bcol, red, bstride,
                                      bcol, nc, acc);
                        writebackRun(acc, nc, W, nullptr, op, scale_);
                    } else {
                        kt.laneMacF32(arow, bsrc + c * bcol, red, bstride,
                                      bcol, W, nc, op);
                        writebackRun(op, nc, W, nullptr, scale_);
                    }
                }
            }
        }
    }
}

bool
MatMulAB::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                               LanePlane *const *inPlanes,
                               const Region &region,
                               const BatchCover *cover,
                               const Tensor &golden, LanePlane &out) const
{
    checkInputs(ins);
    if (region.empty())
        return true;
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    switch (out.laneWidth()) {
      case 4:
        if (integer)
            forwardBatchedImpl<4, std::int32_t>(ins, inPlanes, region,
                                                cover, golden, out);
        else
            forwardBatchedImpl<4, float>(ins, inPlanes, region, cover,
                                         golden, out);
        return true;
      case 8:
        if (integer)
            forwardBatchedImpl<8, std::int32_t>(ins, inPlanes, region,
                                                cover, golden, out);
        else
            forwardBatchedImpl<8, float>(ins, inPlanes, region, cover,
                                         golden, out);
        return true;
    }
    return false;
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
