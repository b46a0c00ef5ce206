#include "nn/fc.hh"

#include <algorithm>
#include <cstring>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/gemm.hh"

namespace fidelity
{

FC::FC(std::string name, int in_c, int units, std::vector<float> weights,
       std::vector<float> bias)
    : MacLayer(std::move(name)), inC_(in_c), units_(units),
      weights_(std::move(weights)), bias_(std::move(bias))
{
    fatal_if(in_c <= 0 || units <= 0, "fc ", name_,
             ": dimensions must be positive");
    std::size_t expect = static_cast<std::size_t>(in_c) * units;
    fatal_if(weights_.size() != expect, "fc ", name_, ": expected ",
             expect, " weights, got ", weights_.size());
    fatal_if(!bias_.empty() &&
             bias_.size() != static_cast<std::size_t>(units),
             "fc ", name_, ": bias size mismatch");
    // Immutable weights pack once, here; the quantised modes repack
    // lazily through onQuantChanged().
    packWeights();
}

void
FC::checkInput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "fc expects one input");
    panic_if(ins[0]->c() != inC_, "fc ", name_, ": input channels ",
             ins[0]->c(), " != ", inC_);
}

Tensor
FC::makeOutput(const std::vector<const Tensor *> &ins) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), units_);
}

float
FC::computeNeuron(const std::vector<const Tensor *> &ins,
                  const NeuronIndex &out, const OperandSub *sub) const
{
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    const float *xd = x.data().data();
    const float *wd = weights_.data();
    const std::size_t pos_base =
        ((static_cast<std::size_t>(out.n) * x.h() + out.h) * x.w() +
         out.w) * x.c();
    float acc = 0.0f;
    std::int64_t iacc = 0;
    for (int ci = 0; ci < inC_; ++ci) {
        std::size_t xoff = pos_base + ci;
        std::size_t widx = static_cast<std::size_t>(ci) * units_ + out.c;
        float xin = xd[xoff];
        float wv = wd[widx];
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::Input &&
                (s->termIndex >= 0 ? ci == s->termIndex
                                   : xoff == s->flatIndex)) {
                xin = s->value;
            } else if (s->kind == OperandSub::Kind::Weight &&
                       widx == s->flatIndex) {
                wv = s->value;
            }
        }
        for (const OperandSub *s = sub; s; s = s->next) {
            if (s->kind == OperandSub::Kind::PsumFlip &&
                ci == static_cast<int>(s->flatIndex)) {
                if (integer)
                    iacc = psumFlipInt(iacc, s->flipMask());
                else
                    acc = psumFlipFloat(acc, s->flipMask());
            }
        }
        if (integer)
            iacc += static_cast<std::int64_t>(quantInput(xin)) *
                    quantWeight(wv);
        else
            acc += storeInput(xin) * storeWeight(wv);
    }
    for (const OperandSub *s = sub; s; s = s->next) {
        if (s->kind == OperandSub::Kind::PsumFlip &&
            inC_ == static_cast<int>(s->flatIndex)) {
            if (integer)
                iacc = psumFlipInt(iacc, s->flipMask());
            else
                acc = psumFlipFloat(acc, s->flipMask());
        }
    }
    double facc = integer
        ? static_cast<double>(iacc) * inQuant_.scale * wQuant_.scale
        : static_cast<double>(acc);
    float b = bias_.empty() ? 0.0f : bias_[out.c];
    for (const OperandSub *s = sub; s; s = s->next)
        if (s->kind == OperandSub::Kind::Bias)
            b = s->value;
    return writeback(facc, b);
}

void
FC::packWeights() const
{
    // Stored-form conversion + lane-blocked scatter (see Conv2D).
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    Arena &arena = Arena::local();
    auto get = [&](const auto *src) {
        return [src, this](int k, int c) {
            return src[static_cast<std::size_t>(k) * units_ + c];
        };
    };
    if (integer) {
        auto tmp = arena.ints(weights_.size());
        simd::quantizeBatch(weights_.data(), tmp.data(),
                            weights_.size(), wQuant_);
        // Max |w| plus the operand bound |x| <= 2^(bits-1) proves the
        // narrow kernels' int32 chunk length; commit to the narrow or
        // the wide pack accordingly (both exact — see Conv2D).
        std::int32_t maxAbsW = 0;
        for (std::size_t i = 0; i < weights_.size(); ++i) {
            std::int32_t a = tmp[i] < 0 ? -tmp[i] : tmp[i];
            maxAbsW = a > maxAbsW ? a : maxAbsW;
        }
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        int chunk = simd::narrowChunkPairs(bits, maxAbsW);
        if (simd::narrowEligible(chunk)) {
            chunkPairs_ = chunk;
            wPackN_.resize(simd::packNarrowSize(inC_, units_));
            wPackI_.clear();
            wPackF_.clear();
            simd::packNarrow(inC_, units_, get(tmp.data()),
                             wPackN_.data());
        } else {
            constexpr int L = simd::kI64Lanes;
            chunkPairs_ = 0;
            wPackI_.resize(simd::packSize(inC_, units_, L));
            wPackN_.clear();
            wPackF_.clear();
            simd::packLaneBlocked(inC_, units_, L, get(tmp.data()),
                                  wPackI_.data());
        }
    } else {
        constexpr int L = simd::kF32Lanes;
        chunkPairs_ = 0;
        const float *src = weights_.data();
        Arena::Lease<float> tmp = arena.floats(
            precision_ == Precision::FP16 ? weights_.size() : 0);
        if (precision_ == Precision::FP16) {
            simd::roundToHalfBatch(weights_.data(), tmp.data(),
                                   weights_.size());
            src = tmp.data();
        }
        wPackF_.resize(simd::packSize(inC_, units_, L));
        wPackI_.clear();
        wPackN_.clear();
        simd::packLaneBlocked(inC_, units_, L, get(src),
                              wPackF_.data());
    }
    wPackValid_ = true;
}

Tensor
FC::forward(const std::vector<const Tensor *> &ins) const
{
    Tensor out = makeOutput(ins);
    forwardRegion(ins, Region::full(out), out);
    return out;
}

Region
FC::propagateRegion(const std::vector<const Tensor *> &, int,
                    const Region &in, const Tensor &out) const
{
    return in.acrossChannels(out);
}

void
FC::forwardRegion(const std::vector<const Tensor *> &ins,
                  const Region &region, Tensor &out) const
{
    // Fast path, bit-identical to computeNeuron(); see Conv2D.  Each
    // output position reduces over its own input row only, so
    // converting and running just the region's rows is exact.
    checkInput(ins);
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();

    const bool narrow = integer && chunkPairs_ > 0;
    const std::size_t len = static_cast<std::size_t>(region.n1 - region.n0) *
                            (region.h1 - region.h0) *
                            (region.w1 - region.w0) * inC_;
    Arena &arena = Arena::local();
    auto xs = arena.floats(precision_ == Precision::FP16 ? len : 0);
    auto xq = arena.ints(integer ? len : 0);
    // Narrowed operands, one zeroed pad element past the end so the
    // final position's odd-reduction pair is readable (its weight is
    // zero, so the value cannot matter).
    auto xn = arena.shorts(narrow ? len + 1 : 0);
    auto accF = arena.floats(
        integer ? 0 : simd::packSize(1, units_, simd::kF32Lanes));
    auto accL = arena.longs(
        integer
            ? (narrow ? simd::packSize(1, units_, simd::kNarrowLanes)
                      : simd::packSize(1, units_, simd::kI64Lanes))
            : 0);

    auto biasAt = [&](int u) {
        return bias_.empty() ? 0.0f : bias_[u];
    };
    auto wbInt = [&](std::int64_t iacc, int u) {
        return writeback(static_cast<double>(iacc) * inQuant_.scale *
                             wQuant_.scale,
                         biasAt(u));
    };
    auto wbFloat = [&](double acc, int u) {
        return writeback(acc, biasAt(u));
    };
    const simd::KernelTable &kt = simd::table();
    const int c0 = region.c0, c1 = region.c1;
    forEachPositionRun(x, region, [&](std::size_t p0, std::size_t np) {
        const std::size_t n = np * inC_;
        const float *xf = x.data().data() + p0 * inC_;
        float *o = out.data().data() + p0 * units_;
        if (integer) {
            simd::quantizeBatch(xf, xq.data(), n, inQuant_);
            if (narrow) {
                const bool declined =
                    simd::narrowOperands(xq.data(), xn.data(), n);
                xn[n] = 0;
                simd::denseNarrow(kt, xn.data(), xq.data(), declined, np,
                                  inC_, units_, c0, c1, wPackN_.data(),
                                  chunkPairs_, accL.data(), o, wbInt);
            } else {
                simd::denseInt(kt, xq.data(), np, inC_, units_, c0, c1,
                               wPackI_.data(), accL.data(), o, wbInt);
            }
            return;
        }
        if (precision_ == Precision::FP16) {
            simd::roundToHalfBatch(xf, xs.data(), n);
            xf = xs.data();
        }
        simd::denseFloat(kt, xf, np, inC_, units_, c0, c1,
                         wPackF_.data(), accF.data(), o, wbFloat);
    });
}

template <int W>
void
FC::forwardBatchedImpl(const Tensor &x, LanePlane &xplane,
                       const Region &region, const BatchCover *cover,
                       const Tensor &golden, LanePlane &out) const
{
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    Region fp = region;
    fp.c0 = 0;
    fp.c1 = inC_;
    xplane.ensure(x, fp);

    // An input plane row at (n, h, w) is already the lane-minor
    // operand row xg[k * W + l] the batched MAC kernels consume.  Float
    // modes read it in place unless FP16 must round raw bits (see
    // Conv2D::forwardBatchedImpl); integer modes quantise, and narrow,
    // one row at a time.
    const std::size_t rowLen = static_cast<std::size_t>(inC_) * W;
    const int redPairs = simd::packPairs(inC_);
    const bool convert =
        precision_ == Precision::FP16 && !xplane.storedForm();
    Arena &arena = Arena::local();
    auto xsF = arena.floats(convert ? rowLen : 0);
    auto xsI = arena.ints(integer ? rowLen : 0);
    auto xsN = arena.shorts(
        narrow ? static_cast<std::size_t>(2 * redPairs) * W : 0);
    if (narrow && 2 * redPairs > inC_)
        std::memset(xsN.data() + rowLen, 0, W * sizeof(std::int16_t));
    std::int64_t acc[simd::kNarrowLanes * W];
    auto biasAt = [&](int u) {
        return bias_.empty() ? nullptr : bias_.data() + u;
    };

    // Per covered position: load its operand row, then one MAC call
    // per run of covered units that stays inside a PL-wide pack block.
    const BatchCover::Span full{region.w0, region.w1};
    const BatchCover::Span cfull{region.c0, region.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    auto walk = [&](int PL, auto loadRow, auto macRun) {
        for (int n = region.n0; n < region.n1; ++n) {
            for (int h = region.h0; h < region.h1; ++h) {
                const BatchCover::Span *sp = &full;
                int nsp = 1;
                if (cover)
                    sp = cover->row(n, h, nsp);
                for (int si = 0; si < nsp; ++si) {
                    for (int w = sp[si].w0; w < sp[si].w1; ++w) {
                        loadRow(xplane.lanes(x.offset(n, h, w, 0)));
                        const std::size_t flat = golden.offset(n, h, w, 0);
                        for (int cs = 0; cs < ncs; ++cs) {
                            const int chi = csp[cs].w1;
                            for (int u = csp[cs].w0; u < chi;) {
                                const int nc =
                                    std::min(chi - u, PL - u % PL);
                                macRun(u, nc, out.lanes(flat + u));
                                u += nc;
                            }
                        }
                    }
                }
            }
        }
    };

    const simd::KernelTable &kt = simd::table();
    if (narrow) {
        // Exact by the chunk bound, hence bit-identical to the wide
        // path; the pad row of an odd reduction was zeroed above.  A
        // row holding a NaN operand is declined and runs wide.
        constexpr int PL = simd::kNarrowLanes;
        const std::size_t blkStride =
            static_cast<std::size_t>(redPairs) * 2 * PL;
        bool declined = false;
        walk(
            PL,
            [&](const float *row) {
                simd::quantizeBatch(row, xsI.data(), rowLen, inQuant_);
                declined =
                    simd::narrowOperands(xsI.data(), xsN.data(), rowLen);
            },
            [&](int u, int nc, float *op) {
                const std::int16_t *w = wPackN_.data() +
                                        (u / PL) * blkStride +
                                        (u % PL) * 2;
                if (declined)
                    simd::narrowPackMacWide(xsI.data(), w, inC_, PL * 2,
                                            W, nc, acc);
                else
                    kt.batchMacNarrow(xsN.data(), w, redPairs, PL * 2,
                                      chunkPairs_, W, nc, acc);
                writebackRun(acc, nc, W, biasAt(u), op);
            });
    } else if (integer) {
        constexpr int PL = simd::kI64Lanes;
        const std::size_t blkStride = static_cast<std::size_t>(inC_) * PL;
        walk(
            PL,
            [&](const float *row) {
                simd::quantizeBatch(row, xsI.data(), rowLen, inQuant_);
            },
            [&](int u, int nc, float *op) {
                kt.batchMacI64(xsI.data(),
                               wPackI_.data() + (u / PL) * blkStride +
                                   u % PL,
                               inC_, PL, W, nc, acc);
                writebackRun(acc, nc, W, biasAt(u), op);
            });
    } else {
        // The kernel writes the accumulators straight into the run's
        // lane rows; writebackRun adds bias and rounds in place.
        constexpr int PL = simd::kF32Lanes;
        const std::size_t blkStride = static_cast<std::size_t>(inC_) * PL;
        const float *xg = nullptr;
        walk(
            PL,
            [&](const float *row) {
                xg = row;
                if (convert) {
                    simd::roundToHalfBatch(row, xsF.data(), rowLen);
                    xg = xsF.data();
                }
            },
            [&](int u, int nc, float *op) {
                kt.batchMacF32(xg,
                               wPackF_.data() + (u / PL) * blkStride +
                                   u % PL,
                               inC_, PL, W, nc, op);
                writebackRun(op, nc, W, biasAt(u));
            });
    }
}

bool
FC::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                         LanePlane *const *inPlanes, const Region &region,
                         const BatchCover *cover, const Tensor &golden,
                         LanePlane &out) const
{
    checkInput(ins);
    if (region.empty())
        return true;
    switch (out.laneWidth()) {
      case 4:
        forwardBatchedImpl<4>(*ins[0], *inPlanes[0], region, cover,
                              golden, out);
        return true;
      case 8:
        forwardBatchedImpl<8>(*ins[0], *inPlanes[0], region, cover,
                              golden, out);
        return true;
    }
    return false;
}

std::size_t
FC::weightCount(const std::vector<const Tensor *> &) const
{
    return weights_.size();
}

float
FC::weightAt(const std::vector<const Tensor *> &, std::size_t idx) const
{
    panic_if(idx >= weights_.size(), "weight index out of range");
    return weights_[idx];
}

std::vector<NeuronIndex>
FC::inputConsumers(const std::vector<const Tensor *> &ins,
                   std::size_t elem) const
{
    checkInput(ins);
    NeuronIndex e = ins[0]->indexOf(elem);
    std::vector<NeuronIndex> out;
    out.reserve(units_);
    for (int u = 0; u < units_; ++u)
        out.push_back({e.n, e.h, e.w, u});
    return out;
}

std::vector<NeuronIndex>
FC::weightConsumers(const std::vector<const Tensor *> &ins,
                    std::size_t widx) const
{
    checkInput(ins);
    panic_if(widx >= weights_.size(), "weight index out of range");
    const Tensor &x = *ins[0];
    int u = static_cast<int>(widx % units_);
    std::vector<NeuronIndex> out;
    // One neuron per (n, h, w) position uses each weight.
    for (int n = 0; n < x.n(); ++n)
        for (int h = 0; h < x.h(); ++h)
            for (int w = 0; w < x.w(); ++w)
                out.push_back({n, h, w, u});
    return out;
}

} // namespace fidelity
