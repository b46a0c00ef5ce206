#include "nn/conv.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/lanes.hh"
#include "sim/arena.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/pack.hh"
#include "simd/simd.hh"
#include "tensor/bitops.hh"

namespace fidelity
{

namespace
{

/**
 * Float-mode block kernel over one output region.
 *
 * Vectorizes across output-channel lanes: each lane accumulates its
 * own output in the canonical (ci, kh, kw) order with an unfused
 * multiply-add per term, so every lane is bit-identical to the scalar
 * kernel and to computeNeuron().  `loadX(n, ih, iw, ci)` returns the
 * stored-form operand (the zero stored-form when out of range), and
 * `wb(acc, oc)` applies bias and the writeback path.
 *
 * The operands for one output pixel are gathered into `xg` (caller
 * scratch of `cpg * kh * kw` elements) once per group, then one
 * dispatched-table GEMM microkernel call covers every touched lane
 * block of the group; `acc` is caller scratch for the padded block
 * results (packBlocks(opg, kF32Lanes) * kF32Lanes elements).
 */
template <class LoadX, class WB>
void
convRegionFloat(const simd::KernelTable &kt, const ConvSpec &spec,
                int cpg, int opg, const float *packed, const Region &r,
                Tensor &out, float *xg, float *acc, LoadX loadX, WB wb)
{
    constexpr int L = simd::kF32Lanes;
    const int blocksPerGroup = simd::packBlocks(opg, L);
    const int redLen = cpg * spec.kh * spec.kw;
    const std::size_t blkStride = static_cast<std::size_t>(redLen) * L;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = out.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                xg[t++] = loadX(n, ih, iw, ci);
                            }
                        }
                    }
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    int b0 = (lo - g * opg) / L;
                    int b1 = (hi - 1 - g * opg) / L;
                    kt.gemmF32(xg, redLen, b1 - b0 + 1,
                               packed + g * gStride + b0 * blkStride,
                               acc);
                    for (int blk = b0; blk <= b1; ++blk) {
                        int ocb = g * opg + blk * L;
                        int s = std::max(lo, ocb);
                        int e = std::min(hi, ocb + L);
                        const float *ab = acc + (blk - b0) * L;
                        for (int oc = s; oc < e; ++oc)
                            out[base + oc] = wb(
                                static_cast<double>(ab[oc - ocb]), oc);
                    }
                }
            }
        }
    }
}

/** Wide integer twin: int64 lane accumulators over int32 operands. */
template <class LoadX, class WB>
void
convRegionInt(const simd::KernelTable &kt, const ConvSpec &spec,
              int cpg, int opg, const std::int32_t *packed,
              const Region &r, Tensor &out, std::int32_t *xg,
              std::int64_t *acc, LoadX loadX, WB wb)
{
    constexpr int L = simd::kI64Lanes;
    const int blocksPerGroup = simd::packBlocks(opg, L);
    const int redLen = cpg * spec.kh * spec.kw;
    const std::size_t blkStride = static_cast<std::size_t>(redLen) * L;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = out.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    std::size_t t = 0;
                    for (int cig = 0; cig < cpg; ++cig) {
                        int ci = g * cpg + cig;
                        for (int kh = 0; kh < spec.kh; ++kh) {
                            int ih = oh * spec.stride - spec.pad +
                                     kh * spec.dilation;
                            for (int kw = 0; kw < spec.kw; ++kw) {
                                int iw = ow * spec.stride - spec.pad +
                                         kw * spec.dilation;
                                xg[t++] = loadX(n, ih, iw, ci);
                            }
                        }
                    }
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    int b0 = (lo - g * opg) / L;
                    int b1 = (hi - 1 - g * opg) / L;
                    kt.gemmI64(xg, redLen, b1 - b0 + 1,
                               packed + g * gStride + b0 * blkStride,
                               acc);
                    for (int blk = b0; blk <= b1; ++blk) {
                        int ocb = g * opg + blk * L;
                        int s = std::max(lo, ocb);
                        int e = std::min(hi, ocb + L);
                        const std::int64_t *ab = acc + (blk - b0) * L;
                        for (int oc = s; oc < e; ++oc)
                            out[base + oc] = wb(ab[oc - ocb], oc);
                    }
                }
            }
        }
    }
}

/**
 * Narrow integer kernel over the pair-interleaved int16 pack.  The
 * gather narrows the quantised operands to int16 (lossless, bits <=
 * 16) into `xg`, which the caller sizes to 2 * packPairs(redLen)
 * elements with the pad element (odd reductions) pre-zeroed; the
 * kernel never writes past redLen, so the pad survives re-use.  Exact
 * by the chunk bound, hence bit-identical to convRegionInt.  A window
 * holding a NaN operand (INT32_MIN, no int16 form) is declined: it is
 * gathered again as int32 into `xgWide` (redLen elements) and runs
 * through simd::narrowPackMacWide.
 */
template <class LoadX, class WB>
void
convRegionNarrow(const simd::KernelTable &kt, const ConvSpec &spec,
                 int cpg, int opg, const std::int16_t *packed,
                 int chunkPairs, const Region &r, Tensor &out,
                 std::int16_t *xg, std::int32_t *xgWide,
                 std::int64_t *acc, LoadX loadX, WB wb)
{
    constexpr int L = simd::kNarrowLanes;
    const int blocksPerGroup = simd::packBlocks(opg, L);
    const int redLen = cpg * spec.kh * spec.kw;
    const int redPairs = simd::packPairs(redLen);
    const std::size_t blkStride =
        static_cast<std::size_t>(redPairs) * 2 * L;
    const std::size_t gStride = blocksPerGroup * blkStride;
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;

    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            for (int ow = r.w0; ow < r.w1; ++ow) {
                std::size_t base = out.offset(n, oh, ow, 0);
                for (int g = g0; g <= g1; ++g) {
                    auto gather = [&](auto put) {
                        std::size_t t = 0;
                        for (int cig = 0; cig < cpg; ++cig) {
                            int ci = g * cpg + cig;
                            for (int kh = 0; kh < spec.kh; ++kh) {
                                int ih = oh * spec.stride - spec.pad +
                                         kh * spec.dilation;
                                for (int kw = 0; kw < spec.kw; ++kw) {
                                    int iw = ow * spec.stride -
                                             spec.pad +
                                             kw * spec.dilation;
                                    put(t++, loadX(n, ih, iw, ci));
                                }
                            }
                        }
                    };
                    bool declined = false;
                    gather([&](std::size_t t, std::int32_t q) {
                        xg[t] = static_cast<std::int16_t>(q);
                        declined |= simd::narrowDeclines(q);
                    });
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    if (declined) {
                        gather([&](std::size_t t, std::int32_t q) {
                            xgWide[t] = q;
                        });
                        for (int oc = lo; oc < hi; ++oc) {
                            const int ocg = oc - g * opg;
                            std::int64_t a;
                            simd::narrowPackMacWide(
                                xgWide,
                                packed + g * gStride +
                                    (ocg / L) * blkStride +
                                    (ocg % L) * 2,
                                redLen, 2 * L, 1, 1, &a);
                            out[base + oc] = wb(a, oc);
                        }
                        continue;
                    }
                    int b0 = (lo - g * opg) / L;
                    int b1 = (hi - 1 - g * opg) / L;
                    kt.gemmNarrow(xg, redPairs, b1 - b0 + 1,
                                  packed + g * gStride + b0 * blkStride,
                                  chunkPairs, acc);
                    for (int blk = b0; blk <= b1; ++blk) {
                        int ocb = g * opg + blk * L;
                        int s = std::max(lo, ocb);
                        int e = std::min(hi, ocb + L);
                        const std::int64_t *ab = acc + (blk - b0) * L;
                        for (int oc = s; oc < e; ++oc)
                            out[base + oc] = wb(ab[oc - ocb], oc);
                    }
                }
            }
        }
    }
}

/**
 * Fault-batched conv walk: the SIMD lanes hold W *injections* of the
 * same fault cell instead of W output channels.  The window math,
 * padding tests, and packed-weight stream are shared by the batch.
 * Per covered output cell and group, the window's lane rows land in
 * `xg` in canonical (ci, kh, kw) order: per tap, `loadG(dst, stride,
 * src, count)` fills `count` rows of W stored-form lane operands,
 * `stride` elements apart from `dst`, with the input channels that
 * start at flat element `src` of `x` (adjacent in the lane plane), or
 * with the zero stored form when `src` is negative (padding).  The
 * covered channels are then
 * split into runs that stay inside one PL-wide pack block, and
 * `macRun(g, oc, ocg, nc, flat)` accumulates and writes back the nc
 * channels oc.. (ocg.. within group g) of output element `flat`.  A
 * run's lane rows are contiguous in the plane (lanes(flat + c) ==
 * lanes(flat) + c*W) and its weights are adjacent pack lanes, so one
 * multi-column MAC call serves the whole run.
 */
template <int W, int PL, class T, class LoadG, class MacRun>
void
convBatched(const ConvSpec &spec, int cpg, int opg, const Region &r,
            const BatchCover *cover, const Tensor &x,
            const Tensor &golden, T *xg, LoadG loadG, MacRun macRun)
{
    const int g0 = r.c0 / opg;
    const int g1 = (r.c1 - 1) / opg;
    const int taps = spec.kh * spec.kw;
    const std::size_t tapStride = static_cast<std::size_t>(taps) * W;

    const BatchCover::Span full{r.w0, r.w1};
    const BatchCover::Span cfull{r.c0, r.c1};
    const BatchCover::Span *csp = &cfull;
    int ncs = 1;
    if (cover)
        csp = cover->chanSpans(ncs);
    for (int n = r.n0; n < r.n1; ++n) {
        for (int oh = r.h0; oh < r.h1; ++oh) {
            const BatchCover::Span *sp = &full;
            int nsp = 1;
            if (cover)
                sp = cover->row(n, oh, nsp);
            for (int si = 0; si < nsp; ++si) {
            const std::size_t rowBase = golden.offset(n, oh, 0, 0);
            for (int ow = sp[si].w0; ow < sp[si].w1; ++ow) {
                const std::size_t base =
                    rowBase + static_cast<std::size_t>(ow) * golden.c();
                for (int g = g0; g <= g1; ++g) {
                    int lo = std::max(r.c0, g * opg);
                    int hi = std::min(r.c1, (g + 1) * opg);
                    bool any = false;
                    for (int cs = 0; cs < ncs && !any; ++cs)
                        any = std::min(hi, csp[cs].w1) >
                              std::max(lo, csp[cs].w0);
                    if (!any)
                        continue; // no covered channel in this group
                    for (int kh = 0; kh < spec.kh; ++kh) {
                        int ih = oh * spec.stride - spec.pad +
                                 kh * spec.dilation;
                        for (int kw = 0; kw < spec.kw; ++kw) {
                            int iw = ow * spec.stride - spec.pad +
                                     kw * spec.dilation;
                            const bool inside = ih >= 0 && ih < x.h() &&
                                                iw >= 0 && iw < x.w();
                            const std::ptrdiff_t src =
                                inside ? ((static_cast<std::ptrdiff_t>(n) *
                                               x.h() + ih) * x.w() + iw) *
                                                 x.c() + g * cpg
                                       : -1;
                            loadG(xg + (kh * spec.kw + kw) * W, tapStride,
                                  src, cpg);
                        }
                    }
                    for (int cs = 0; cs < ncs; ++cs) {
                    int clo = std::max(lo, csp[cs].w0);
                    int chi = std::min(hi, csp[cs].w1);
                    for (int oc = clo; oc < chi;) {
                        const int ocg = oc - g * opg;
                        const int nc = std::min(chi - oc, PL - ocg % PL);
                        macRun(g, oc, ocg, nc, base + oc);
                        oc += nc;
                    }
                    }
                }
            }
            }
        }
    }
}

} // namespace

Conv2D::Conv2D(std::string name, const ConvSpec &spec,
               std::vector<float> weights, std::vector<float> bias)
    : MacLayer(std::move(name)), spec_(spec), weights_(std::move(weights)),
      bias_(std::move(bias))
{
    fatal_if(spec_.groups <= 0 || spec_.inC % spec_.groups != 0 ||
             spec_.outC % spec_.groups != 0,
             "conv ", name_, ": groups must divide inC and outC");
    fatal_if(spec_.stride <= 0 || spec_.dilation <= 0,
             "conv ", name_, ": stride/dilation must be positive");
    std::size_t expect = static_cast<std::size_t>(spec_.kh) * spec_.kw *
                         (spec_.inC / spec_.groups) * spec_.outC;
    fatal_if(weights_.size() != expect,
             "conv ", name_, ": expected ", expect, " weights, got ",
             weights_.size());
    if (spec_.bias) {
        fatal_if(bias_.size() != static_cast<std::size_t>(spec_.outC),
                 "conv ", name_, ": expected ", spec_.outC, " biases");
    } else {
        fatal_if(!bias_.empty(), "conv ", name_,
                 ": bias data given but spec.bias is false");
    }
    // Immutable weights pack once, here; the quantised modes repack
    // lazily through onQuantChanged().
    packWeights();
}

int
Conv2D::outDim(int in_dim, int k) const
{
    int eff_k = (k - 1) * spec_.dilation + 1;
    return (in_dim + 2 * spec_.pad - eff_k) / spec_.stride + 1;
}

std::size_t
Conv2D::weightIndex(int kh, int kw, int cig, int oc) const
{
    int cpg = spec_.inC / spec_.groups;
    return ((static_cast<std::size_t>(kh) * spec_.kw + kw) * cpg + cig) *
               spec_.outC +
           oc;
}

void
Conv2D::checkInput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "conv expects one input");
    panic_if(ins[0]->c() != spec_.inC,
             "conv ", name_, ": input channels ", ins[0]->c(),
             " != spec ", spec_.inC);
}

Tensor
Conv2D::makeOutput(const std::vector<const Tensor *> &ins) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    int oh = outDim(x.h(), spec_.kh);
    int ow = outDim(x.w(), spec_.kw);
    fatal_if(oh <= 0 || ow <= 0, "conv ", name_,
             ": non-positive output size for input ", x.shapeStr());
    return Tensor(x.n(), oh, ow, spec_.outC);
}

float
Conv2D::computeNeuron(const std::vector<const Tensor *> &ins,
                      const NeuronIndex &out, const OperandSub *sub) const
{
    const Tensor &x = *ins[0];
    int cpg = spec_.inC / spec_.groups;
    int opg = spec_.outC / spec_.groups;
    int g = out.c / opg;
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;

    // Hot path: the loop bounds already guarantee in-range addresses,
    // so indices are computed directly instead of via the checked
    // Tensor accessors.
    const float *xd = x.data().data();
    const float *wd = weights_.data();
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const std::size_t n_base =
        static_cast<std::size_t>(out.n) * xh;

    float acc = 0.0f;
    std::int64_t iacc = 0;
    int term = 0;
    for (int cig = 0; cig < cpg; ++cig) {
        int ci = g * cpg + cig;
        for (int kh = 0; kh < spec_.kh; ++kh) {
            int ih = out.h * spec_.stride - spec_.pad + kh * spec_.dilation;
            for (int kw = 0; kw < spec_.kw; ++kw) {
                int iw =
                    out.w * spec_.stride - spec_.pad + kw * spec_.dilation;
                bool in_range = ih >= 0 && ih < xh && iw >= 0 &&
                                iw < xw;
                float xin = 0.0f;
                std::size_t xoff = 0;
                if (in_range) {
                    xoff = ((n_base + ih) * xw + iw) * xc + ci;
                    xin = xd[xoff];
                }
                std::size_t widx =
                    ((static_cast<std::size_t>(kh) * spec_.kw + kw) *
                         cpg + cig) * spec_.outC + out.c;
                float wv = wd[widx];
                for (const OperandSub *s = sub; s; s = s->next) {
                    if (s->kind == OperandSub::Kind::Input &&
                        (s->termIndex >= 0
                             ? term == s->termIndex
                             : (in_range && xoff == s->flatIndex))) {
                        xin = s->value;
                    } else if (s->kind == OperandSub::Kind::Weight &&
                               widx == s->flatIndex) {
                        wv = s->value;
                    }
                }
                for (const OperandSub *s = sub; s; s = s->next) {
                    if (s->kind == OperandSub::Kind::PsumFlip &&
                        term == static_cast<int>(s->flatIndex)) {
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
                ++term;
            }
        }
    }
    for (const OperandSub *s = sub; s; s = s->next) {
        if (s->kind == OperandSub::Kind::PsumFlip &&
            term == static_cast<int>(s->flatIndex)) {
            if (integer)
                iacc = psumFlipInt(iacc, s->flipMask());
            else
                acc = psumFlipFloat(acc, s->flipMask());
        }
    }
    double facc = integer
        ? static_cast<double>(iacc) * inQuant_.scale * wQuant_.scale
        : static_cast<double>(acc);
    float b = spec_.bias ? bias_[out.c] : 0.0f;
    for (const OperandSub *s = sub; s; s = s->next)
        if (s->kind == OperandSub::Kind::Bias)
            b = s->value;
    return writeback(facc, b);
}

void
Conv2D::packWeights() const
{
    // Convert the raw weights into the active precision's stored form
    // (vectorized batch converters), then scatter into the lane-
    // blocked layout the block kernels stream.  Integer precisions
    // scan the quantised weights' max magnitude first: with the
    // operand bound |x| <= 2^(bits-1) it proves the narrow kernels'
    // int32 chunk length (narrowChunkPairs), and the layer commits to
    // the narrow pair-interleaved pack or the wide int32 pack
    // accordingly — both paths are exact, so the choice cannot change
    // results.
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int khw = spec_.kh * spec_.kw;
    const int redLen = cpg * khw;
    Arena &arena = Arena::local();

    auto origIndex = [&](int g, int k, int c) {
        int cig = k / khw;
        int kh = (k % khw) / spec_.kw;
        int kw = k % spec_.kw;
        return ((static_cast<std::size_t>(kh) * spec_.kw + kw) * cpg +
                cig) * spec_.outC + g * opg + c;
    };

    if (integer) {
        auto tmp = arena.ints(weights_.size());
        simd::quantizeBatch(weights_.data(), tmp.data(),
                            weights_.size(), wQuant_);
        std::int32_t maxAbsW = 0;
        for (std::size_t i = 0; i < weights_.size(); ++i) {
            std::int32_t a = tmp[i] < 0 ? -tmp[i] : tmp[i];
            maxAbsW = a > maxAbsW ? a : maxAbsW;
        }
        const int bits = precision_ == Precision::INT8 ? 8 : 16;
        int chunk = simd::narrowChunkPairs(bits, maxAbsW);
        if (simd::narrowEligible(chunk)) {
            chunkPairs_ = chunk;
            std::size_t gStride = simd::packNarrowSize(redLen, opg);
            wPackN_.resize(gStride * spec_.groups);
            wPackI_.clear();
            wPackF_.clear();
            for (int g = 0; g < spec_.groups; ++g)
                simd::packNarrow(
                    redLen, opg,
                    [&](int k, int c) { return tmp[origIndex(g, k, c)]; },
                    wPackN_.data() + g * gStride);
        } else {
            constexpr int L = simd::kI64Lanes;
            chunkPairs_ = 0;
            std::size_t gStride = simd::packSize(redLen, opg, L);
            wPackI_.resize(gStride * spec_.groups);
            wPackN_.clear();
            wPackF_.clear();
            for (int g = 0; g < spec_.groups; ++g)
                simd::packLaneBlocked(
                    redLen, opg, L,
                    [&](int k, int c) { return tmp[origIndex(g, k, c)]; },
                    wPackI_.data() + g * gStride);
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
        std::size_t gStride = simd::packSize(redLen, opg, L);
        wPackF_.resize(gStride * spec_.groups);
        wPackI_.clear();
        wPackN_.clear();
        for (int g = 0; g < spec_.groups; ++g)
            simd::packLaneBlocked(
                redLen, opg, L,
                [&](int k, int c) { return src[origIndex(g, k, c)]; },
                wPackF_.data() + g * gStride);
    }
    wPackValid_ = true;
}

Tensor
Conv2D::forward(const std::vector<const Tensor *> &ins) const
{
    // Fast path, bit-identical to computeNeuron(): operands are
    // converted into their stored form once, then lane blocks of
    // output channels accumulate in the canonical (ci, kh, kw) order
    // with the same arithmetic.
    Tensor out = makeOutput(ins);
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xs = arena.floats(
        integer || precision_ == Precision::FP32 ? 0 : x.size());
    auto xq = arena.ints(integer ? x.size() : 0);
    auto xgF = arena.floats(integer ? 0 : redLen);
    auto xgI = arena.ints(integer ? redLen : 0);
    auto xgN = arena.shorts(narrow ? 2 * redPairs : 0);
    auto accF = arena.floats(
        integer ? 0
                : simd::packSize(1, opg, simd::kF32Lanes));
    auto accL = arena.longs(
        integer ? (narrow ? simd::packSize(1, opg, simd::kNarrowLanes)
                          : simd::packSize(1, opg, simd::kI64Lanes))
                : 0);
    if (narrow)
        for (int k = redLen; k < 2 * redPairs; ++k)
            xgN[k] = 0;
    const float *xf = x.data().data();
    if (integer) {
        simd::quantizeBatch(xf, xq.data(), x.size(), inQuant_);
    } else if (precision_ == Precision::FP16) {
        simd::roundToHalfBatch(xf, xs.data(), x.size());
        xf = xs.data();
    }

    const int xh = x.h(), xw = x.w(), xc = x.c();
    const Region full = Region::full(out);
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t *xqd = xq.data();
        const std::int32_t zero_q = quantInput(0.0f);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            return ok
                ? xqd[((static_cast<std::size_t>(n) * xh + ih) * xw +
                       iw) * xc + ci]
                : zero_q;
        };
        auto wb = [&](std::int64_t iacc, int oc) {
            // Left-associated like computeNeuron: the double
            // rounding order is part of the bit contract.
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(oc));
        };
        if (narrow)
            convRegionNarrow(kt, spec_, cpg, opg, wPackN_.data(),
                             chunkPairs_, full, out, xgN.data(),
                             xgI.data(), accL.data(), loadX, wb);
        else
            convRegionInt(kt, spec_, cpg, opg, wPackI_.data(), full,
                          out, xgI.data(), accL.data(), loadX, wb);
    } else {
        const float zero_s = storeInput(0.0f);
        convRegionFloat(
            kt, spec_, cpg, opg, wPackF_.data(), full, out, xgF.data(),
            accF.data(),
            [&](int n, int ih, int iw, int ci) {
                bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
                return ok
                    ? xf[((static_cast<std::size_t>(n) * xh + ih) *
                              xw + iw) * xc + ci]
                    : zero_s;
            },
            [&](double acc, int oc) {
                return writeback(acc, biasAt(oc));
            });
    }
    return out;
}

Region
Conv2D::propagateRegion(const std::vector<const Tensor *> &ins, int,
                        const Region &in, const Tensor &out) const
{
    checkInput(ins);
    if (in.empty())
        return Region{};
    auto [h0, h1] = windowCone(in.h0, in.h1, spec_.kh, spec_.stride,
                               spec_.pad, spec_.dilation, out.h());
    auto [w0, w1] = windowCone(in.w0, in.w1, spec_.kw, spec_.stride,
                               spec_.pad, spec_.dilation, out.w());
    // A changed input channel reaches every output channel of its
    // group.
    int cpg = spec_.inC / spec_.groups;
    int opg = spec_.outC / spec_.groups;
    int g0 = in.c0 / cpg;
    int g1 = (in.c1 - 1) / cpg;
    Region r{in.n0, in.n1, h0, h1, w0, w1, g0 * opg, (g1 + 1) * opg};
    return r.clipped(out);
}

void
Conv2D::forwardRegion(const std::vector<const Tensor *> &ins,
                      const Region &region, Tensor &out) const
{
    // Same block kernels as forward(), restricted to the requested
    // output box; operands convert on the fly (once per broadcast
    // term, not once per output channel).
    checkInput(ins);
    if (region.empty())
        return;
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const float *xd = x.data().data();
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xgF = arena.floats(integer ? 0 : redLen);
    auto xgI = arena.ints(integer ? redLen : 0);
    auto xgN = arena.shorts(narrow ? 2 * redPairs : 0);
    auto accF = arena.floats(
        integer ? 0 : simd::packSize(1, opg, simd::kF32Lanes));
    auto accL = arena.longs(
        integer ? (narrow ? simd::packSize(1, opg, simd::kNarrowLanes)
                          : simd::packSize(1, opg, simd::kI64Lanes))
                : 0);
    if (narrow)
        for (int k = redLen; k < 2 * redPairs; ++k)
            xgN[k] = 0;
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t zero_q = quantInput(0.0f);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            return ok
                ? quantInput(
                      xd[((static_cast<std::size_t>(n) * xh + ih) *
                          xw + iw) * xc + ci])
                : zero_q;
        };
        auto wb = [&](std::int64_t iacc, int oc) {
            // Left-associated like computeNeuron: the double
            // rounding order is part of the bit contract.
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(oc));
        };
        if (narrow)
            convRegionNarrow(kt, spec_, cpg, opg, wPackN_.data(),
                             chunkPairs_, region, out, xgN.data(),
                             xgI.data(), accL.data(), loadX, wb);
        else
            convRegionInt(kt, spec_, cpg, opg, wPackI_.data(), region,
                          out, xgI.data(), accL.data(), loadX, wb);
    } else {
        const float zero_s = storeInput(0.0f);
        convRegionFloat(
            kt, spec_, cpg, opg, wPackF_.data(), region, out,
            xgF.data(), accF.data(),
            [&](int n, int ih, int iw, int ci) {
                bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
                return ok
                    ? storeInput(
                          xd[((static_cast<std::size_t>(n) * xh +
                               ih) * xw + iw) * xc + ci])
                    : zero_s;
            },
            [&](double acc, int oc) {
                return writeback(acc, biasAt(oc));
            });
    }
}

bool
Conv2D::forwardWithSub(const std::vector<const Tensor *> &ins,
                       const OperandSub *sub, const Region *boxes,
                       std::size_t numBoxes, Tensor &out) const
{
    // Vector paths cover the two substitutions whose consumer fan-out
    // dominates fault-model application cost:
    //  - one Input sub matched by flat index (kh*kw window positions
    //    times an output channel group): the channel block kernels of
    //    forwardRegion, with the sub folded into the gather lambda as
    //    one index compare;
    //  - one Weight sub (a whole output channel, or a run of it):
    //    forwardWeightSub, lanes over output positions.
    // Psum flips, bias subs, chains and padded-term (termIndex >= 0)
    // substitutions have no vector path and stay on per-neuron
    // computeNeuron().
    if (!sub || sub->next)
        return false;
    const bool weight = sub->kind == OperandSub::Kind::Weight;
    if (!weight && (sub->kind != OperandSub::Kind::Input ||
                    sub->termIndex >= 0))
        return false;
    checkInput(ins);
    if (numBoxes == 0)
        return true;
    if (weight) {
        forwardWeightSub(*ins[0], *sub, boxes, numBoxes, out);
        return true;
    }
    const Tensor &x = *ins[0];
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;
    // The narrow kernels' chunk bound assumes operands inside the
    // quantised range.  Only a NaN quantises outside it (x86 converts
    // it to INT_MIN, which int16 narrowing would turn into 0); such a
    // substitution takes the per-neuron path.
    if (narrow) {
        const std::int32_t q = quantInput(sub->value);
        if (q < inQuant_.qmin() || q > inQuant_.qmax())
            return false;
    }

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int xh = x.h(), xw = x.w(), xc = x.c();
    const float *xd = x.data().data();
    const std::size_t flat = sub->flatIndex;
    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xgF = arena.floats(integer ? 0 : redLen);
    auto xgI = arena.ints(integer ? redLen : 0);
    auto xgN = arena.shorts(narrow ? 2 * redPairs : 0);
    auto accF = arena.floats(
        integer ? 0 : simd::packSize(1, opg, simd::kF32Lanes));
    auto accL = arena.longs(
        integer ? (narrow ? simd::packSize(1, opg, simd::kNarrowLanes)
                          : simd::packSize(1, opg, simd::kI64Lanes))
                : 0);
    if (narrow)
        for (int k = redLen; k < 2 * redPairs; ++k)
            xgN[k] = 0;
    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_[oc] : 0.0f;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t zero_q = quantInput(0.0f);
        const std::int32_t sub_q = quantInput(sub->value);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            if (!ok)
                return zero_q;
            std::size_t off =
                ((static_cast<std::size_t>(n) * xh + ih) * xw + iw) *
                    xc + ci;
            return off == flat ? sub_q : quantInput(xd[off]);
        };
        auto wb = [&](std::int64_t iacc, int oc) {
            // Left-associated like computeNeuron: the double
            // rounding order is part of the bit contract.
            return writeback(static_cast<double>(iacc) *
                                 inQuant_.scale * wQuant_.scale,
                             biasAt(oc));
        };
        for (std::size_t i = 0; i < numBoxes; ++i) {
            if (narrow)
                convRegionNarrow(kt, spec_, cpg, opg, wPackN_.data(),
                                 chunkPairs_, boxes[i], out,
                                 xgN.data(), xgI.data(), accL.data(),
                                 loadX, wb);
            else
                convRegionInt(kt, spec_, cpg, opg, wPackI_.data(),
                              boxes[i], out, xgI.data(), accL.data(),
                              loadX, wb);
        }
    } else {
        const float zero_s = storeInput(0.0f);
        const float sub_s = storeInput(sub->value);
        auto loadX = [&](int n, int ih, int iw, int ci) {
            bool ok = ih >= 0 && ih < xh && iw >= 0 && iw < xw;
            if (!ok)
                return zero_s;
            std::size_t off =
                ((static_cast<std::size_t>(n) * xh + ih) * xw + iw) *
                    xc + ci;
            return off == flat ? sub_s : storeInput(xd[off]);
        };
        auto wb = [&](double acc, int oc) {
            return writeback(acc, biasAt(oc));
        };
        for (std::size_t i = 0; i < numBoxes; ++i)
            convRegionFloat(kt, spec_, cpg, opg, wPackF_.data(),
                            boxes[i], out, xgF.data(), accF.data(),
                            loadX, wb);
    }
    return true;
}

void
Conv2D::forwardWeightSub(const Tensor &x, const OperandSub &sub,
                         const Region *boxes, std::size_t numBoxes,
                         Tensor &out) const
{
    // A weight feeds every output position of its channel, so the
    // lanes here are up to W consecutive output positions (along w) of
    // one channel.  All lanes stream one stored-form weight column,
    // built per channel with the substituted term patched in, through
    // the batched MAC row at wstride = 1.  Each lane accumulates its
    // own output in the canonical (ci, kh, kw) order: lanes are
    // independent outputs, never a split reduction, so every lane is
    // bit-identical to computeNeuron().
    constexpr int W = simd::kF32Lanes;
    const bool integer = precision_ == Precision::INT8 ||
                         precision_ == Precision::INT16;
    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;
    const int khw = spec_.kh * spec_.kw;
    const int redLen = cpg * khw;
    const int s = spec_.stride;
    const int d = spec_.dilation;
    const int effKh = (spec_.kh - 1) * d + 1;
    const int effKw = (spec_.kw - 1) * d + 1;

    // Input footprint of every box's windows, unclipped and widened so
    // the spare lanes of a partial block read inside it too.  Cells
    // outside the tensor hold the raw zero, whose stored form is the
    // padded operand computeNeuron() multiplies (a padded term still
    // meets the substituted weight: 0 * Inf is NaN).
    Region fp;
    for (std::size_t i = 0; i < numBoxes; ++i)
        fp.merge(boxes[i]);
    if (fp.empty())
        return;
    fp = Region{fp.n0,
                fp.n1,
                fp.h0 * s - spec_.pad,
                (fp.h1 - 1) * s - spec_.pad + effKh,
                fp.w0 * s - spec_.pad,
                (fp.w1 + W - 2) * s - spec_.pad + effKw,
                fp.c0 / opg * cpg,
                ((fp.c1 - 1) / opg + 1) * cpg};
    const int fh = fp.h1 - fp.h0, fw = fp.w1 - fp.w0;
    const std::size_t planeLen = static_cast<std::size_t>(fh) * fw;
    const std::size_t fpLen =
        planeLen * (fp.n1 - fp.n0) * (fp.c1 - fp.c0);

    // Stored-form operands, one (n, c) plane each: with stride 1 the
    // W lane operands of a term are W contiguous floats.
    Arena &arena = Arena::local();
    auto xs = arena.floats(fpLen);
    auto xq = arena.ints(integer ? fpLen : 0);
    std::fill(xs.data(), xs.data() + fpLen, 0.0f);
    const int h0 = std::max(fp.h0, 0), h1 = std::min(fp.h1, x.h());
    const int w0 = std::max(fp.w0, 0), w1 = std::min(fp.w1, x.w());
    const std::size_t xc = x.c();
    for (int n = fp.n0; n < fp.n1; ++n) {
        for (int c = fp.c0; c < fp.c1; ++c) {
            float *plane = xs.data() +
                           ((n - fp.n0) * (fp.c1 - fp.c0) + c - fp.c0) *
                               planeLen;
            for (int ih = h0; ih < h1; ++ih) {
                const float *src =
                    x.data().data() + x.offset(n, ih, 0, c);
                float *row = plane + (ih - fp.h0) * fw;
                for (int iw = w0; iw < w1; ++iw)
                    row[iw - fp.w0] = src[iw * xc];
            }
        }
    }
    if (integer)
        simd::quantizeBatch(xs.data(), xq.data(), fpLen, inQuant_);
    else if (precision_ == Precision::FP16)
        simd::roundToHalfBatch(xs.data(), xs.data(), fpLen);

    auto colRaw = arena.floats(redLen);
    auto colF = arena.floats(integer ? 0 : redLen);
    auto colI = arena.ints(integer ? redLen : 0);
    auto xgF = arena.floats(integer ? 0 : redLen * W);
    auto xgI = arena.ints(integer ? redLen * W : 0);
    const std::size_t outC = spec_.outC;
    auto buildColumn = [&](int oc) {
        int t = 0;
        for (int cig = 0; cig < cpg; ++cig)
            for (int kh = 0; kh < spec_.kh; ++kh)
                for (int kw = 0; kw < spec_.kw; ++kw)
                    colRaw[t++] = weights_[
                        ((static_cast<std::size_t>(kh) * spec_.kw + kw) *
                             cpg + cig) * outC + oc];
        if (sub.flatIndex < weights_.size() &&
            sub.flatIndex % outC == static_cast<std::size_t>(oc)) {
            // q = (kh * spec_.kw + kw) * cpg + cig; column term
            // cig * khw + kh * spec_.kw + kw.
            const std::size_t q = sub.flatIndex / outC;
            colRaw[(q % cpg) * khw + q / cpg] = sub.value;
        }
        if (integer)
            simd::quantizeBatch(colRaw.data(), colI.data(), redLen,
                                wQuant_);
        else if (precision_ == Precision::FP16)
            simd::roundToHalfBatch(colRaw.data(), colF.data(), redLen);
        else
            std::copy(colRaw.data(), colRaw.data() + redLen, colF.data());
    };
    // Footprint offset of each term, (ci, kh, kw) order, relative to
    // the window origin of a lane block's first position.
    auto termOff = arena.longs(redLen);
    for (int cig = 0, t = 0; cig < cpg; ++cig)
        for (int kh = 0; kh < spec_.kh; ++kh)
            for (int kw = 0; kw < spec_.kw; ++kw)
                termOff[t++] = static_cast<std::int64_t>(cig) * planeLen +
                               static_cast<std::int64_t>(kh) * d * fw +
                               kw * d;
    // Lane-minor operand rows: dst[k * W + l] = op[off[k] + l * s].
    auto gather = [&](auto *dst, const auto *op) {
        const std::int64_t *off = termOff.data();
        if (s == 1) {
            for (int k = 0; k < redLen; ++k, dst += W)
                std::memcpy(dst, op + off[k], W * sizeof(*dst));
        } else {
            for (int k = 0; k < redLen; ++k, dst += W)
                for (int l = 0; l < W; ++l)
                    dst[l] = op[off[k] + l * s];
        }
    };
    // Window origin of the lane block at (n, oh, ow0) in group g.
    auto origin = [&](int n, int g, int oh, int ow0) {
        return ((n - fp.n0) * (fp.c1 - fp.c0) + g * cpg - fp.c0) *
                   planeLen +
               static_cast<std::size_t>(oh * s - spec_.pad - fp.h0) * fw +
               (ow0 * s - spec_.pad - fp.w0);
    };

    const simd::KernelTable &kt = simd::table();
    float accF[W];
    std::int64_t accI[W];
    int builtOc = -1;
    for (std::size_t i = 0; i < numBoxes; ++i) {
        const Region &b = boxes[i];
        for (int oc = b.c0; oc < b.c1; ++oc) {
            if (oc != builtOc)
                buildColumn(oc);
            builtOc = oc;
            const int g = oc / opg;
            const float bias = spec_.bias ? bias_[oc] : 0.0f;
            for (int n = b.n0; n < b.n1; ++n) {
                for (int oh = b.h0; oh < b.h1; ++oh) {
                    for (int ow0 = b.w0; ow0 < b.w1; ow0 += W) {
                        const int cnt = std::min(W, b.w1 - ow0);
                        const std::size_t at = origin(n, g, oh, ow0);
                        float *o = out.data().data() +
                                   out.offset(n, oh, ow0, oc);
                        if (integer) {
                            gather(xgI.data(), xq.data() + at);
                            kt.batchMacI64(xgI.data(), colI.data(), redLen,
                                           1, W, 1, accI);
                            // Left-associated like computeNeuron: the
                            // double rounding order is part of the bit
                            // contract.
                            for (int l = 0; l < cnt; ++l)
                                o[l * outC] = writeback(
                                    static_cast<double>(accI[l]) *
                                        inQuant_.scale * wQuant_.scale,
                                    bias);
                        } else {
                            gather(xgF.data(), xs.data() + at);
                            kt.batchMacF32(xgF.data(), colF.data(), redLen,
                                           1, W, 1, accF);
                            for (int l = 0; l < cnt; ++l)
                                o[l * outC] = writeback(
                                    static_cast<double>(accF[l]), bias);
                        }
                    }
                }
            }
        }
    }
}

template <int W>
void
Conv2D::forwardBatchedImpl(const Tensor &x, LanePlane &xplane,
                           const Region &region, const BatchCover *cover,
                           const Tensor &golden, LanePlane &out) const
{
    bool integer = precision_ == Precision::INT8 ||
                   precision_ == Precision::INT16;
    if (!wPackValid_)
        packWeights();
    const bool narrow = integer && chunkPairs_ > 0;

    const int cpg = spec_.inC / spec_.groups;
    const int opg = spec_.outC / spec_.groups;

    // Input footprint of the output region: every cell any window of
    // the region can read.  The lane plane materialises (golden-fills)
    // it once, and the batch conversion below covers exactly it.
    const int effKh = (spec_.kh - 1) * spec_.dilation + 1;
    const int effKw = (spec_.kw - 1) * spec_.dilation + 1;
    const int g0 = region.c0 / opg;
    const int g1 = (region.c1 - 1) / opg;
    Region fp{region.n0,
              region.n1,
              region.h0 * spec_.stride - spec_.pad,
              (region.h1 - 1) * spec_.stride - spec_.pad + effKh,
              region.w0 * spec_.stride - spec_.pad,
              (region.w1 - 1) * spec_.stride - spec_.pad + effKw,
              g0 * cpg,
              (g1 + 1) * cpg};
    fp = fp.clipped(x);
    xplane.ensure(x, fp);
    const float *xlane = fp.empty() ? nullptr : xplane.lanes(0);

    const int redLen = spec_.kh * spec_.kw * cpg;
    const int redPairs = simd::packPairs(redLen);
    Arena &arena = Arena::local();
    auto xgF = arena.floats(integer ? 0 : static_cast<std::size_t>(redLen) * W);
    auto xgI =
        arena.ints(integer ? static_cast<std::size_t>(redLen) * W : 0);
    auto xgN = arena.shorts(
        narrow ? static_cast<std::size_t>(2 * redPairs) * W : 0);
    if (narrow && 2 * redPairs > redLen)
        std::memset(xgN.data() + static_cast<std::size_t>(redLen) * W,
                    0, W * sizeof(std::int16_t));
    // Stored-form lane operands over the footprint (same global
    // lane-minor indexing as the plane, converted rows only).
    // FP16 planes usually hold stored-form values already (golden
    // fills and kernel writebacks both round through binary16, and
    // rounding is idempotent), so the conversion pass is only needed
    // when the plane carries raw bits: the injected node's fault
    // values or the unrounded network input.  Integer modes always
    // convert — the kernels consume quantised operands.
    bool convert = !fp.empty() &&
                   (integer || (precision_ == Precision::FP16 &&
                                !xplane.storedForm()));
    auto xsF = arena.floats(convert && !integer ? x.size() * W : 0);
    auto xsI = arena.ints(convert && integer ? x.size() * W : 0);
    if (convert) {
        const std::size_t run =
            static_cast<std::size_t>(fp.c1 - fp.c0) * W;
        auto convRow = [&](int n, int ih, int w0, int w1) {
            for (int w = w0; w < w1; ++w) {
                std::size_t f0 = x.offset(n, ih, w, fp.c0) *
                                 static_cast<std::size_t>(W);
                if (integer)
                    simd::quantizeBatch(xlane + f0, xsI.data() + f0,
                                        run, inQuant_);
                else
                    simd::roundToHalfBatch(xlane + f0, xsF.data() + f0,
                                           run);
            }
        };
        if (cover) {
            // Convert only under covered output cells' windows: per
            // input row, the merged w-intervals any covered span of an
            // output row whose window overlaps this row can read.  The
            // kernels never load stored-form operands outside these
            // intervals, so the rest of the scratch stays unwritten.
            constexpr int kMaxIv = 64;
            BatchCover::Span iv[kMaxIv];
            for (int n = fp.n0; n < fp.n1; ++n) {
                for (int ih = fp.h0; ih < fp.h1; ++ih) {
                    int m = 0;
                    int ohLo = ih + spec_.pad - effKh + 1;
                    ohLo = ohLo > 0 ? (ohLo + spec_.stride - 1) /
                                          spec_.stride
                                    : 0;
                    ohLo = std::max(ohLo, region.h0);
                    int ohHi =
                        std::min((ih + spec_.pad) / spec_.stride,
                                 region.h1 - 1);
                    for (int oh = ohLo; oh <= ohHi; ++oh) {
                        int nsp = 0;
                        const BatchCover::Span *sp =
                            cover->row(n, oh, nsp);
                        for (int si = 0; si < nsp && m < kMaxIv;
                             ++si) {
                            int a = sp[si].w0 * spec_.stride -
                                    spec_.pad;
                            int b = (sp[si].w1 - 1) * spec_.stride -
                                    spec_.pad + effKw;
                            a = std::max(a, fp.w0);
                            b = std::min(b, fp.w1);
                            if (a < b)
                                iv[m++] = BatchCover::Span{a, b};
                        }
                    }
                    if (m == kMaxIv) {
                        convRow(n, ih, fp.w0, fp.w1);
                        continue;
                    }
                    for (int i = 1; i < m; ++i) {
                        BatchCover::Span key = iv[i];
                        int j = i - 1;
                        for (; j >= 0 && iv[j].w0 > key.w0; --j)
                            iv[j + 1] = iv[j];
                        iv[j + 1] = key;
                    }
                    int e = 0;
                    for (int i = 0; i < m; ++i) {
                        if (e > 0 && iv[e - 1].w1 >= iv[i].w0) {
                            iv[e - 1].w1 =
                                std::max(iv[e - 1].w1, iv[i].w1);
                        } else {
                            iv[e++] = iv[i];
                        }
                    }
                    for (int i = 0; i < e; ++i)
                        convRow(n, ih, iv[i].w0, iv[i].w1);
                }
            }
        } else {
            for (int n = fp.n0; n < fp.n1; ++n)
                for (int h = fp.h0; h < fp.h1; ++h)
                    convRow(n, h, fp.w0, fp.w1);
        }
    }

    auto biasAt = [&](int oc) {
        return spec_.bias ? bias_.data() + oc : nullptr;
    };

    const simd::KernelTable &kt = simd::table();
    if (integer) {
        const std::int32_t *xsrc = xsI.data();
        const std::int32_t zero_q = quantInput(0.0f);
        // Accumulators of one pack-block run (at most kNarrowLanes
        // channels, the wider of the two integer pack widths).
        std::int64_t acc[simd::kNarrowLanes * W];
        auto wb = [&](int oc, int nc, float *op) {
            writebackRun(acc, nc, W, biasAt(oc), op);
        };
        auto loadWide = [&](std::int32_t *dst, std::size_t stride,
                            std::ptrdiff_t src, int count) {
            if (src < 0) {
                for (int i = 0; i < count; ++i, dst += stride)
                    std::fill_n(dst, W, zero_q);
                return;
            }
            const std::int32_t *s = xsrc + src * W;
            for (int i = 0; i < count; ++i, dst += stride, s += W)
                std::memcpy(dst, s, W * sizeof(std::int32_t));
        };
        if (narrow) {
            bool declined = false;
            auto loadG = [&](std::int16_t *dst, std::size_t stride,
                             std::ptrdiff_t src, int count) {
                if (src < 0) {
                    for (int i = 0; i < count; ++i, dst += stride)
                        std::fill_n(dst, W,
                                    static_cast<std::int16_t>(zero_q));
                    return;
                }
                const std::int32_t *s = xsrc + src * W;
                unsigned nan = 0;
                for (int i = 0; i < count; ++i, dst += stride, s += W)
                    for (int l = 0; l < W; ++l) {
                        dst[l] = static_cast<std::int16_t>(s[l]);
                        nan |= simd::narrowDeclines(s[l]);
                    }
                declined |= nan != 0;
            };
            // Exact by the chunk bound, hence bit-identical to the
            // wide path.  xgN holds 2 * redPairs rows; the pad row of
            // an odd reduction was zeroed above (the gather only
            // writes redLen rows).
            constexpr int PL = simd::kNarrowLanes;
            const std::size_t blkStride =
                static_cast<std::size_t>(redPairs) * 2 * PL;
            const std::size_t gStride =
                simd::packBlocks(opg, PL) * blkStride;
            auto wAt = [&](int g, int ocg) {
                return wPackN_.data() + g * gStride +
                       (ocg / PL) * blkStride + (ocg % PL) * 2;
            };
            convBatched<W, PL>(
                spec_, cpg, opg, region, cover, x, golden, xgN.data(),
                loadG, [&](int g, int oc, int ocg, int nc,
                           std::size_t flat) {
                    kt.batchMacNarrow(xgN.data(), wAt(g, ocg), redPairs,
                                      PL * 2, chunkPairs_, W, nc, acc);
                    wb(oc, nc, out.lanes(flat));
                });
            if (declined) {
                // Some window held a NaN operand (INT32_MIN, no int16
                // form): the narrow kernels decline it, so the call
                // reruns wide over the same pack, exact for every row.
                convBatched<W, PL>(
                    spec_, cpg, opg, region, cover, x, golden,
                    xgI.data(), loadWide,
                    [&](int g, int oc, int ocg, int nc,
                        std::size_t flat) {
                        simd::narrowPackMacWide(xgI.data(), wAt(g, ocg),
                                                redLen, PL * 2, W, nc,
                                                acc);
                        wb(oc, nc, out.lanes(flat));
                    });
            }
        } else {
            // The weight scalar and the lane-operand pointer swap
            // roles relative to the channel kernel — multiplication
            // commutes, so the lane-minor MAC row is the exact
            // product either way.
            constexpr int PL = simd::kI64Lanes;
            const std::size_t blkStride =
                static_cast<std::size_t>(redLen) * PL;
            const std::size_t gStride =
                simd::packBlocks(opg, PL) * blkStride;
            convBatched<W, PL>(
                spec_, cpg, opg, region, cover, x, golden, xgI.data(),
                loadWide, [&](int g, int oc, int ocg, int nc,
                           std::size_t flat) {
                    kt.batchMacI64(xgI.data(),
                                   wPackI_.data() + g * gStride +
                                       (ocg / PL) * blkStride + ocg % PL,
                                   redLen, PL, W, nc, acc);
                    wb(oc, nc, out.lanes(flat));
                });
        }
    } else {
        const float *xsrc = convert ? xsF.data() : xlane;
        const float zero_s = storeInput(0.0f);
        auto loadG = [&](float *dst, std::size_t stride,
                         std::ptrdiff_t src, int count) {
            if (src < 0) {
                for (int i = 0; i < count; ++i, dst += stride)
                    std::fill_n(dst, W, zero_s);
                return;
            }
            const float *s = xsrc + src * W;
            for (int i = 0; i < count; ++i, dst += stride, s += W)
                std::memcpy(dst, s, W * sizeof(float));
        };
        constexpr int PL = simd::kF32Lanes;
        const std::size_t blkStride = static_cast<std::size_t>(redLen) * PL;
        const std::size_t gStride = simd::packBlocks(opg, PL) * blkStride;
        convBatched<W, PL>(
            spec_, cpg, opg, region, cover, x, golden, xgF.data(), loadG,
            [&](int g, int oc, int ocg, int nc, std::size_t flat) {
                // The kernel writes the accumulators straight into the
                // run's lane rows; writebackRun then adds bias in place
                // and rounds all nc rows as one batch.
                float *op = out.lanes(flat);
                kt.batchMacF32(xgF.data(),
                               wPackF_.data() + g * gStride +
                                   (ocg / PL) * blkStride + ocg % PL,
                               redLen, PL, W, nc, op);
                writebackRun(op, nc, W, biasAt(oc));
            });
    }
}

bool
Conv2D::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                             LanePlane *const *inPlanes,
                             const Region &region,
                             const BatchCover *cover,
                             const Tensor &golden, LanePlane &out) const
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
Conv2D::weightCount(const std::vector<const Tensor *> &) const
{
    return weights_.size();
}

float
Conv2D::weightAt(const std::vector<const Tensor *> &, std::size_t idx) const
{
    panic_if(idx >= weights_.size(), "weight index out of range");
    return weights_[idx];
}

std::vector<NeuronIndex>
Conv2D::inputConsumers(const std::vector<const Tensor *> &ins,
                       std::size_t elem) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    NeuronIndex e = x.indexOf(elem);
    int cpg = spec_.inC / spec_.groups;
    int opg = spec_.outC / spec_.groups;
    int g = e.c / cpg;
    int oh_max = outDim(x.h(), spec_.kh);
    int ow_max = outDim(x.w(), spec_.kw);

    std::vector<NeuronIndex> out;
    for (int kh = 0; kh < spec_.kh; ++kh) {
        int num_h = e.h + spec_.pad - kh * spec_.dilation;
        if (num_h < 0 || num_h % spec_.stride != 0)
            continue;
        int oh = num_h / spec_.stride;
        if (oh >= oh_max)
            continue;
        for (int kw = 0; kw < spec_.kw; ++kw) {
            int num_w = e.w + spec_.pad - kw * spec_.dilation;
            if (num_w < 0 || num_w % spec_.stride != 0)
                continue;
            int ow = num_w / spec_.stride;
            if (ow >= ow_max)
                continue;
            for (int oc = g * opg; oc < (g + 1) * opg; ++oc)
                out.push_back({e.n, oh, ow, oc});
        }
    }
    return out;
}

std::vector<NeuronIndex>
Conv2D::weightConsumers(const std::vector<const Tensor *> &ins,
                        std::size_t widx) const
{
    checkInput(ins);
    const Tensor &x = *ins[0];
    panic_if(widx >= weights_.size(), "weight index out of range");
    int oc = static_cast<int>(widx % spec_.outC);
    int oh_max = outDim(x.h(), spec_.kh);
    int ow_max = outDim(x.w(), spec_.kw);

    // With zero padding materialised in the datapath, a weight value is
    // streamed through the MACs for every output position of its output
    // channel (padded terms multiply zero and leave values unchanged).
    std::vector<NeuronIndex> out;
    out.reserve(static_cast<std::size_t>(x.n()) * oh_max * ow_max);
    for (int n = 0; n < x.n(); ++n)
        for (int oh = 0; oh < oh_max; ++oh)
            for (int ow = 0; ow < ow_max; ++ow)
                out.push_back({n, oh, ow, oc});
    return out;
}

int
Conv2D::reductionLength() const
{
    return (spec_.inC / spec_.groups) * spec_.kh * spec_.kw;
}

} // namespace fidelity
