#include "nn/softmax.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/lanes.hh"
#include "sim/logging.hh"

namespace fidelity
{

namespace
{

/**
 * Softmax of one position's `chans` inputs x[c * stride], writing
 * channels [c0, c1) to out[c * stride].  The one loop body behind
 * forward, forwardRegion and the batched kernel (stride = lane
 * width), so every path performs the same arithmetic per element.
 */
void
softmaxRow(const float *x, float *out, std::size_t stride, int chans,
           int c0, int c1)
{
    float mx = -std::numeric_limits<float>::infinity();
    for (int c = 0; c < chans; ++c)
        mx = std::max(mx, x[c * stride]);
    // NaN inputs (possible under fault injection) make the whole
    // distribution NaN, which downstream metrics treat as an output
    // error.
    double denom = 0.0;
    for (int c = 0; c < chans; ++c)
        denom += std::exp(static_cast<double>(x[c * stride] - mx));
    for (int c = c0; c < c1; ++c) {
        double e = std::exp(static_cast<double>(x[c * stride] - mx));
        out[c * stride] = static_cast<float>(e / denom);
    }
}

} // namespace

Softmax::Softmax(std::string name)
    : Layer(std::move(name))
{
}

Tensor
Softmax::makeOutput(const std::vector<const Tensor *> &ins) const
{
    panic_if(ins.size() != 1, "softmax expects one input");
    const Tensor &x = *ins[0];
    return Tensor(x.n(), x.h(), x.w(), x.c());
}

Tensor
Softmax::forward(const std::vector<const Tensor *> &ins) const
{
    Tensor out = makeOutput(ins);
    forwardRegion(ins, Region::full(out), out);
    return out;
}

Region
Softmax::propagateRegion(const std::vector<const Tensor *> &, int,
                         const Region &in, const Tensor &out) const
{
    return in.acrossChannels(out);
}

void
Softmax::forwardRegion(const std::vector<const Tensor *> &ins,
                       const Region &region, Tensor &out) const
{
    const Tensor &x = *ins[0];
    for (int n = region.n0; n < region.n1; ++n)
        for (int h = region.h0; h < region.h1; ++h)
            for (int w = region.w0; w < region.w1; ++w) {
                const std::size_t f = x.offset(n, h, w, 0);
                softmaxRow(x.data().data() + f, out.data().data() + f, 1,
                           x.c(), region.c0, region.c1);
            }
}

bool
Softmax::forwardRegionBatched(const std::vector<const Tensor *> &ins,
                              LanePlane *const *inPlanes,
                              const Region &region,
                              const BatchCover *cover,
                              const Tensor &golden, LanePlane &out) const
{
    // Softmax never rounds its output, so FP16 consumers must convert
    // this plane's values (golden fill included).
    out.markRaw();
    if (region.empty())
        return true;
    const Tensor &x = *ins[0];
    LanePlane &xp = *inPlanes[0];
    Region fp = region;
    fp.c0 = 0;
    fp.c1 = x.c();
    xp.ensure(x, fp);

    const int W = out.laneWidth();
    const BatchCover::Span full{region.w0, region.w1};
    for (int n = region.n0; n < region.n1; ++n) {
        for (int h = region.h0; h < region.h1; ++h) {
            const BatchCover::Span *sp = &full;
            int nsp = 1;
            if (cover)
                sp = cover->row(n, h, nsp);
            for (int si = 0; si < nsp; ++si) {
                for (int w = sp[si].w0; w < sp[si].w1; ++w) {
                    const std::size_t f = golden.offset(n, h, w, 0);
                    const float *ip = xp.lanes(f);
                    float *op = out.lanes(f);
                    for (int l = 0; l < W; ++l)
                        softmaxRow(ip + l, op + l, W, x.c(), region.c0,
                                   region.c1);
                }
            }
        }
    }
    return true;
}

} // namespace fidelity
