/**
 * @file
 * Axis-aligned bounding boxes over NHWC tensors (fault cones).
 *
 * The incremental re-execution engine tracks, per layer output, a
 * conservative bounding box of the elements that may differ from the
 * golden activation.  Spatially local layers (conv / pool / activation
 * / elementwise) map an input box to the box of outputs whose receptive
 * field intersects it — the fault cone — so only that box has to be
 * recomputed.  Boxes are half-open on every axis: [n0, n1) x [h0, h1) x
 * [w0, w1) x [c0, c1).
 */

#ifndef FIDELITY_NN_REGION_HH
#define FIDELITY_NN_REGION_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>

#include "tensor/tensor.hh"

namespace fidelity
{

/** Half-open NHWC bounding box; the default is the empty region. */
struct Region
{
    int n0 = 0, n1 = 0;
    int h0 = 0, h1 = 0;
    int w0 = 0, w1 = 0;
    int c0 = 0, c1 = 0;

    /** True when the box contains no elements. */
    bool
    empty() const
    {
        return n0 >= n1 || h0 >= h1 || w0 >= w1 || c0 >= c1;
    }

    /** Number of elements in the box. */
    std::size_t volume() const;

    /** The whole of a tensor's index space. */
    static Region full(const Tensor &t);

    /** A single-element box. */
    static Region of(const NeuronIndex &i);

    /** True when the box covers every element of the tensor. */
    bool covers(const Tensor &t) const;

    /** True when the element lies inside the box. */
    bool contains(const NeuronIndex &i) const;

    /** Grow the box to include one element (inline: the diff scans
     *  call it per changed row). */
    void
    include(const NeuronIndex &i)
    {
        if (empty()) {
            *this = of(i);
            return;
        }
        n0 = std::min(n0, i.n);
        n1 = std::max(n1, i.n + 1);
        h0 = std::min(h0, i.h);
        h1 = std::max(h1, i.h + 1);
        w0 = std::min(w0, i.w);
        w1 = std::max(w1, i.w + 1);
        c0 = std::min(c0, i.c);
        c1 = std::max(c1, i.c + 1);
    }

    /** Grow the box to the bounding box of the union with `o`. */
    void merge(const Region &o);

    /** The box clipped to a tensor's index space. */
    Region clipped(const Tensor &t) const;

    /**
     * The box's (n, h, w) positions clipped to `t`, across every
     * channel of `t` (empty when no position survives): the cone of a
     * position-local layer — FC, softmax, a matmul's A rows — where
     * every output channel at a position reads every input channel
     * there.  Only the position axes are clipped, since the input's
     * channel range may lie beyond the output's channel count.
     */
    Region acrossChannels(const Tensor &t) const;

    bool operator==(const Region &o) const = default;

    /** "[n0,n1)x[h0,h1)x[w0,w1)x[c0,c1)" for diagnostics. */
    std::string str() const;
};

/**
 * Call f(first, count) for the (n, h, w) positions of `r` as maximal
 * runs that are consecutive in t's NHW-major position order: `first`
 * is the run's first position index ((n * H + h) * W + w, i.e. the
 * element offset over t.c()).  A box spanning whole rows is one run
 * per n; the full tensor is a single run.
 */
template <class F>
void
forEachPositionRun(const Tensor &t, const Region &r, F f)
{
    if (r.empty())
        return;
    const std::size_t hw = static_cast<std::size_t>(t.h()) * t.w();
    auto pos = [&](int n, int h, int w) {
        return static_cast<std::size_t>(n) * hw +
               static_cast<std::size_t>(h) * t.w() + w;
    };
    if (r.w0 == 0 && r.w1 == t.w()) {
        if (r.h0 == 0 && r.h1 == t.h()) {
            f(pos(r.n0, 0, 0), (r.n1 - r.n0) * hw);
            return;
        }
        for (int n = r.n0; n < r.n1; ++n)
            f(pos(n, r.h0, 0),
              static_cast<std::size_t>(r.h1 - r.h0) * t.w());
        return;
    }
    for (int n = r.n0; n < r.n1; ++n)
        for (int h = r.h0; h < r.h1; ++h)
            f(pos(n, h, r.w0), static_cast<std::size_t>(r.w1 - r.w0));
}

/**
 * Output index span [lo, hi) of the sliding windows (kernel k, given
 * stride / symmetric pad / dilation) that read any input index in
 * [in0, in1); the shared spatial-cone step of conv and pool layers.
 * The span is clipped to [0, out_dim).
 */
std::pair<int, int> windowCone(int in0, int in1, int k, int stride,
                               int pad, int dilation, int out_dim);

} // namespace fidelity

#endif // FIDELITY_NN_REGION_HH
