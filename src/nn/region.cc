#include "nn/region.hh"

#include <algorithm>
#include <sstream>

namespace fidelity
{

std::size_t
Region::volume() const
{
    if (empty())
        return 0;
    return static_cast<std::size_t>(n1 - n0) * (h1 - h0) * (w1 - w0) *
           (c1 - c0);
}

Region
Region::full(const Tensor &t)
{
    return Region{0, t.n(), 0, t.h(), 0, t.w(), 0, t.c()};
}

Region
Region::of(const NeuronIndex &i)
{
    return Region{i.n, i.n + 1, i.h, i.h + 1, i.w, i.w + 1, i.c, i.c + 1};
}

bool
Region::covers(const Tensor &t) const
{
    return n0 <= 0 && n1 >= t.n() && h0 <= 0 && h1 >= t.h() && w0 <= 0 &&
           w1 >= t.w() && c0 <= 0 && c1 >= t.c();
}

bool
Region::contains(const NeuronIndex &i) const
{
    return i.n >= n0 && i.n < n1 && i.h >= h0 && i.h < h1 && i.w >= w0 &&
           i.w < w1 && i.c >= c0 && i.c < c1;
}

void
Region::merge(const Region &o)
{
    if (o.empty())
        return;
    if (empty()) {
        *this = o;
        return;
    }
    n0 = std::min(n0, o.n0);
    n1 = std::max(n1, o.n1);
    h0 = std::min(h0, o.h0);
    h1 = std::max(h1, o.h1);
    w0 = std::min(w0, o.w0);
    w1 = std::max(w1, o.w1);
    c0 = std::min(c0, o.c0);
    c1 = std::max(c1, o.c1);
}

Region
Region::clipped(const Tensor &t) const
{
    Region r;
    r.n0 = std::max(n0, 0);
    r.n1 = std::min(n1, t.n());
    r.h0 = std::max(h0, 0);
    r.h1 = std::min(h1, t.h());
    r.w0 = std::max(w0, 0);
    r.w1 = std::min(w1, t.w());
    r.c0 = std::max(c0, 0);
    r.c1 = std::min(c1, t.c());
    if (r.empty())
        return Region{};
    return r;
}

Region
Region::acrossChannels(const Tensor &t) const
{
    Region r = *this;
    r.c0 = 0;
    r.c1 = 1;
    r = r.clipped(t);
    if (!r.empty())
        r.c1 = t.c();
    return r;
}

std::pair<int, int>
windowCone(int in0, int in1, int k, int stride, int pad, int dilation,
           int out_dim)
{
    if (in0 >= in1)
        return {0, 0};
    // Window o reads inputs [o*stride - pad, o*stride - pad + reach];
    // it is in the cone iff that interval intersects [in0, in1).
    int reach = (k - 1) * dilation;
    int num = in0 + pad - reach;
    int lo = num > 0 ? (num + stride - 1) / stride : 0;
    int hi = (in1 - 1 + pad) / stride + 1;
    lo = std::max(lo, 0);
    hi = std::min(hi, out_dim);
    if (lo >= hi)
        return {0, 0};
    return {lo, hi};
}

std::string
Region::str() const
{
    std::ostringstream os;
    os << "[" << n0 << "," << n1 << ")x[" << h0 << "," << h1 << ")x["
       << w0 << "," << w1 << ")x[" << c0 << "," << c1 << ")";
    return os.str();
}

} // namespace fidelity
