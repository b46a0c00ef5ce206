#include "nn/layer.hh"

#include <cmath>

#include "nn/lanes.hh"
#include "sim/logging.hh"
#include "simd/convert.hh"
#include "simd/simd.hh"
#include "tensor/bitops.hh"
#include "tensor/float16.hh"

namespace fidelity
{

const char *
precisionName(Precision p)
{
    switch (p) {
      case Precision::FP32:
        return "FP32";
      case Precision::FP16:
        return "FP16";
      case Precision::INT16:
        return "INT16";
      case Precision::INT8:
        return "INT8";
    }
    panic("unknown Precision");
}

const char *
layerKindName(LayerKind k)
{
    switch (k) {
      case LayerKind::Conv:
        return "Conv";
      case LayerKind::FC:
        return "FC";
      case LayerKind::MatMul:
        return "MatMul";
      case LayerKind::Pool:
        return "Pool";
      case LayerKind::Activation:
        return "Activation";
      case LayerKind::Elementwise:
        return "Elementwise";
      case LayerKind::Concat:
        return "Concat";
      case LayerKind::Slice:
        return "Slice";
      case LayerKind::Softmax:
        return "Softmax";
    }
    panic("unknown LayerKind");
}

Layer::Layer(std::string name)
    : name_(std::move(name))
{
}

Layer::~Layer() = default;

Tensor
Layer::forward(const Tensor &in) const
{
    panic_if(numInputs() != 1,
             "single-input forward() on multi-input layer ", name_);
    std::vector<const Tensor *> ins{&in};
    return forward(ins);
}

void
Layer::calibrate(const std::vector<const Tensor *> &, const Tensor &)
{
}

MacLayer::MacLayer(std::string name)
    : Layer(std::move(name))
{
}

bool
MacLayer::forwardWithSub(const std::vector<const Tensor *> &,
                         const OperandSub *, const Region *, std::size_t,
                         Tensor &) const
{
    return false;
}

void
MacLayer::calibrate(const std::vector<const Tensor *> &ins,
                    const Tensor &out)
{
    panic_if(ins.empty(), "MacLayer::calibrate requires inputs");
    inAbsMax_ = std::max<double>(inAbsMax_, ins[0]->absMax());
    double wmax = 0.0;
    std::size_t n = weightCount(ins);
    for (std::size_t i = 0; i < n; ++i)
        wmax = std::max<double>(wmax, std::fabs(weightAt(ins, i)));
    wAbsMax_ = std::max(wAbsMax_, wmax);
    outAbsMax_ = std::max<double>(outAbsMax_, out.absMax());
    refreshQuant();
}

void
MacLayer::refreshQuant()
{
    int bits = precision_ == Precision::INT8 ? 8 : 16;
    inQuant_ = calibrateAbsMax(inAbsMax_, bits);
    wQuant_ = calibrateAbsMax(wAbsMax_, bits);
    outQuant_ = calibrateAbsMax(outAbsMax_, bits);
    onQuantChanged();
}

float
MacLayer::storeInput(float x) const
{
    switch (precision_) {
      case Precision::FP32:
        return x;
      case Precision::FP16:
        return roundToHalf(x);
      case Precision::INT16:
      case Precision::INT8:
        return dequantize(quantize(x, inQuant_), inQuant_);
    }
    panic("unknown Precision");
}

float
MacLayer::storeWeight(float x) const
{
    switch (precision_) {
      case Precision::FP32:
        return x;
      case Precision::FP16:
        return roundToHalf(x);
      case Precision::INT16:
      case Precision::INT8:
        return dequantize(quantize(x, wQuant_), wQuant_);
    }
    panic("unknown Precision");
}

std::int32_t
MacLayer::quantInput(float x) const
{
    return quantize(x, inQuant_);
}

std::int32_t
MacLayer::quantWeight(float x) const
{
    return quantize(x, wQuant_);
}

float
MacLayer::psumFlipFloat(float acc, std::uint32_t mask)
{
    return flipBits(acc, Repr::FP32, mask);
}

std::int64_t
MacLayer::psumFlipInt(std::int64_t acc, std::uint32_t mask)
{
    // The integer pipelines hold partial sums in a 32-bit window of
    // the accumulator; flipping bit b perturbs the value by +/- 2^b.
    return acc ^ static_cast<std::int64_t>(mask);
}

float
MacLayer::writeback(double acc, float bias) const
{
    switch (precision_) {
      case Precision::FP32:
        return static_cast<float>(acc) + bias;
      case Precision::FP16:
        return roundToHalf(static_cast<float>(acc) + bias);
      case Precision::INT16:
      case Precision::INT8: {
        // The integer output path re-quantises the real-valued result
        // into the (narrow) output representation, modelling the
        // precision loss and saturation of the writeback datapath.
        float real = static_cast<float>(acc) + bias;
        return dequantize(quantize(real, outQuant_), outQuant_);
      }
    }
    panic("unknown Precision");
}

void
MacLayer::writebackRun(float *op, int nc, int W, const float *bias,
                       float scale) const
{
    const std::size_t n = static_cast<std::size_t>(nc) * W;
    if (scale != 1.0f)
        for (std::size_t i = 0; i < n; ++i)
            op[i] = static_cast<float>(static_cast<double>(op[i]) * scale);
    // A missing bias adds +0.0f, exactly as writeback() does.
    for (int c = 0; c < nc; ++c) {
        const float b = bias ? bias[c] : 0.0f;
        for (int l = 0; l < W; ++l)
            op[c * W + l] += b;
    }
    if (precision_ == Precision::FP16)
        simd::roundToHalfBatch(op, op, n);
}

void
MacLayer::writebackRun(const std::int64_t *acc, int nc, int W,
                       const float *bias, float *op, float scale) const
{
    // Splitting writeback into real-value, batch-quantise, dequantise
    // steps keeps each lane's arithmetic exactly the scalar sequence;
    // the double product stays left-associated (part of the bit
    // contract).
    constexpr int kRunMax = simd::kNarrowLanes * kMaxBatchLanes;
    panic_if(nc * W > kRunMax, "writeback run too wide");
    float real[kRunMax];
    std::int32_t q[kRunMax];
    for (int c = 0; c < nc; ++c) {
        const float b = bias ? bias[c] : 0.0f;
        for (int l = 0; l < W; ++l)
            real[c * W + l] =
                static_cast<float>(static_cast<double>(acc[c * W + l]) *
                                   inQuant_.scale * wQuant_.scale *
                                   scale) +
                b;
    }
    simd::quantizeBatch(real, q, static_cast<std::size_t>(nc) * W,
                        outQuant_);
    for (int i = 0; i < nc * W; ++i)
        op[i] = dequantize(q[i], outQuant_);
}

} // namespace fidelity
