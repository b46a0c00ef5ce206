/**
 * @file
 * Differential suite for the SIMD kernel layer: the vector backends
 * must be bit-identical to the scalar backend everywhere.
 *
 * Covers the batch operand converters over adversarial bit patterns
 * (NaN payloads, infinities, subnormals, signed zeros, RNE ties), the
 * block-compare scans, dense forward passes of conv/FC/matmul across
 * FP32/FP16/INT8/INT16 with odd (non-lane-multiple) shapes and
 * grouped/dilated/strided convolutions, forwardRegion boxes that cut
 * through lane blocks, the vectorized elementwise/activation paths,
 * and whole-campaign equality with the backend toggle on and off AND
 * across every runtime-dispatchable backend (forced scalar / SSE2 /
 * AVX2 within one binary).  The narrow integer kernels additionally
 * get direct differential coverage: odd-reduction pair padding, the
 * statically proven int32 chunk bound at its exact overflow edge, and
 * chunk-length invariance of the spilled int64 result.  The batched
 * MAC rows' multi-column entries are compared under every backend
 * against single-column scalar references, bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "simd/convert.hh"
#include "simd/pack.hh"
#include "simd/simd.hh"
#include "sim/arena.hh"
#include "sim/rng.hh"
#include "tensor/bitops.hh"
#include "tensor/quant.hh"
#include "workloads/metrics.hh"

using namespace fidelity;

namespace
{

/** Restore the global backend toggle when a test scope ends. */
struct SimdToggle
{
    bool saved = simd::enabled();
    ~SimdToggle() { simd::setEnabled(saved); }
};

/** Drop any API-forced backend when a test scope ends, returning to
 *  the env/CPUID selection the process started with. */
struct BackendForce
{
    ~BackendForce() { simd::forceBackend("auto"); }
};

/** Every backend that can be forced on this host, scalar first. */
std::vector<const char *>
availableBackends()
{
    std::vector<const char *> v{"scalar"};
    for (const char *n : {"sse2", "avx2", "neon"})
        if (simd::backendAvailable(n))
            v.push_back(n);
    return v;
}

Tensor
randomTensor(std::uint64_t seed, int n, int h, int w, int c)
{
    Rng rng(seed);
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    if (!a.sameShape(b))
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::bit_cast<std::uint32_t>(a[i]) !=
            std::bit_cast<std::uint32_t>(b[i]))
            return false;
    return true;
}

std::unique_ptr<Conv2D>
makeConv(std::string name, const ConvSpec &spec, std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t wcount = static_cast<std::size_t>(spec.kh) * spec.kw *
                         (spec.inC / spec.groups) * spec.outC;
    int fan_in = spec.kh * spec.kw * (spec.inC / spec.groups);
    return std::make_unique<Conv2D>(
        std::move(name), spec, heWeights(rng, wcount, fan_in),
        spec.bias ? smallBiases(rng, spec.outC) : std::vector<float>{});
}

void
setupPrecision(Layer &layer, const std::vector<const Tensor *> &ins,
               Precision p)
{
    layer.setPrecision(p);
    if (p == Precision::INT8 || p == Precision::INT16) {
        Tensor ref = layer.forward(ins);
        layer.calibrate(ins, ref);
    }
}

/** forward() with the toggle on and off; expects bitwise equality. */
Tensor
forwardBothWays(const Layer &layer,
                const std::vector<const Tensor *> &ins)
{
    SimdToggle guard;
    simd::setEnabled(true);
    Tensor vec = layer.forward(ins);
    simd::setEnabled(false);
    Tensor ref = layer.forward(ins);
    EXPECT_TRUE(bitIdentical(vec, ref));
    return vec;
}

constexpr Precision kAllPrecisions[] = {
    Precision::FP32, Precision::FP16, Precision::INT8,
    Precision::INT16};

/** Adversarial float patterns for the converter tests. */
std::vector<float>
adversarialFloats()
{
    std::vector<float> v;
    auto bits = [](std::uint32_t u) { return std::bit_cast<float>(u); };
    v.insert(v.end(),
             {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -0.5f, 65504.0f,
              -65504.0f, 65520.0f, 70000.0f, 1e-8f, -1e-8f,
              std::numeric_limits<float>::infinity(),
              -std::numeric_limits<float>::infinity(),
              std::numeric_limits<float>::quiet_NaN(),
              bits(0x7fc00001u),   // NaN, payload bit set
              bits(0xffc01234u),   // negative NaN, payload bits
              bits(0x7f800001u),   // signalling NaN pattern
              bits(0x00000001u),   // smallest subnormal
              bits(0x807fffffu),   // largest negative subnormal
              bits(0x33800000u),   // 2^-24: half-subnormal tie
              bits(0x33800001u),   // just above the tie
              1.00048828125f,      // halfway between half values
              1.0009765625f, 2.5f, -2.5f, 3.5f, -3.5f});
    // Pad to an odd length so vector blocks leave a scalar tail.
    Rng rng(99);
    while (v.size() < 61)
        v.push_back(static_cast<float>(rng.normal(0, 100)));
    return v;
}

CorrectnessFn
top1Match()
{
    return top1Metric();
}

} // namespace

TEST(SimdDispatch, TableMatchesReportedBackend)
{
    SimdToggle guard;
    simd::setEnabled(true);
    EXPECT_NE(simd::backendName(), nullptr);
    EXPECT_NE(simd::dispatchMode(), nullptr);
    EXPECT_STREQ(simd::table().name, simd::backendName());
    // The scalar table is compiled unconditionally; fantasy backends
    // and null names must not resolve.
    EXPECT_TRUE(simd::backendAvailable("scalar"));
    EXPECT_FALSE(simd::backendAvailable("vliw9000"));
    EXPECT_FALSE(simd::backendAvailable(nullptr));
#if defined(FIDELITY_SIMD_X86_BASELINE)
    // The x86-64 baseline guarantees the SSE2 table in every binary.
    EXPECT_TRUE(simd::backendAvailable("sse2"));
#endif
}

TEST(SimdDispatch, ForceBackendRoundTrips)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    std::string before = simd::backendName();
    for (const char *n : availableBackends()) {
        EXPECT_TRUE(simd::forceBackend(n)) << n;
        EXPECT_STREQ(simd::backendName(), n);
        EXPECT_STREQ(simd::table().name, n);
        EXPECT_STREQ(simd::dispatchMode(), "forced-api");
    }
    // A failed force leaves the previous choice untouched.
    ASSERT_TRUE(simd::forceBackend("scalar"));
    EXPECT_FALSE(simd::forceBackend("vliw9000"));
    EXPECT_STREQ(simd::backendName(), "scalar");
    // "auto" (or null/empty) restores the startup selection.
    EXPECT_TRUE(simd::forceBackend("auto"));
    EXPECT_EQ(before, simd::backendName());
}

TEST(SimdDispatch, KillSwitchOverridesForce)
{
    SimdToggle toggle;
    BackendForce guard;
    // With the kill switch off, table() hands out the scalar table no
    // matter what is forced; backendName() keeps reporting the backend
    // table() would use with the switch back on.
    for (const char *n : availableBackends()) {
        ASSERT_TRUE(simd::forceBackend(n));
        simd::setEnabled(false);
        EXPECT_STREQ(simd::table().name, "scalar") << n;
        EXPECT_STREQ(simd::backendName(), n);
        simd::setEnabled(true);
        EXPECT_STREQ(simd::table().name, n);
    }
}

TEST(SimdDispatch, ForcedBackendsBitIdenticalForward)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    ConvSpec spec{.inC = 5, .outC = 19, .kh = 3, .kw = 3, .pad = 1};
    int seed = 900;
    for (Precision p : kAllPrecisions) {
        auto conv = makeConv("c", spec, seed);
        Tensor x = randomTensor(seed + 1, 1, 7, 7, spec.inC);
        std::vector<const Tensor *> ins{&x};
        setupPrecision(*conv, ins, p);
        ASSERT_TRUE(simd::forceBackend("scalar"));
        Tensor ref = conv->forward(ins);
        for (const char *n : availableBackends()) {
            ASSERT_TRUE(simd::forceBackend(n));
            EXPECT_TRUE(bitIdentical(conv->forward(ins), ref))
                << "backend " << n;
        }
        seed += 2;
    }
}

TEST(SimdBackend, ToggleRoundTrips)
{
    SimdToggle guard;
    simd::setEnabled(false);
    EXPECT_FALSE(simd::enabled());
    simd::setEnabled(true);
    EXPECT_TRUE(simd::enabled());
}

TEST(SimdBackend, BitDiffScansMatchReference)
{
    auto ref_first = [](const std::vector<float> &a,
                        const std::vector<float> &b) {
        for (std::size_t i = 0; i < a.size(); ++i)
            if (std::bit_cast<std::uint32_t>(a[i]) !=
                std::bit_cast<std::uint32_t>(b[i]))
                return i;
        return a.size();
    };
    auto ref_last = [](const std::vector<float> &a,
                       const std::vector<float> &b) {
        for (std::size_t i = a.size(); i > 0; --i)
            if (std::bit_cast<std::uint32_t>(a[i - 1]) !=
                std::bit_cast<std::uint32_t>(b[i - 1]))
                return i - 1;
        return a.size();
    };
    Rng rng(5);
    for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 31u, 40u}) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<float> a(n), b;
            for (auto &v : a)
                v = static_cast<float>(rng.normal(0, 1));
            b = a;
            // Flip a random subset, sometimes none; include the
            // bit-level oddballs numeric comparison would miss.
            for (std::size_t i = 0; i < n; ++i) {
                double r = rng.normal(0, 1);
                if (r > 1.0)
                    b[i] = -b[i];
                else if (r < -1.5)
                    b[i] = b[i] == 0.0f ? -0.0f : b[i];
            }
            if (trial == 0 && n > 0)
                b[n - 1] = std::bit_cast<float>(
                    std::bit_cast<std::uint32_t>(b[n - 1]) ^ 1u);
            EXPECT_EQ(simd::firstBitDiff(a.data(), b.data(), n),
                      ref_first(a, b));
            EXPECT_EQ(simd::lastBitDiff(a.data(), b.data(), n),
                      ref_last(a, b));
        }
    }
    // Signed-zero and NaN-payload changes must count as differences.
    std::vector<float> a{0.0f, std::bit_cast<float>(0x7fc00000u)};
    std::vector<float> b{-0.0f, std::bit_cast<float>(0x7fc00001u)};
    EXPECT_EQ(simd::firstBitDiff(a.data(), b.data(), 2), 0u);
    EXPECT_EQ(simd::lastBitDiff(a.data(), b.data(), 2), 1u);
}

TEST(SimdConvert, RoundToHalfBatchMatchesScalar)
{
    SimdToggle guard;
    std::vector<float> in = adversarialFloats();
    std::vector<float> outVec(in.size()), outRef(in.size());
    simd::setEnabled(true);
    simd::roundToHalfBatch(in.data(), outVec.data(), in.size());
    simd::setEnabled(false);
    simd::roundToHalfBatch(in.data(), outRef.data(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(outVec[i]),
                  std::bit_cast<std::uint32_t>(roundToHalf(in[i])))
            << "element " << i;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(outVec[i]),
                  std::bit_cast<std::uint32_t>(outRef[i]))
            << "element " << i;
    }
    // In-place operation is part of the contract.
    std::vector<float> inplace = in;
    simd::setEnabled(true);
    simd::roundToHalfBatch(inplace.data(), inplace.data(),
                           inplace.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(inplace[i]),
                  std::bit_cast<std::uint32_t>(outVec[i]));
}

TEST(SimdConvert, QuantizeBatchMatchesScalar)
{
    SimdToggle guard;
    std::vector<float> in = adversarialFloats();
    for (int bits : {8, 16}) {
        for (double absMax : {1.0, 3.7, 1000.0}) {
            QuantParams qp = calibrateAbsMax(absMax, bits);
            std::vector<std::int32_t> outVec(in.size()),
                outRef(in.size());
            simd::setEnabled(true);
            simd::quantizeBatch(in.data(), outVec.data(), in.size(),
                                qp);
            simd::setEnabled(false);
            simd::quantizeBatch(in.data(), outRef.data(), in.size(),
                                qp);
            for (std::size_t i = 0; i < in.size(); ++i) {
                EXPECT_EQ(outVec[i], quantize(in[i], qp))
                    << "bits " << bits << " element " << i;
                EXPECT_EQ(outVec[i], outRef[i]);
            }
        }
    }
}

TEST(SimdConvert, QuantizeBatchRoundsHalfToEven)
{
    // scale = 1 makes the tie points explicit: nearbyint under the
    // default rounding mode takes 0.5 -> 0, 1.5 -> 2, 2.5 -> 2.
    QuantParams qp;
    qp.scale = 1.0;
    qp.bits = 8;
    std::vector<float> in{0.5f, 1.5f, 2.5f, 3.5f, -0.5f, -1.5f, -2.5f,
                          -3.5f, 126.5f, 127.5f};
    std::vector<std::int32_t> expect{0, 2, 2, 4, 0, -2, -2, -4, 126,
                                     127};
    std::vector<std::int32_t> out(in.size());
    SimdToggle guard;
    for (bool on : {true, false}) {
        simd::setEnabled(on);
        simd::quantizeBatch(in.data(), out.data(), in.size(), qp);
        EXPECT_EQ(out, expect) << "simd " << on;
    }
}

TEST(SimdKernels, ConvForwardMatchesScalarAcrossShapes)
{
    const ConvSpec specs[] = {
        {.inC = 3, .outC = 13, .kh = 3, .kw = 3, .pad = 1},
        {.inC = 5, .outC = 9, .kh = 1, .kw = 1, .bias = false},
        {.inC = 8, .outC = 12, .kh = 3, .kw = 3, .stride = 2, .pad = 2,
         .dilation = 2, .groups = 4},
        {.inC = 6, .outC = 6, .kh = 3, .kw = 3, .pad = 1, .groups = 6},
        {.inC = 4, .outC = 17, .kh = 2, .kw = 3, .stride = 2},
    };
    int seed = 300;
    for (const ConvSpec &spec : specs) {
        for (Precision p : kAllPrecisions) {
            auto conv = makeConv("c", spec, seed);
            Tensor x = randomTensor(seed + 1, 2, 7, 9, spec.inC);
            std::vector<const Tensor *> ins{&x};
            setupPrecision(*conv, ins, p);
            Tensor out = forwardBothWays(*conv, ins);
            // Anchor to the canonical definition: a sample of neurons
            // must match computeNeuron exactly.
            for (std::size_t flat = 0; flat < out.size();
                 flat += out.size() / 23 + 1) {
                NeuronIndex idx = out.indexOf(flat);
                EXPECT_EQ(
                    std::bit_cast<std::uint32_t>(out[flat]),
                    std::bit_cast<std::uint32_t>(
                        conv->computeNeuron(ins, idx, nullptr)))
                    << "outC " << spec.outC << " flat " << flat;
            }
            ++seed;
        }
    }
}

TEST(SimdKernels, ConvForwardRegionMatchesAcrossBoxes)
{
    ConvSpec spec{.inC = 6, .outC = 18, .kh = 3, .kw = 3, .pad = 1,
                  .groups = 2};
    for (Precision p : kAllPrecisions) {
        auto conv = makeConv("c", spec, 410);
        Tensor x = randomTensor(411, 1, 8, 8, spec.inC);
        std::vector<const Tensor *> ins{&x};
        setupPrecision(*conv, ins, p);
        Tensor golden = conv->forward(ins);

        // Boxes chosen to slice lane blocks: single channel, a span
        // crossing the block boundary, a cross-group span, full.
        struct Box
        {
            int c0, c1;
        };
        for (const Box &box :
             {Box{0, 1}, Box{3, 11}, Box{7, 18}, Box{0, 18}}) {
            Region r{0, 1, 2, 6, 1, 7, box.c0, box.c1};
            SimdToggle guard;
            for (bool on : {true, false}) {
                simd::setEnabled(on);
                Tensor out = golden;
                // Scribble inside the box to prove it is recomputed.
                for (int h = r.h0; h < r.h1; ++h)
                    for (int w = r.w0; w < r.w1; ++w)
                        for (int c = r.c0; c < r.c1; ++c)
                            out.at(0, h, w, c) = -1234.5f;
                conv->forwardRegion(ins, r, out);
                EXPECT_TRUE(bitIdentical(out, golden))
                    << "box [" << box.c0 << ", " << box.c1
                    << ") simd " << on;
            }
        }
    }
}

TEST(SimdKernels, FcForwardMatchesScalar)
{
    Rng rng(500);
    int inC = 7, units = 19;
    FC fc("fc", inC, units,
          heWeights(rng, static_cast<std::size_t>(inC) * units, inC),
          smallBiases(rng, units));
    Tensor x = randomTensor(501, 2, 3, 1, inC);
    std::vector<const Tensor *> ins{&x};
    for (Precision p : kAllPrecisions) {
        setupPrecision(fc, ins, p);
        Tensor out = forwardBothWays(fc, ins);
        for (std::size_t flat = 0; flat < out.size(); flat += 5) {
            NeuronIndex idx = out.indexOf(flat);
            EXPECT_EQ(std::bit_cast<std::uint32_t>(out[flat]),
                      std::bit_cast<std::uint32_t>(
                          fc.computeNeuron(ins, idx, nullptr)));
        }
    }
}

TEST(SimdKernels, MatMulForwardMatchesScalar)
{
    for (bool transB : {false, true}) {
        MatMulAB mm("mm", transB, 0.125f);
        Tensor a = randomTensor(601, 2, 5, 1, 11);
        Tensor b = transB ? randomTensor(602, 1, 13, 1, 11)
                          : randomTensor(602, 1, 11, 1, 13);
        std::vector<const Tensor *> ins{&a, &b};
        for (Precision p : kAllPrecisions) {
            setupPrecision(mm, ins, p);
            Tensor out = forwardBothWays(mm, ins);
            for (std::size_t flat = 0; flat < out.size(); flat += 7) {
                NeuronIndex idx = out.indexOf(flat);
                EXPECT_EQ(std::bit_cast<std::uint32_t>(out[flat]),
                          std::bit_cast<std::uint32_t>(
                              mm.computeNeuron(ins, idx, nullptr)))
                    << "transB " << transB;
            }
        }
    }
}

TEST(SimdKernels, ElementwiseAndActivationMatchScalar)
{
    // Length 21 leaves a scalar tail after any lane width; the NaN
    // and signed-zero elements exercise the select semantics.
    Tensor a = randomTensor(700, 1, 3, 7, 1);
    Tensor b = randomTensor(701, 1, 3, 7, 1);
    a.data()[0] = std::numeric_limits<float>::quiet_NaN();
    a.data()[1] = -0.0f;
    a.data()[2] = 0.0f;
    b.data()[3] = std::numeric_limits<float>::quiet_NaN();
    std::vector<const Tensor *> ab{&a, &b};
    std::vector<const Tensor *> only_a{&a};

    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<Elementwise>(
        "add", Elementwise::Op::Add));
    layers.push_back(std::make_unique<Elementwise>(
        "mul", Elementwise::Op::Mul));
    layers.push_back(std::make_unique<Elementwise>(
        "sub", Elementwise::Op::Sub));
    layers.push_back(std::make_unique<ScaleShift>("ss", -1.5f, 0.25f));
    layers.push_back(std::make_unique<Activation>(
        "relu", Activation::Func::ReLU));
    layers.push_back(std::make_unique<Activation>(
        "lrelu", Activation::Func::LeakyReLU, 0.1f));
    layers.push_back(std::make_unique<Activation>(
        "sigmoid", Activation::Func::Sigmoid));

    for (auto &layer : layers) {
        bool binary = layer->name() == "add" ||
                      layer->name() == "mul" ||
                      layer->name() == "sub";
        const auto &ins = binary ? ab : only_a;
        for (Precision p : {Precision::FP32, Precision::FP16}) {
            layer->setPrecision(p);
            forwardBothWays(*layer, ins);
        }
    }
}

namespace
{

/** Small mixed network for the whole-campaign equality tests. */
void
buildCampaignNet(Network &net, std::uint64_t seed)
{
    Rng rng(seed);
    NodeId c1 = net.add(
        makeConv("c1", {.inC = 3, .outC = 11, .kh = 3, .kw = 3,
                        .pad = 1},
                 seed + 1),
        0);
    NodeId r1 = net.add(
        std::make_unique<Activation>("relu", Activation::Func::ReLU),
        c1);
    NodeId c2 = net.add(
        makeConv("c2", {.inC = 11, .outC = 8, .kh = 3, .kw = 3,
                        .stride = 2, .groups = 1},
                 seed + 2),
        r1);
    NodeId gap = net.add(std::make_unique<GlobalAvgPool>("gap"), c2);
    net.add(std::make_unique<FC>("fc", 8, 5, heWeights(rng, 40, 8),
                                 smallBiases(rng, 5)),
            gap);
}

/** Campaign checksums — counters and raw sample bits — must agree. */
void
expectCampaignsEqual(const CampaignResult &vec,
                     const CampaignResult &ref, const char *what)
{
    EXPECT_EQ(vec.totalInjections, ref.totalInjections) << what;
    ASSERT_EQ(vec.cells.size(), ref.cells.size()) << what;
    for (std::size_t i = 0; i < vec.cells.size(); ++i) {
        EXPECT_EQ(vec.cells[i].masked.successes(),
                  ref.cells[i].masked.successes())
            << what;
        EXPECT_EQ(vec.cells[i].masked.trials(),
                  ref.cells[i].masked.trials())
            << what;
    }
    ASSERT_EQ(vec.singleNeuronSamples.size(),
              ref.singleNeuronSamples.size())
        << what;
    for (std::size_t i = 0; i < vec.singleNeuronSamples.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      vec.singleNeuronSamples[i].first),
                  std::bit_cast<std::uint64_t>(
                      ref.singleNeuronSamples[i].first))
            << what;
        EXPECT_EQ(vec.singleNeuronSamples[i].second,
                  ref.singleNeuronSamples[i].second)
            << what;
    }
}

} // namespace

TEST(SimdKernels, CampaignChecksumIdenticalWithToggle)
{
    Network net("toggle");
    buildCampaignNet(net, 800);
    Tensor input = randomTensor(803, 1, 8, 8, 3);
    for (Precision p : kAllPrecisions) {
        net.setPrecision(p);
        if (p == Precision::INT8 || p == Precision::INT16)
            net.calibrate(input);

        CampaignConfig cfg;
        cfg.samplesPerCategory = 4;
        cfg.seed = 804;

        SimdToggle guard;
        simd::setEnabled(true);
        CampaignResult vec = runCampaign(net, input, top1Match(), cfg);
        simd::setEnabled(false);
        CampaignResult ref = runCampaign(net, input, top1Match(), cfg);
        expectCampaignsEqual(vec, ref, "toggle");
    }
}

TEST(SimdKernels, CampaignChecksumIdenticalAcrossForcedBackends)
{
    // One binary, every backend: force scalar, then each ISA table the
    // host can run, and require bit-identical campaign results.  This
    // is the runtime-dispatch counterpart of the toggle test above and
    // the in-process version of the cross-build CI matrix.
    Network net("dispatch");
    buildCampaignNet(net, 820);
    Tensor input = randomTensor(823, 1, 8, 8, 3);
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    for (Precision p : kAllPrecisions) {
        net.setPrecision(p);
        if (p == Precision::INT8 || p == Precision::INT16)
            net.calibrate(input);

        CampaignConfig cfg;
        cfg.samplesPerCategory = 4;
        cfg.seed = 824;

        ASSERT_TRUE(simd::forceBackend("scalar"));
        CampaignResult ref = runCampaign(net, input, top1Match(), cfg);
        for (const char *n : availableBackends()) {
            ASSERT_TRUE(simd::forceBackend(n));
            CampaignResult got =
                runCampaign(net, input, top1Match(), cfg);
            expectCampaignsEqual(got, ref, n);
        }
    }
}

TEST(SimdNarrow, ChunkPairsBoundary)
{
    // pairBound = 2 * 2^(bits-1) * maxAbsW; the chunk is the largest
    // pair count whose int32 sum provably cannot overflow.
    EXPECT_EQ(simd::narrowChunkPairs(8, 1), 2147483647 / 256);
    EXPECT_EQ(simd::narrowChunkPairs(8, 127), 2147483647 / 32512);
    // Exactly at the int32 edge one pair still fits ...
    EXPECT_EQ(simd::narrowChunkPairs(16, 32767), 1);
    // ... one more magnitude step and even a single pair could wrap
    // (2 * 2^15 * 2^15 = 2^31 > INT32_MAX; this bound also excludes
    // pmaddwd's sole internal wrap case, all four operands -2^15).
    EXPECT_EQ(simd::narrowChunkPairs(16, 32768), 0);
    // All-zero weights overflow nothing: the cap applies.
    EXPECT_EQ(simd::narrowChunkPairs(8, 0), 1 << 28);

    // Eligibility = legal AND long enough to be profitable.
    EXPECT_TRUE(simd::narrowEligible(simd::narrowChunkPairs(8, 127)));
    EXPECT_FALSE(simd::narrowEligible(simd::narrowChunkPairs(16, 32767)));
    EXPECT_FALSE(simd::narrowEligible(0));
    EXPECT_FALSE(simd::narrowEligible(simd::kNarrowMinChunk - 1));
    EXPECT_TRUE(simd::narrowEligible(simd::kNarrowMinChunk));
}

namespace
{

/** Plain int64 reference for the narrow GEMM contract. */
void
refGemmNarrow(const std::int16_t *x, int red, int cols,
              const std::vector<std::int16_t> &w, std::int64_t *acc)
{
    constexpr int L = simd::kNarrowLanes;
    int nblocks = simd::packBlocks(cols, L);
    for (int b = 0; b < nblocks; ++b)
        for (int l = 0; l < L; ++l) {
            int c = b * L + l;
            std::int64_t s = 0;
            if (c < cols)
                for (int k = 0; k < red; ++k)
                    s += static_cast<std::int64_t>(x[k]) *
                         w[static_cast<std::size_t>(k) * cols + c];
            acc[b * L + l] = s;
        }
}

} // namespace

TEST(SimdNarrow, GemmNarrowMatchesInt64ReferenceAcrossBackends)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(910);
    // Odd reductions exercise the zero-weight pair pad; cols = 11
    // leaves a partially filled second lane block.
    for (int red : {1, 7, 8, 128}) {
        for (int cols : {1, 8, 11}) {
            std::vector<std::int16_t> w(
                static_cast<std::size_t>(red) * cols);
            for (auto &v : w)
                v = static_cast<std::int16_t>(
                    static_cast<int>(rng.normal(0, 60)) % 127);
            int redPairs = simd::packPairs(red);
            std::vector<std::int16_t> x(2 * redPairs, 0);
            for (int k = 0; k < red; ++k)
                x[k] = static_cast<std::int16_t>(
                    static_cast<int>(rng.normal(0, 60)) % 128);
            if (red & 1) {
                // The pad operand pairs with a zero weight, so its
                // value must not matter: poison it.
                x[red] = 12345;
            }
            AlignedVec<std::int16_t> packed(
                simd::packNarrowSize(red, cols));
            simd::packNarrow(
                red, cols,
                [&](int k, int c) {
                    return static_cast<std::int32_t>(
                        w[static_cast<std::size_t>(k) * cols + c]);
                },
                packed.data());

            int nblocks = simd::packBlocks(cols, simd::kNarrowLanes);
            std::vector<std::int64_t> ref(
                static_cast<std::size_t>(nblocks) *
                simd::kNarrowLanes);
            refGemmNarrow(x.data(), red, cols, w, ref.data());

            // The spilled int64 result must not depend on the chunk
            // length (chunk invariance) or on the backend.
            for (int chunk : {1, 3, simd::narrowChunkPairs(8, 127)}) {
                for (const char *n : availableBackends()) {
                    ASSERT_TRUE(simd::forceBackend(n));
                    std::vector<std::int64_t> acc(ref.size(), -777);
                    simd::table().gemmNarrow(x.data(), redPairs,
                                             nblocks, packed.data(),
                                             chunk, acc.data());
                    EXPECT_EQ(acc, ref)
                        << "backend " << n << " red " << red
                        << " cols " << cols << " chunk " << chunk;
                }
            }
        }
    }
}

TEST(SimdNarrow, ChunkedSpillExactAtInt32Edge)
{
    // Each pair sum is 2 * 32767 * 32767 = 2147352578 — within 131070
    // of INT32_MAX, so one pair fits int32 exactly and two would wrap.
    // With chunkPairs = 1 every pair must spill into int64; 64 pairs
    // of that magnitude put the total near 1.37e11, far outside int32,
    // so a missed spill or an internal wrap cannot cancel out.
    constexpr int red = 128, cols = 9;
    constexpr std::int16_t kMax = 32767;
    std::vector<std::int16_t> w(
        static_cast<std::size_t>(red) * cols, kMax);
    int redPairs = simd::packPairs(red);
    std::vector<std::int16_t> x(2 * redPairs, kMax);
    // One column alternates signs so cancellation paths are covered.
    for (int k = 0; k < red; ++k)
        w[static_cast<std::size_t>(k) * cols + 4] =
            (k & 1) ? kMax : static_cast<std::int16_t>(-kMax);
    AlignedVec<std::int16_t> packed(simd::packNarrowSize(red, cols));
    simd::packNarrow(
        red, cols,
        [&](int k, int c) {
            return static_cast<std::int32_t>(
                w[static_cast<std::size_t>(k) * cols + c]);
        },
        packed.data());

    int nblocks = simd::packBlocks(cols, simd::kNarrowLanes);
    std::vector<std::int64_t> ref(
        static_cast<std::size_t>(nblocks) * simd::kNarrowLanes);
    refGemmNarrow(x.data(), red, cols, w, ref.data());

    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    for (const char *n : availableBackends()) {
        ASSERT_TRUE(simd::forceBackend(n));
        std::vector<std::int64_t> acc(ref.size(), -777);
        simd::table().gemmNarrow(x.data(), redPairs, nblocks,
                                 packed.data(), 1, acc.data());
        EXPECT_EQ(acc, ref) << "backend " << n;
    }
}

TEST(SimdNarrow, BatchMacNarrowMatchesReference)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(930);
    for (int red : {1, 5, 8, 33}) {
        for (int W : {1, 4, 5, 8}) {
            int redPairs = simd::packPairs(red);
            // Lane-minor operand rows, zero-padded final row when the
            // reduction is odd (contract: the pad weight is zero).
            std::vector<std::int16_t> xg(
                static_cast<std::size_t>(2 * redPairs) * W, 0);
            for (int k = 0; k < red; ++k)
                for (int l = 0; l < W; ++l)
                    xg[static_cast<std::size_t>(k) * W + l] =
                        static_cast<std::int16_t>(
                            static_cast<int>(rng.normal(0, 60)) % 128);
            std::vector<std::int16_t> wv(2 * redPairs, 0);
            for (int k = 0; k < red; ++k)
                wv[k] = static_cast<std::int16_t>(
                    static_cast<int>(rng.normal(0, 60)) % 127);

            std::vector<std::int64_t> ref(W, 0);
            for (int l = 0; l < W; ++l) {
                std::int64_t s = 0;
                for (int k = 0; k < red; ++k)
                    s += static_cast<std::int64_t>(wv[k]) *
                         xg[static_cast<std::size_t>(k) * W + l];
                ref[l] = s;
            }

            for (int chunk : {1, 3, simd::narrowChunkPairs(8, 127)}) {
                for (const char *n : availableBackends()) {
                    ASSERT_TRUE(simd::forceBackend(n));
                    std::vector<std::int64_t> acc(W, -777);
                    simd::table().batchMacNarrow(xg.data(), wv.data(),
                                                 redPairs, 2, chunk, W,
                                                 1, acc.data());
                    EXPECT_EQ(acc, ref)
                        << "backend " << n << " red " << red << " W "
                        << W << " chunk " << chunk;
                }
            }
        }
    }
}

/**
 * Operand pool for the multi-column batched MAC differential tests:
 * the FP16 edge values (±Inf, ±0, subnormals, the largest finite
 * half) plus NaN.  The NaN is the one the FPU itself generates (for
 * Inf * 0), so every NaN in a run carries the same bits whichever
 * operand an instruction propagates.
 */
float
batchMacOperand(Rng &rng)
{
    volatile float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {inf,
                              -inf,
                              inf * 0.0f,
                              0.0f,
                              -0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              -1e-40f,
                              5.96e-8f,
                              65504.0f,
                              -65504.0f};
    constexpr std::uint32_t kN = sizeof(specials) / sizeof(specials[0]);
    if (rng.below(4) == 0)
        return specials[rng.below(kN)];
    return static_cast<float>(rng.normal(0, 1));
}

/** Lane widths, column counts and reductions the multi-column batched
 *  MAC tests sweep: every W the dispatch splits differently, column
 *  counts across two full kMacCols groups plus a remainder. */
constexpr int kBatchWs[] = {1, 2, 3, 4, 5, 8};
constexpr int kBatchReds[] = {1, 6, 19};

TEST(SimdBatchMac, F32ColumnsMatchSingleColumnScalarReference)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(1401);
    for (int red : kBatchReds) {
        for (int W : kBatchWs) {
            for (std::size_t wstride :
                 {std::size_t{1}, std::size_t{simd::kF32Lanes}}) {
                for (int ncols = 1; ncols <= 9; ++ncols) {
                    std::vector<float> xg(static_cast<std::size_t>(red) *
                                          W);
                    std::vector<float> w(ncols + red * wstride);
                    for (float &v : xg)
                        v = batchMacOperand(rng);
                    for (float &v : w)
                        v = batchMacOperand(rng);
                    // One column, one lane, canonical k order, unfused.
                    std::vector<float> ref(
                        static_cast<std::size_t>(ncols) * W);
                    for (int c = 0; c < ncols; ++c)
                        for (int l = 0; l < W; ++l) {
                            float a = 0.0f;
                            for (int k = 0; k < red; ++k) {
                                float prod = xg[k * W + l] *
                                             w[c + k * wstride];
                                a += prod;
                            }
                            ref[c * W + l] = a;
                        }
                    for (const char *n : availableBackends()) {
                        ASSERT_TRUE(simd::forceBackend(n));
                        std::vector<float> acc(ref.size(), -777.0f);
                        simd::table().batchMacF32(xg.data(), w.data(), red,
                                                  wstride, W, ncols,
                                                  acc.data());
                        for (std::size_t i = 0; i < ref.size(); ++i)
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(acc[i]),
                                      std::bit_cast<std::uint32_t>(ref[i]))
                                << "backend " << n << " red " << red
                                << " W " << W << " wstride " << wstride
                                << " ncols " << ncols << " at " << i;
                    }
                }
            }
        }
    }
}

TEST(SimdBatchMac, LaneMacColumnsMatchSingleColumnScalarReference)
{
    // Both operands per lane; b columns bcol apart, reduction steps
    // bstride apart (the transB and plain MatMulAB layouts).
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(1403);
    for (int red : kBatchReds) {
        for (int W : kBatchWs) {
            for (bool transB : {true, false}) {
                for (int ncols = 1; ncols <= 9; ++ncols) {
                    const std::size_t bstride =
                        transB ? W : static_cast<std::size_t>(ncols) * W;
                    const std::size_t bcol =
                        transB ? static_cast<std::size_t>(red) * W : W;
                    std::vector<float> a(static_cast<std::size_t>(red) * W);
                    std::vector<float> b(static_cast<std::size_t>(red) *
                                         ncols * W);
                    for (float &v : a)
                        v = batchMacOperand(rng);
                    for (float &v : b)
                        v = batchMacOperand(rng);
                    std::vector<float> ref(
                        static_cast<std::size_t>(ncols) * W);
                    for (int c = 0; c < ncols; ++c)
                        for (int l = 0; l < W; ++l) {
                            float s = 0.0f;
                            for (int k = 0; k < red; ++k) {
                                float prod = a[k * W + l] *
                                             b[c * bcol + k * bstride + l];
                                s += prod;
                            }
                            ref[c * W + l] = s;
                        }
                    for (const char *n : availableBackends()) {
                        ASSERT_TRUE(simd::forceBackend(n));
                        std::vector<float> acc(ref.size(), -777.0f);
                        simd::table().laneMacF32(a.data(), b.data(), red,
                                                 bstride, bcol, W, ncols,
                                                 acc.data());
                        for (std::size_t i = 0; i < ref.size(); ++i)
                            ASSERT_EQ(std::bit_cast<std::uint32_t>(acc[i]),
                                      std::bit_cast<std::uint32_t>(ref[i]))
                                << "backend " << n << " red " << red
                                << " W " << W << " transB " << transB
                                << " ncols " << ncols << " at " << i;
                    }
                }
            }
        }
    }
}

TEST(SimdBatchMac, I64ColumnsMatchSingleColumnReference)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(1402);
    // INT16 stored-form extremes plus random quantised values.
    auto operand = [&rng] {
        const std::int32_t edges[] = {-32768, 32767, -32767, 0, 1, -1};
        if (rng.below(3) == 0)
            return edges[rng.below(6)];
        return static_cast<std::int32_t>(rng.below(65536)) - 32768;
    };
    for (int red : kBatchReds) {
        for (int W : kBatchWs) {
            for (std::size_t wstride :
                 {std::size_t{1}, std::size_t{simd::kI64Lanes}}) {
                for (int ncols = 1; ncols <= 9; ++ncols) {
                    std::vector<std::int32_t> xg(
                        static_cast<std::size_t>(red) * W);
                    std::vector<std::int32_t> w(ncols + red * wstride);
                    for (auto &v : xg)
                        v = operand();
                    for (auto &v : w)
                        v = operand();
                    std::vector<std::int64_t> ref(
                        static_cast<std::size_t>(ncols) * W);
                    for (int c = 0; c < ncols; ++c)
                        for (int l = 0; l < W; ++l) {
                            std::int64_t a = 0;
                            for (int k = 0; k < red; ++k)
                                a += static_cast<std::int64_t>(
                                         w[c + k * wstride]) *
                                     xg[k * W + l];
                            ref[c * W + l] = a;
                        }
                    for (const char *n : availableBackends()) {
                        ASSERT_TRUE(simd::forceBackend(n));
                        std::vector<std::int64_t> acc(ref.size(), -777);
                        simd::table().batchMacI64(xg.data(), w.data(), red,
                                                  wstride, W, ncols,
                                                  acc.data());
                        ASSERT_EQ(acc, ref)
                            << "backend " << n << " red " << red << " W "
                            << W << " wstride " << wstride << " ncols "
                            << ncols;
                    }
                }
            }
        }
    }
}

TEST(SimdBatchMac, NarrowColumnsExactAtChunkBound)
{
    SimdToggle toggle;
    simd::setEnabled(true);
    BackendForce guard;
    Rng rng(1403);
    // (bits, max |w|): a one-pair chunk at the int16 edge, a 7-pair
    // chunk whose all-extreme sum lands within 2^28 of INT32_MAX, and
    // the INT8 production case.
    struct Bound
    {
        int bits;
        std::int32_t maxAbsW;
    };
    for (const Bound &bd : {Bound{16, 32767}, Bound{16, 4096},
                            Bound{8, 127}}) {
        const int chunk = simd::narrowChunkPairs(bd.bits, bd.maxAbsW);
        ASSERT_TRUE(chunk > 0);
        const std::int32_t xMin = -(1 << (bd.bits - 1));
        const std::int32_t xMax = (1 << (bd.bits - 1)) - 1;
        // Mostly extremes of matching sign, so chunk sums run at the
        // proven bound; some random values in between.
        auto xval = [&] {
            return rng.below(4) != 0
                       ? xMin
                       : xMin + static_cast<std::int32_t>(
                                    rng.below(xMax - xMin + 1));
        };
        auto wval = [&] {
            return rng.below(4) != 0
                       ? -bd.maxAbsW
                       : static_cast<std::int32_t>(
                             rng.below(2 * bd.maxAbsW + 1)) -
                             bd.maxAbsW;
        };
        for (int red : kBatchReds) {
            const int redPairs = simd::packPairs(red);
            for (int W : kBatchWs) {
                for (std::size_t wstride :
                     {std::size_t{1},
                      std::size_t{2 * simd::kNarrowLanes}}) {
                    for (int ncols = 1; ncols <= 9; ++ncols) {
                        // 2*redPairs lane rows, the odd pad row zero.
                        std::vector<std::int16_t> xg(
                            static_cast<std::size_t>(2 * redPairs) * W, 0);
                        for (int k = 0; k < red; ++k)
                            for (int l = 0; l < W; ++l)
                                xg[k * W + l] =
                                    static_cast<std::int16_t>(xval());
                        std::vector<std::int16_t> w(
                            2 * ncols + redPairs * wstride + 1);
                        for (auto &v : w)
                            v = static_cast<std::int16_t>(wval());
                        std::vector<std::int64_t> ref(
                            static_cast<std::size_t>(ncols) * W);
                        for (int c = 0; c < ncols; ++c)
                            for (int l = 0; l < W; ++l) {
                                std::int64_t a = 0;
                                for (int p = 0; p < redPairs; ++p)
                                    for (int j = 0; j < 2; ++j)
                                        a += static_cast<std::int64_t>(
                                                 w[2 * c + p * wstride +
                                                   j]) *
                                             xg[(2 * p + j) * W + l];
                                ref[c * W + l] = a;
                            }
                        for (const char *n : availableBackends()) {
                            ASSERT_TRUE(simd::forceBackend(n));
                            std::vector<std::int64_t> acc(ref.size(),
                                                          -777);
                            simd::table().batchMacNarrow(
                                xg.data(), w.data(), redPairs, wstride,
                                chunk, W, ncols, acc.data());
                            ASSERT_EQ(acc, ref)
                                << "backend " << n << " bits " << bd.bits
                                << " red " << red << " W " << W
                                << " wstride " << wstride << " ncols "
                                << ncols;
                        }
                    }
                }
            }
        }
    }
}

TEST(ArenaAlignment, PoolsAndPacksAre64ByteAligned)
{
    static_assert(kBufferAlign == 64);
    static_assert(kBufferAlign >= 32,
                  "AVX2 aligned loads need 32-byte buffers");
    auto aligned = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) % kBufferAlign == 0;
    };
    Arena &a = Arena::local();
    {
        auto f = a.floats(3);
        auto i = a.ints(7);
        auto s = a.shorts(61);
        auto l = a.longs(5);
        EXPECT_TRUE(aligned(f.data()));
        EXPECT_TRUE(aligned(i.data()));
        EXPECT_TRUE(aligned(s.data()));
        EXPECT_TRUE(aligned(l.data()));
    }
    // Reused (pooled) buffers keep the alignment after regrowth.
    {
        auto f = a.floats(1024);
        EXPECT_TRUE(aligned(f.data()));
    }
    // Packed-weight buffers share the allocator.
    AlignedVec<std::int16_t> pack(129);
    AlignedVec<float> packF(33);
    EXPECT_TRUE(aligned(pack.data()));
    EXPECT_TRUE(aligned(packF.data()));
}

TEST(QuantConstexpr, RangesAndClampAreCompileTime)
{
    constexpr QuantParams q8{1.0, 8};
    constexpr QuantParams q16{1.0, 16};
    static_assert(q8.qmax() == 127);
    static_assert(q8.qmin() == -128);
    static_assert(q16.qmax() == 32767);
    static_assert(q16.qmin() == -32768);
    static_assert(clampToRange(1000, q8) == 127);
    static_assert(clampToRange(-1000, q8) == -128);
    static_assert(clampToRange(42, q8) == 42);
    static_assert(clampToRange(40000, q16) == 32767);
    EXPECT_EQ(clampToRange(-40000, q16), -32768);
}
