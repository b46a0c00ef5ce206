/**
 * @file
 * Unit and property tests for Conv2D: reference-kernel agreement,
 * consumer queries, single-neuron recomputation, and substitutions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include "nn/conv.hh"
#include "nn/init.hh"
#include "sim/rng.hh"
#include "tensor/float16.hh"

using namespace fidelity;

namespace
{

/** Straightforward reference convolution in double precision. */
Tensor
refConv(const ConvSpec &s, const Tensor &x, const std::vector<float> &w,
        const std::vector<float> &b)
{
    int cpg = s.inC / s.groups;
    int opg = s.outC / s.groups;
    int eff_kh = (s.kh - 1) * s.dilation + 1;
    int eff_kw = (s.kw - 1) * s.dilation + 1;
    int oh_max = (x.h() + 2 * s.pad - eff_kh) / s.stride + 1;
    int ow_max = (x.w() + 2 * s.pad - eff_kw) / s.stride + 1;
    Tensor out(x.n(), oh_max, ow_max, s.outC);
    for (int n = 0; n < x.n(); ++n)
        for (int oh = 0; oh < oh_max; ++oh)
            for (int ow = 0; ow < ow_max; ++ow)
                for (int oc = 0; oc < s.outC; ++oc) {
                    int g = oc / opg;
                    double acc = b.empty() ? 0.0 : b[oc];
                    for (int kh = 0; kh < s.kh; ++kh)
                        for (int kw = 0; kw < s.kw; ++kw)
                            for (int cig = 0; cig < cpg; ++cig) {
                                int ih = oh * s.stride - s.pad +
                                         kh * s.dilation;
                                int iw = ow * s.stride - s.pad +
                                         kw * s.dilation;
                                if (ih < 0 || ih >= x.h() || iw < 0 ||
                                    iw >= x.w())
                                    continue;
                                std::size_t wi =
                                    ((static_cast<std::size_t>(kh) *
                                          s.kw + kw) * cpg + cig) *
                                        s.outC + oc;
                                acc += static_cast<double>(
                                           x.at(n, ih, iw,
                                                g * cpg + cig)) *
                                       w[wi];
                            }
                    out.at(n, oh, ow, oc) = static_cast<float>(acc);
                }
    return out;
}

struct ConvCase
{
    int in_c, out_c, kh, stride, pad, dilation, groups, h, w;
};

/** Square-kernel conv spec of a test case. */
ConvSpec
specOf(const ConvCase &cc)
{
    ConvSpec spec;
    spec.inC = cc.in_c;
    spec.outC = cc.out_c;
    spec.kh = cc.kh;
    spec.kw = cc.kh;
    spec.stride = cc.stride;
    spec.pad = cc.pad;
    spec.dilation = cc.dilation;
    spec.groups = cc.groups;
    return spec;
}

class ConvParam : public ::testing::TestWithParam<ConvCase>
{
};

} // namespace

TEST_P(ConvParam, MatchesReferenceKernel)
{
    ConvCase cc = GetParam();
    Rng rng(42);
    const ConvSpec spec = specOf(cc);
    std::size_t nw = static_cast<std::size_t>(spec.kh) * spec.kw *
                     (spec.inC / spec.groups) * spec.outC;
    auto w = heWeights(rng, nw, spec.kh * spec.kw * spec.inC);
    auto b = smallBiases(rng, spec.outC);
    Conv2D conv("c", spec, w, b);

    Tensor x(1, cc.h, cc.w, cc.in_c);
    for (auto &v : x.data())
        v = static_cast<float>(rng.normal(0, 1));
    std::vector<const Tensor *> ins{&x};

    Tensor got = conv.forward(ins);
    Tensor want = refConv(spec, x, w, b);
    ASSERT_TRUE(got.sameShape(want));
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 2e-4f) << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParam,
    ::testing::Values(ConvCase{4, 8, 3, 1, 1, 1, 1, 6, 6},
                      ConvCase{4, 8, 3, 2, 1, 1, 1, 8, 8},
                      ConvCase{3, 6, 1, 1, 0, 1, 1, 5, 5},
                      ConvCase{4, 8, 3, 1, 0, 1, 1, 7, 7},
                      ConvCase{4, 8, 3, 1, 2, 2, 1, 9, 9},
                      ConvCase{6, 6, 3, 1, 1, 1, 6, 6, 6},
                      ConvCase{8, 16, 3, 1, 1, 1, 2, 6, 6},
                      ConvCase{4, 8, 5, 1, 2, 1, 1, 8, 8}));

namespace
{

/** Bit pattern of a float: NaN payloads and signed zeros count. */
std::uint32_t
bitsOf(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

/**
 * Coalesce consumers into output boxes as the fault models do before
 * calling forwardWithSub: channel runs at one position, then w-runs
 * of a single channel.
 */
std::vector<Region>
coalesceBoxes(const NeuronIndex *cons, std::size_t count)
{
    std::vector<Region> boxes;
    for (std::size_t i = 0; i < count; ++i) {
        const NeuronIndex &n = cons[i];
        if (!boxes.empty()) {
            Region &b = boxes.back();
            bool one_pos = b.n1 == b.n0 + 1 && b.h1 == b.h0 + 1 &&
                           b.w1 == b.w0 + 1;
            if (one_pos && n.n == b.n0 && n.h == b.h0 && n.w == b.w0 &&
                n.c == b.c1) {
                ++b.c1;
                continue;
            }
            if (b.c1 == b.c0 + 1 && b.n1 == b.n0 + 1 &&
                b.h1 == b.h0 + 1 && n.n == b.n0 && n.h == b.h0 &&
                n.w == b.w1 && n.c == b.c0) {
                ++b.w1;
                continue;
            }
        }
        boxes.push_back(Region::of(n));
    }
    return boxes;
}

struct SubCase
{
    ConvCase geo;
    int batch;
};

class ConvSubParam : public ::testing::TestWithParam<SubCase>
{
};

} // namespace

TEST_P(ConvSubParam, ForwardWithSubMatchesComputeNeuronBitwise)
{
    // The vector paths of forwardWithSub (single Weight and single
    // Input substitutions) against per-neuron computeNeuron, bit for
    // bit, in every precision.  INT8 runs on the narrow int16 pack and
    // INT16 on the wide int32 pack (narrowChunkPairs).
    const SubCase sc = GetParam();
    const ConvCase &cc = sc.geo;
    Rng rng(42);
    const ConvSpec spec = specOf(cc);
    std::size_t nw = static_cast<std::size_t>(spec.kh) * spec.kw *
                     (spec.inC / spec.groups) * spec.outC;
    Conv2D conv("c", spec, heWeights(rng, nw, spec.kh * spec.kw * spec.inC),
                smallBiases(rng, spec.outC));
    Tensor x(sc.batch, cc.h, cc.w, cc.in_c);
    for (auto &v : x.data())
        v = static_cast<float>(rng.normal(0, 1));
    std::vector<const Tensor *> ins{&x};
    conv.calibrate(ins, conv.forward(ins));

    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float values[] = {inf, -inf, nan, 0.0f, -0.0f, 65504.0f};
    const Precision precs[] = {Precision::FP32, Precision::FP16,
                               Precision::INT16, Precision::INT8};
    const int cpg = spec.inC / spec.groups;
    for (Precision p : precs) {
        conv.setPrecision(p);
        Tensor got = conv.makeOutput(ins);
        int checked = 0, bad = 0;
        auto check = [&](const OperandSub &sub,
                         const std::vector<NeuronIndex> &cons,
                         std::size_t start, std::size_t count) {
            std::vector<Region> boxes =
                coalesceBoxes(cons.data() + start, count);
            // The one substitution without a vector path here: a NaN
            // input operand on the narrow (INT8) pack.
            const bool fallback = sub.kind == OperandSub::Kind::Input &&
                                  std::isnan(sub.value) &&
                                  p == Precision::INT8;
            ASSERT_EQ(conv.forwardWithSub(ins, &sub, boxes.data(),
                                          boxes.size(), got),
                      !fallback);
            if (fallback)
                return;
            for (std::size_t i = start; i < start + count; ++i) {
                const NeuronIndex &n = cons[i];
                float want = conv.computeNeuron(ins, n, &sub);
                ++checked;
                if (bitsOf(got.at(n)) != bitsOf(want) && bad++ == 0)
                    ADD_FAILURE()
                        << precisionName(p) << " "
                        << (sub.kind == OperandSub::Kind::Weight
                                ? "weight"
                                : "input")
                        << " sub " << sub.flatIndex << " = " << sub.value
                        << " at " << n.str() << ": got " << got.at(n)
                        << " want " << want;
            }
        };

        // Weight subs: a whole output channel (PreBufWeight), and
        // OperandWeight's t-position runs from a random phase,
        // including the partial tail block and runs that wrap rows.
        std::vector<std::size_t> widxs = {
            conv.weightIndex(0, 0, 0, 0),
            conv.weightIndex(spec.kh - 1, spec.kw - 1, cpg - 1,
                             spec.outC - 1)};
        for (int i = 0; i < 3; ++i)
            widxs.push_back(rng.below(static_cast<std::uint32_t>(nw)));
        for (std::size_t widx : widxs) {
            std::vector<NeuronIndex> cons = conv.weightConsumers(ins, widx);
            const std::size_t total = cons.size();
            for (float v : values) {
                OperandSub sub;
                sub.kind = OperandSub::Kind::Weight;
                sub.flatIndex = widx;
                sub.value = v;
                check(sub, cons, 0, total);
                for (std::size_t t : {std::size_t{3}, std::size_t{16}}) {
                    std::size_t blocks = (total + t - 1) / t;
                    for (std::size_t blk :
                         {static_cast<std::size_t>(rng.below(
                              static_cast<std::uint32_t>(blocks))),
                          blocks - 1}) {
                        std::size_t len = std::min(t, total - blk * t);
                        std::size_t phase =
                            rng.below(static_cast<std::uint32_t>(len));
                        check(sub, cons, blk * t + phase, len - phase);
                    }
                }
            }
        }

        // Input subs: every consumer of one input element.
        for (int i = 0; i < 5; ++i) {
            std::size_t elem =
                rng.below(static_cast<std::uint32_t>(x.size()));
            std::vector<NeuronIndex> cons = conv.inputConsumers(ins, elem);
            for (float v : values) {
                OperandSub sub;
                sub.kind = OperandSub::Kind::Input;
                sub.flatIndex = elem;
                sub.value = v;
                check(sub, cons, 0, cons.size());
            }
        }
        EXPECT_EQ(bad, 0) << precisionName(p) << ": " << bad << " of "
                          << checked << " neurons differ";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSubParam,
    ::testing::Values(SubCase{{4, 8, 3, 1, 1, 1, 1, 6, 6}, 1},
                      SubCase{{4, 8, 3, 2, 1, 1, 1, 8, 8}, 1},
                      SubCase{{3, 6, 1, 1, 0, 1, 1, 5, 5}, 1},
                      SubCase{{4, 8, 3, 1, 0, 1, 1, 7, 7}, 1},
                      SubCase{{4, 8, 3, 1, 2, 2, 1, 9, 9}, 1},
                      SubCase{{6, 6, 3, 1, 1, 1, 6, 6, 6}, 1},
                      SubCase{{8, 16, 3, 1, 1, 1, 2, 6, 6}, 1},
                      SubCase{{4, 8, 5, 1, 2, 1, 1, 8, 8}, 1},
                      // Batch 2; more than two 8-position lane blocks
                      // per row with a partial tail.
                      SubCase{{3, 4, 3, 1, 1, 1, 1, 4, 21}, 2},
                      // Depthwise at stride 2, batch 2.
                      SubCase{{8, 8, 3, 2, 1, 1, 8, 9, 9}, 2},
                      // Depthwise with channel multiplier 2, dilated.
                      SubCase{{4, 8, 3, 1, 2, 2, 4, 10, 10}, 2}));

namespace
{

/** Build a standard small conv for the structural tests. */
struct Fixture
{
    ConvSpec spec;
    std::unique_ptr<Conv2D> conv;
    Tensor x;
    std::vector<const Tensor *> ins;

    explicit Fixture(int groups = 1, int stride = 1)
        : x(1, 6, 6, 4)
    {
        Rng rng(7);
        spec.inC = 4;
        spec.outC = 8;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        spec.stride = stride;
        spec.groups = groups;
        std::size_t nw = 9u * (spec.inC / groups) * spec.outC;
        conv = std::make_unique<Conv2D>("c", spec,
                                        heWeights(rng, nw, 36),
                                        smallBiases(rng, 8));
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
    }
};

} // namespace

TEST(Conv, ComputeNeuronMatchesForward)
{
    Fixture f;
    Tensor out = f.conv->forward(f.ins);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(f.conv->computeNeuron(f.ins, out.indexOf(i), nullptr),
                  out[i]);
    }
}

TEST(Conv, Int8NanInputMatchesComputeNeuron)
{
    // A NaN operand quantises to INT32_MIN, which has no int16 form:
    // the narrow kernels decline its windows, so forward() multiplies
    // it exactly as computeNeuron() does.
    Fixture f;
    f.conv->setPrecision(Precision::INT8);
    f.conv->calibrate(f.ins, f.conv->forward(f.ins));
    f.x.at(0, 2, 3, 1) = std::numeric_limits<float>::quiet_NaN();
    Tensor out = f.conv->forward(f.ins);
    int diffs = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const float ref =
            f.conv->computeNeuron(f.ins, out.indexOf(i), nullptr);
        if (std::bit_cast<std::uint32_t>(ref) !=
            std::bit_cast<std::uint32_t>(out[i]))
            ++diffs;
    }
    EXPECT_EQ(diffs, 0);
}

TEST(Conv, InputConsumersMatchBruteForce)
{
    // Property: the consumer set of an input element equals the set of
    // neurons whose value changes when that element is perturbed.
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    Rng rng(11);
    for (int trial = 0; trial < 12; ++trial) {
        std::size_t elem = rng.below(
            static_cast<std::uint32_t>(f.x.size()));
        auto consumers = f.conv->inputConsumers(f.ins, elem);

        Tensor perturbed = f.x;
        perturbed[elem] += 10.0f;
        std::vector<const Tensor *> pins{&perturbed};
        Tensor out = f.conv->forward(pins);

        std::set<std::size_t> changed;
        for (std::size_t i = 0; i < out.size(); ++i)
            if (out[i] != golden[i])
                changed.insert(i);
        std::set<std::size_t> predicted;
        for (const NeuronIndex &n : consumers)
            predicted.insert(golden.offset(n.n, n.h, n.w, n.c));
        EXPECT_EQ(changed, predicted) << "elem=" << elem;
    }
}

TEST(Conv, WeightConsumersCoverAllChanges)
{
    // weightConsumers over-approximates with padded positions, so the
    // changed set must be a subset confined to one output channel.
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    Rng rng(13);
    for (int trial = 0; trial < 12; ++trial) {
        std::size_t widx = rng.below(static_cast<std::uint32_t>(
            f.conv->weightCount(f.ins)));
        auto consumers = f.conv->weightConsumers(f.ins, widx);
        ASSERT_FALSE(consumers.empty());
        int oc = consumers[0].c;
        for (const NeuronIndex &n : consumers)
            EXPECT_EQ(n.c, oc);

        OperandSub sub;
        sub.kind = OperandSub::Kind::Weight;
        sub.flatIndex = widx;
        sub.value = f.conv->weightAt(f.ins, widx) + 5.0f;
        std::set<std::size_t> predicted;
        for (const NeuronIndex &n : consumers)
            predicted.insert(golden.offset(n.n, n.h, n.w, n.c));
        for (std::size_t i = 0; i < golden.size(); ++i) {
            NeuronIndex n = golden.indexOf(i);
            float y = f.conv->computeNeuron(f.ins, n, &sub);
            if (y != golden[i]) {
                EXPECT_TRUE(predicted.count(i))
                    << "unexpected change at " << n.str();
            }
        }
    }
}

TEST(Conv, InputSubstitutionChangesOnlyThatTerm)
{
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    std::size_t elem = f.x.offset(0, 2, 3, 1);
    auto consumers = f.conv->inputConsumers(f.ins, elem);
    ASSERT_FALSE(consumers.empty());

    OperandSub sub;
    sub.kind = OperandSub::Kind::Input;
    sub.flatIndex = elem;
    sub.value = f.x[elem]; // same value -> no change
    for (const NeuronIndex &n : consumers)
        EXPECT_EQ(f.conv->computeNeuron(f.ins, n, &sub), golden.at(n));

    sub.value = f.x[elem] + 1.0f;
    for (const NeuronIndex &n : consumers)
        EXPECT_NE(f.conv->computeNeuron(f.ins, n, &sub), golden.at(n));
}

TEST(Conv, TermIndexSubstitutionHitsPaddedReads)
{
    // A corner output neuron reads padding; substituting by term index
    // must perturb it even though no input element matches.
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    NeuronIndex corner{0, 0, 0, 0};
    OperandSub sub;
    sub.kind = OperandSub::Kind::Input;
    sub.termIndex = 0; // (ci=0, kh=0, kw=0) reads padding at (0,0)
    sub.value = 100.0f;
    float y = f.conv->computeNeuron(f.ins, corner, &sub);
    EXPECT_NE(y, golden.at(corner));
}

TEST(Conv, PsumFlipBeforeFirstTermPerturbsResult)
{
    Fixture f;
    Tensor golden = f.conv->forward(f.ins);
    NeuronIndex n{0, 3, 3, 2};
    OperandSub sub;
    sub.kind = OperandSub::Kind::PsumFlip;
    sub.flatIndex = 0;
    sub.bit = 30; // large exponent perturbation of the initial zero
    float y = f.conv->computeNeuron(f.ins, n, &sub);
    EXPECT_NE(y, golden.at(n));
}

TEST(Conv, PsumFlipAfterLastTermFlipsDrainedValue)
{
    Fixture f;
    NeuronIndex n{0, 3, 3, 2};
    int red = f.conv->reductionLength();
    OperandSub sub;
    sub.kind = OperandSub::Kind::PsumFlip;
    sub.flatIndex = static_cast<std::size_t>(red);
    sub.bit = 31; // sign flip of the final accumulator
    float with_flip = f.conv->computeNeuron(f.ins, n, &sub);
    float golden = f.conv->computeNeuron(f.ins, n, nullptr);
    float bias = 0.0f;
    // golden = acc + bias; with_flip = -acc + bias.
    // Their sum is 2 * bias, which is small and positive here.
    bias = (golden + with_flip) / 2.0f;
    EXPECT_NEAR(golden - bias, -(with_flip - bias), 1e-4f);
}

TEST(Conv, BiasSubstitution)
{
    Fixture f;
    NeuronIndex n{0, 2, 2, 5};
    float golden = f.conv->computeNeuron(f.ins, n, nullptr);
    OperandSub sub;
    sub.kind = OperandSub::Kind::Bias;
    sub.value = 0.0f;
    float no_bias = f.conv->computeNeuron(f.ins, n, &sub);
    sub.value = 2.5f;
    float big_bias = f.conv->computeNeuron(f.ins, n, &sub);
    EXPECT_NEAR(big_bias - no_bias, 2.5f, 1e-5f);
    EXPECT_NE(golden, big_bias);
}

TEST(Conv, ReductionLength)
{
    Fixture plain;
    EXPECT_EQ(plain.conv->reductionLength(), 4 * 9);
    Fixture grouped(/*groups=*/4);
    EXPECT_EQ(grouped.conv->reductionLength(), 9);
}

TEST(Conv, OutputShapes)
{
    Fixture s2(/*groups=*/1, /*stride=*/2);
    Tensor out = s2.conv->forward(s2.ins);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.w(), 3);
    EXPECT_EQ(out.c(), 8);
}

TEST(Conv, Fp16ModeRoundsThroughHalf)
{
    Fixture f;
    f.conv->setPrecision(Precision::FP16);
    Tensor out = f.conv->forward(f.ins);
    for (std::size_t i = 0; i < out.size(); ++i) {
        float v = out[i];
        EXPECT_EQ(v, halfBitsToFloat(floatToHalfBits(v)));
    }
}

TEST(ConvDeath, RejectsBadGeometry)
{
    ConvSpec spec;
    spec.inC = 4;
    spec.outC = 8;
    spec.groups = 3; // does not divide 4
    EXPECT_DEATH(Conv2D("bad", spec, {}, {}), "groups");
}

TEST(ConvDeath, RejectsWeightCountMismatch)
{
    ConvSpec spec;
    spec.inC = 2;
    spec.outC = 2;
    spec.kh = 1;
    spec.kw = 1;
    EXPECT_DEATH(Conv2D("bad", spec, std::vector<float>(3, 0.0f),
                        std::vector<float>(2, 0.0f)),
                 "expected");
}
