/**
 * @file
 * Unit tests for the FC and MatMulAB layers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "sim/rng.hh"

using namespace fidelity;

namespace
{

Tensor
randomTensor(Rng &rng, int n, int h, int w, int c)
{
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

/**
 * forward() against per-neuron computeNeuron(), bit for bit; returns
 * how many outputs differ.
 */
int
forwardVsComputeNeuron(const MacLayer &layer,
                       const std::vector<const Tensor *> &ins)
{
    const Tensor out = layer.forward(ins);
    int diffs = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const float ref = layer.computeNeuron(ins, out.indexOf(i), nullptr);
        if (std::bit_cast<std::uint32_t>(ref) !=
            std::bit_cast<std::uint32_t>(out[i])) {
            ADD_FAILURE() << layer.name() << " at "
                          << out.indexOf(i).str() << ": forward "
                          << out[i] << ", computeNeuron " << ref;
            ++diffs;
        }
    }
    return diffs;
}

const float kNaN = std::numeric_limits<float>::quiet_NaN();

} // namespace

TEST(FC, Int8NanInputMatchesComputeNeuron)
{
    // A NaN operand quantises to INT32_MIN, which has no int16 form:
    // the narrow kernels must decline its row so forward() multiplies
    // it exactly as computeNeuron() does.
    Rng rng(11);
    FC fc("f", 16, 8, heWeights(rng, 16 * 8, 16), smallBiases(rng, 8));
    Tensor x = randomTensor(rng, 1, 3, 1, 16);
    std::vector<const Tensor *> ins{&x};
    fc.setPrecision(Precision::INT8);
    fc.calibrate(ins, fc.forward(ins));
    x.at(0, 1, 0, 5) = kNaN;
    EXPECT_EQ(forwardVsComputeNeuron(fc, ins), 0);
}

TEST(MatMul, Int8NanOperandsMatchComputeNeuron)
{
    // NaN in A (the narrow path's operand rows) and in B (the packed
    // side), with and without transB.
    for (bool transB : {true, false}) {
        for (int side : {0, 1}) {
            Rng rng(12);
            MatMulAB mm("mm", transB, 0.25f);
            Tensor a = randomTensor(rng, 1, 4, 1, 16);
            Tensor b = transB ? randomTensor(rng, 1, 8, 1, 16)
                              : randomTensor(rng, 1, 16, 1, 8);
            std::vector<const Tensor *> ins{&a, &b};
            mm.setPrecision(Precision::INT8);
            mm.calibrate(ins, mm.forward(ins));
            (side == 0 ? a : b)[9] = kNaN;
            EXPECT_EQ(forwardVsComputeNeuron(mm, ins), 0)
                << "transB " << transB << " NaN in "
                << (side == 0 ? "A" : "B");
        }
    }
}

TEST(FC, MatchesManualDotProduct)
{
    Rng rng(1);
    int in_c = 5, units = 3;
    auto w = heWeights(rng, 15, in_c);
    auto b = smallBiases(rng, units);
    FC fc("f", in_c, units, w, b);
    Tensor x = randomTensor(rng, 1, 1, 1, in_c);
    Tensor out = fc.forward(std::vector<const Tensor *>{&x});
    for (int u = 0; u < units; ++u) {
        double acc = b[u];
        for (int ci = 0; ci < in_c; ++ci)
            acc += static_cast<double>(x[ci]) * w[ci * units + u];
        EXPECT_NEAR(out.at(0, 0, 0, u), acc, 1e-5);
    }
}

TEST(FC, AppliesPositionWise)
{
    Rng rng(2);
    int in_c = 4, units = 6;
    FC fc("f", in_c, units, heWeights(rng, 24, in_c),
          smallBiases(rng, units));
    Tensor x = randomTensor(rng, 1, 3, 2, in_c);
    std::vector<const Tensor *> ins{&x};
    Tensor out = fc.forward(ins);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.w(), 2);
    EXPECT_EQ(out.c(), units);

    // Each position independently equals the 1-position result.
    for (int h = 0; h < 3; ++h)
        for (int w = 0; w < 2; ++w) {
            Tensor one(1, 1, 1, in_c);
            for (int c = 0; c < in_c; ++c)
                one[c] = x.at(0, h, w, c);
            Tensor r = fc.forward(std::vector<const Tensor *>{&one});
            for (int u = 0; u < units; ++u)
                EXPECT_EQ(r[u], out.at(0, h, w, u));
        }
}

TEST(FC, ConsumersAreExact)
{
    Rng rng(3);
    int in_c = 4, units = 6;
    FC fc("f", in_c, units, heWeights(rng, 24, in_c), {});
    Tensor x = randomTensor(rng, 1, 2, 1, in_c);
    std::vector<const Tensor *> ins{&x};

    auto in_cons = fc.inputConsumers(ins, x.offset(0, 1, 0, 2));
    EXPECT_EQ(in_cons.size(), static_cast<std::size_t>(units));
    for (const NeuronIndex &n : in_cons) {
        EXPECT_EQ(n.h, 1);
        EXPECT_EQ(n.w, 0);
    }

    std::size_t widx = 2 * units + 4; // (ci=2, u=4)
    auto w_cons = fc.weightConsumers(ins, widx);
    EXPECT_EQ(w_cons.size(), 2u); // one per position
    for (const NeuronIndex &n : w_cons)
        EXPECT_EQ(n.c, 4);
}

TEST(FC, ComputeNeuronMatchesForward)
{
    Rng rng(4);
    FC fc("f", 8, 8, heWeights(rng, 64, 8), smallBiases(rng, 8));
    Tensor x = randomTensor(rng, 1, 2, 2, 8);
    std::vector<const Tensor *> ins{&x};
    Tensor out = fc.forward(ins);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(fc.computeNeuron(ins, out.indexOf(i), nullptr), out[i]);
}

TEST(FC, PsumFlipStepZeroAndLast)
{
    Rng rng(5);
    FC fc("f", 8, 4, heWeights(rng, 32, 8), {});
    Tensor x = randomTensor(rng, 1, 1, 1, 8);
    std::vector<const Tensor *> ins{&x};
    NeuronIndex n{0, 0, 0, 1};
    float golden = fc.computeNeuron(ins, n, nullptr);

    OperandSub sub;
    sub.kind = OperandSub::Kind::PsumFlip;
    sub.bit = 31;
    sub.flatIndex = 8; // after the last term: sign-flip the result
    EXPECT_EQ(fc.computeNeuron(ins, n, &sub), -golden);
}

TEST(MatMul, PlainProduct)
{
    Rng rng(6);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 4, 1, 5);
    MatMulAB mm("mm", /*trans_b=*/false);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor out = mm.forward(ins);
    EXPECT_EQ(out.h(), 3);
    EXPECT_EQ(out.c(), 5);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j) {
            double acc = 0;
            for (int k = 0; k < 4; ++k)
                acc += static_cast<double>(a.at(0, i, 0, k)) *
                       b.at(0, k, 0, j);
            EXPECT_NEAR(out.at(0, i, 0, j), acc, 1e-5);
        }
}

TEST(MatMul, TransposedProduct)
{
    Rng rng(7);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", /*trans_b=*/true);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor out = mm.forward(ins);
    EXPECT_EQ(out.c(), 5);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 5; ++j) {
            double acc = 0;
            for (int k = 0; k < 4; ++k)
                acc += static_cast<double>(a.at(0, i, 0, k)) *
                       b.at(0, j, 0, k);
            EXPECT_NEAR(out.at(0, i, 0, j), acc, 1e-5);
        }
}

TEST(MatMul, ScaleApplied)
{
    Rng rng(8);
    Tensor a = randomTensor(rng, 1, 2, 1, 4);
    Tensor b = randomTensor(rng, 1, 2, 1, 4);
    MatMulAB plain("p", true, 1.0f);
    MatMulAB scaled("s", true, 0.5f);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor po = plain.forward(ins);
    Tensor so = scaled.forward(ins);
    for (std::size_t i = 0; i < po.size(); ++i)
        EXPECT_NEAR(so[i], 0.5f * po[i], 1e-6f);
}

TEST(MatMul, InputConsumersAreTheRow)
{
    Rng rng(9);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true);
    std::vector<const Tensor *> ins{&a, &b};
    auto cons = mm.inputConsumers(ins, a.offset(0, 2, 0, 1));
    EXPECT_EQ(cons.size(), 5u);
    for (const NeuronIndex &n : cons)
        EXPECT_EQ(n.h, 2);
}

TEST(MatMul, WeightConsumersAreTheColumn)
{
    Rng rng(10);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true);
    std::vector<const Tensor *> ins{&a, &b};
    // B element (j=4, k=2) feeds output column 4.
    auto cons = mm.weightConsumers(ins, b.offset(0, 4, 0, 2));
    EXPECT_EQ(cons.size(), 3u);
    for (const NeuronIndex &n : cons)
        EXPECT_EQ(n.c, 4);
}

TEST(MatMul, WeightSubstitutionChangesColumnOnly)
{
    Rng rng(11);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true);
    std::vector<const Tensor *> ins{&a, &b};
    Tensor golden = mm.forward(ins);

    OperandSub sub;
    sub.kind = OperandSub::Kind::Weight;
    sub.flatIndex = b.offset(0, 1, 0, 3);
    sub.value = b[sub.flatIndex] + 2.0f;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        NeuronIndex n = golden.indexOf(i);
        float y = mm.computeNeuron(ins, n, &sub);
        if (n.c == 1)
            EXPECT_NE(y, golden[i]);
        else
            EXPECT_EQ(y, golden[i]);
    }
}

TEST(MatMul, WeightCountIsBSize)
{
    Rng rng(12);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 4);
    MatMulAB mm("mm", true);
    std::vector<const Tensor *> ins{&a, &b};
    EXPECT_EQ(mm.weightCount(ins), b.size());
    EXPECT_EQ(mm.weightAt(ins, 7), b[7]);
}

TEST(MatMulDeath, ShapeMismatchPanics)
{
    Rng rng(13);
    Tensor a = randomTensor(rng, 1, 3, 1, 4);
    Tensor b = randomTensor(rng, 1, 5, 1, 3); // K mismatch for transB
    MatMulAB mm("mm", true);
    std::vector<const Tensor *> ins{&a, &b};
    EXPECT_DEATH((void)mm.forward(ins), "columns");
}
