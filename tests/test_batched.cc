/**
 * @file
 * The fault-batched re-execution engine's correctness contract.
 *
 * Differential tests asserting every lane of the batched engine is
 * bit-identical to the scalar IncrementalEngine across FP32/FP16/INT8
 * on a multi-branch DAG with grouped/dilated/strided/padded
 * convolutions; ragged batches (fewer live lanes than the engine
 * width, non-contiguous lane indices); per-lane early-exit divergence
 * inside one batch; the conv, FC, matmul and softmax batched kernels
 * against per-lane forwardRegion (every precision, special values,
 * raw and stored-form planes, with and without coverage); the
 * separable diff scan against a brute-force per-lane box;
 * campaign-checksum invariance under batch width, thread count,
 * result cache, and kill-and-resume, on resnet and on the
 * transformer; and batch-width
 * validation at both the engine factory and the campaign config.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/batched.hh"
#include "nn/conv.hh"
#include "nn/elementwise.hh"
#include "nn/fc.hh"
#include "nn/incremental.hh"
#include "nn/init.hh"
#include "nn/matmul.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "nn/region.hh"
#include "nn/softmax.hh"
#include "sim/rng.hh"
#include "tensor/bitops.hh"
#include "workloads/metrics.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace
{

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

/** Same layer zoo as test_incremental's DAG: padded, depthwise,
 *  dilated, and strided convolutions on parallel branches, add, scale,
 *  concat, slice, max pool, global average pool, FC head — every
 *  layer on a batched kernel. */
Network
makeBranchy(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("branchy");
    NodeId c1 = net.add(
        makeConv("c1", {.inC = 4, .outC = 8, .pad = 1}, seed + 1), 0);
    NodeId r1 = net.add(
        std::make_unique<Activation>("relu1", Activation::Func::ReLU),
        c1);
    NodeId dw = net.add(
        makeConv("dw", {.inC = 8, .outC = 8, .pad = 1, .groups = 8},
                 seed + 2),
        r1);
    NodeId dil = net.add(
        makeConv("dil", {.inC = 8, .outC = 8, .pad = 2, .dilation = 2},
                 seed + 3),
        r1);
    NodeId add = net.add(std::make_unique<Elementwise>(
                             "add", Elementwise::Op::Add),
                         std::vector<NodeId>{dw, dil});
    NodeId ss = net.add(
        std::make_unique<ScaleShift>("ss", 0.5f, 0.1f), add);
    NodeId cat = net.add(std::make_unique<ConcatC>("cat"),
                         std::vector<NodeId>{add, ss});
    NodeId sl = net.add(
        std::make_unique<Slice>("sl", Slice::Axis::C, 4, 8), cat);
    NodeId p = net.add(
        std::make_unique<Pool>("pool", Pool::Mode::Max, 2, 2), sl);
    NodeId c2 = net.add(
        makeConv("c2", {.inC = 8, .outC = 8, .stride = 2, .pad = 1},
                 seed + 4),
        p);
    NodeId gap = net.add(std::make_unique<GlobalAvgPool>("gap"), c2);
    net.add(std::make_unique<FC>("fc", 8, 5, heWeights(rng, 40, 8),
                                 smallBiases(rng, 5)),
            gap);
    return net;
}

/** One transformer encoder block plus a vocabulary FC and softmax
 *  (as in test_incremental): FC, softmax and the matmuls — fed
 *  through both inputs — on batched kernels. */
Network
makeAttention(std::uint64_t seed)
{
    Rng rng(seed);
    Network net("attention");
    AttentionSpec spec;
    spec.seqLen = 6;
    spec.dModel = 8;
    spec.dFF = 16;
    NodeId enc = addAttentionBlock(net, 0, spec, rng, "enc");
    NodeId logits = net.add(
        std::make_unique<FC>("vocab", spec.dModel, 5,
                             heWeights(rng, spec.dModel * 5, spec.dModel),
                             smallBiases(rng, 5)),
        enc);
    net.add(std::make_unique<Softmax>("softmax"), logits);
    return net;
}

/** Unique snapshot path in gtest's temp dir; removed on destruction. */
class ScopedSnapshotPath
{
  public:
    explicit ScopedSnapshotPath(const std::string &name)
        : path_(testing::TempDir() + "fidelity_" + name + ".ckpt")
    {
        std::remove(path_.c_str());
    }

    ~ScopedSnapshotPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

/** One perturbed input element of one lane. */
struct LaneFault
{
    std::size_t flat;
    float value;
    int input = 0; //!< which layer input the element belongs to
};

/**
 * Run `layer`'s forwardRegionBatched at lane width W, lane l reading
 * the inputs `xs` with faults[l] applied, and check every lane of the
 * recomputed region bit for bit against forwardRegion on that lane's
 * own inputs.  An input no lane perturbs keeps an empty plane (every
 * lane reads golden).  `stored` keeps the input planes' stored-form
 * flag (the caller then supplies FP16 stored-form inputs and faults);
 * otherwise the planes are marked raw.
 * With `useCover`, the region is the bounding box of the lane cones
 * and the kernel walks only their coverage.
 */
template <int W>
void
checkBatchedKernel(const Layer &layer, const std::vector<Tensor> &xs,
                   const std::vector<std::vector<LaneFault>> &faults,
                   bool stored, bool useCover, const std::string &what)
{
    std::vector<const Tensor *> ins;
    for (const Tensor &x : xs)
        ins.push_back(&x);
    const Tensor golden = layer.forward(ins);
    std::vector<LanePlane> xp(xs.size());
    for (LanePlane &p : xp) {
        p.reset(W);
        if (!stored)
            p.markRaw();
    }
    std::vector<std::vector<Tensor>> laneIn(W, xs);
    std::array<Region, W> cones{};
    std::uint32_t mask = 0;
    Region bbox;
    for (int l = 0; l < W && l < static_cast<int>(faults.size()); ++l) {
        for (const LaneFault &f : faults[l]) {
            const Tensor &x = xs[f.input];
            xp[f.input].ensure(x, Region::full(x));
            laneIn[l][f.input][f.flat] = f.value;
            xp[f.input].lanes(f.flat)[l] = f.value;
            cones[l].merge(layer.propagateRegion(
                ins, f.input, Region::of(x.indexOf(f.flat)), golden));
        }
        if (!cones[l].empty()) {
            mask |= 1u << l;
            bbox.merge(cones[l]);
        }
    }
    const Region region = useCover ? bbox : Region::full(golden);
    BatchCover cover;
    if (useCover)
        cover.build(cones.data(), mask, W, bbox);
    LanePlane op;
    op.reset(W);
    op.ensure(golden, region);
    std::vector<LanePlane *> planes;
    for (LanePlane &p : xp)
        planes.push_back(&p);
    ASSERT_TRUE(layer.forwardRegionBatched(ins, planes.data(), region,
                                           useCover ? &cover : nullptr,
                                           golden, op))
        << what;
    for (int l = 0; l < W; ++l) {
        Tensor ref = golden;
        std::vector<const Tensor *> lins;
        for (const Tensor &x : laneIn[l])
            lins.push_back(&x);
        layer.forwardRegion(lins, region, ref);
        for (int n = region.n0; n < region.n1; ++n)
            for (int h = region.h0; h < region.h1; ++h)
                for (int w = region.w0; w < region.w1; ++w)
                    for (int c = region.c0; c < region.c1; ++c) {
                        const std::size_t f = golden.offset(n, h, w, c);
                        ASSERT_EQ(
                            std::bit_cast<std::uint32_t>(op.lanes(f)[l]),
                            std::bit_cast<std::uint32_t>(ref[f]))
                            << what << " W=" << W << " lane " << l
                            << " at " << golden.indexOf(f).str();
                    }
    }
}

/** `x` with every element rounded to its FP16 stored form. */
Tensor
halfRounded(Tensor x)
{
    for (auto &v : x.data())
        v = roundToHalf(v);
    return x;
}

/**
 * Per-lane faults on `x`: lane l corrupts one to three channels of
 * one position (scattered, so coverage leaves gaps), cycling through
 * NaN, +-Inf, +-0, +-65504, a value FP16 rounds to 65504, an FP16
 * subnormal, and large normals.  The last lane stays clean.  With
 * `stored` every value is rounded to its FP16 stored form.
 */
std::vector<std::vector<LaneFault>>
laneFaults(const Tensor &x, int lanes, bool stored, std::uint64_t seed)
{
    const float special[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        0.0f,
        -0.0f,
        65504.0f,
        -65504.0f,
        65519.0f,
        3.0e-6f,
    };
    Rng rng(seed);
    std::vector<std::vector<LaneFault>> out(lanes);
    int k = 0;
    for (int l = 0; l + 1 < lanes; ++l) {
        const int n = l % x.n();
        const int h = (3 * l + 1) % x.h();
        const int w = l % x.w();
        const int count = 1 + l % 3;
        for (int i = 0; i < count; ++i) {
            const int c = (5 * l + 3 * i) % x.c();
            float v = k < static_cast<int>(std::size(special))
                          ? special[k]
                          : static_cast<float>(rng.normal(0, 64));
            ++k;
            if (stored)
                v = roundToHalf(v);
            out[l].push_back({x.offset(n, h, w, c), v});
        }
    }
    return out;
}

CampaignConfig
smallConfig()
{
    CampaignConfig cfg;
    cfg.samplesPerCategory = 8;
    cfg.shardGrain = 4;
    cfg.seed = 17;
    return cfg;
}

} // namespace

TEST(BatchedEngine, FactoryWidthsAndValidation)
{
    IncrementalOptions opt;
    // Widths up to 4 share the narrow instantiation, wider ones the
    // full SIMD width; out-of-range widths are rejected.
    EXPECT_EQ(makeBatchedEngine(1, opt)->maxLanes(), 4);
    EXPECT_EQ(makeBatchedEngine(4, opt)->maxLanes(), 4);
    EXPECT_EQ(makeBatchedEngine(5, opt)->maxLanes(), 8);
    EXPECT_EQ(makeBatchedEngine(kMaxBatchLanes, opt)->maxLanes(),
              kMaxBatchLanes);
    EXPECT_DEATH((void)makeBatchedEngine(0, opt), "width must be in");
    EXPECT_DEATH((void)makeBatchedEngine(kMaxBatchLanes + 1, opt),
                 "width must be in");
}

TEST(BatchedEngine, BitIdenticalToScalarAcrossPrecisions)
{
    // Every lane of every batch must reproduce the scalar engine's
    // output bit-for-bit — full batches, ragged tails, and
    // non-contiguous lane sets, with one-to-three corrupted neurons
    // per injection and a NaN value mixed in.
    const std::vector<std::vector<int>> laneSets = {
        {0, 1, 2, 3, 4, 5, 6, 7}, // full width
        {0, 1, 2},                // ragged tail
        {1, 4, 6},                // non-contiguous lanes
    };
    auto check = [&](Network net, const Tensor &input, Precision p) {
        net.setPrecision(p);
        if (p == Precision::INT8)
            net.calibrate(input);
        auto acts = net.forwardAll(input);
        IncrementalEngine scalar;
        auto eng = makeBatchedEngine(kMaxBatchLanes,
                                     IncrementalOptions{});
        Rng rng(102);
        for (NodeId node : net.macNodes()) {
            const Tensor &golden = acts[node];
            for (const auto &lanes : laneSets) {
                eng->begin(net, node, acts);
                std::vector<std::vector<NeuronIndex>> at(lanes.size());
                std::vector<std::vector<float>> val(lanes.size());
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    int faults = 1 + static_cast<int>(rng.below(3));
                    for (int f = 0; f < faults; ++f) {
                        at[i].push_back(golden.indexOf(rng.below(
                            static_cast<std::uint32_t>(golden.size()))));
                        val[i].push_back(
                            i == 0 && f == 0
                                ? std::numeric_limits<
                                      float>::quiet_NaN()
                                : static_cast<float>(
                                      rng.normal(0, 64)));
                    }
                    eng->seedLane(lanes[i], at[i].data(), val[i].data(),
                                  val[i].size());
                }
                eng->execute();
                for (std::size_t i = 0; i < lanes.size(); ++i) {
                    Tensor corrupted = golden;
                    Region fault;
                    for (std::size_t f = 0; f < at[i].size(); ++f) {
                        corrupted.at(at[i][f]) = val[i][f];
                        if (std::bit_cast<std::uint32_t>(val[i][f]) !=
                            std::bit_cast<std::uint32_t>(
                                golden.at(at[i][f])))
                            fault.include(at[i][f]);
                    }
                    Tensor ref = scalar.run(net, node, corrupted,
                                            fault, acts);
                    EXPECT_TRUE(
                        bitIdentical(ref, eng->laneOutput(lanes[i])))
                        << "node " << node << " lane " << lanes[i]
                        << " precision " << static_cast<int>(p);
                    if (node != net.outputNode()) {
                        EXPECT_EQ(eng->laneEarlyMasked(lanes[i]),
                                  scalar.lastStats().earlyMasked)
                            << "node " << node << " lane " << lanes[i];
                    }
                }
            }
        }
    };
    for (Precision p : {Precision::FP32, Precision::FP16,
                        Precision::INT8}) {
        check(makeBranchy(100), randomTensor(101, 1, 8, 8, 4), p);
        check(makeAttention(100), randomTensor(103, 1, 6, 1, 8), p);
    }
}

TEST(BatchedEngine, PerLaneEarlyExitDivergence)
{
    // One batch, three fates: a negative-to-negative flip dies at the
    // ReLU (masked), a large positive flip survives to the output, and
    // a bit-identical "flip" is masked immediately.  The live lane
    // must not be perturbed by its retired neighbours.
    Tensor input = randomTensor(111, 1, 8, 8, 4);
    Network net = makeBranchy(110);
    auto acts = net.forwardAll(input);
    NodeId node = net.macNodes().front(); // c1, feeds relu1
    const Tensor &golden = acts[node];

    std::size_t neg = golden.size();
    for (std::size_t i = 0; i < golden.size(); ++i) {
        if (golden[i] < -0.5f) {
            neg = i;
            break;
        }
    }
    ASSERT_LT(neg, golden.size()) << "no negative conv output";
    NeuronIndex at = golden.indexOf(neg);

    auto eng = makeBatchedEngine(kMaxBatchLanes, IncrementalOptions{});
    eng->begin(net, node, acts);
    float dead = -1234.5f;
    float live = 1234.5f;
    float same = golden.at(at);
    eng->seedLane(0, &at, &dead, 1);
    eng->seedLane(3, &at, &live, 1);
    eng->seedLane(6, &at, &same, 1);
    eng->execute();

    EXPECT_TRUE(eng->laneEarlyMasked(0));
    EXPECT_FALSE(eng->laneEarlyMasked(3));
    EXPECT_TRUE(eng->laneEarlyMasked(6));

    EXPECT_TRUE(bitIdentical(acts[net.outputNode()],
                             eng->laneOutput(0)));
    EXPECT_TRUE(bitIdentical(acts[net.outputNode()],
                             eng->laneOutput(6)));

    Tensor corrupted = golden;
    corrupted.at(at) = live;
    IncrementalEngine scalar;
    Tensor ref = scalar.run(net, node, corrupted, Region::of(at), acts);
    EXPECT_FALSE(bitIdentical(acts[net.outputNode()], ref))
        << "live flip unexpectedly masked; test is vacuous";
    EXPECT_TRUE(bitIdentical(ref, eng->laneOutput(3)));
}

TEST(BatchedKernel, FcMatchesPerLaneForwardRegion)
{
    // Odd reduction (the narrow pad row), unit count off every pack
    // width, with and without bias.
    Rng wrng(121);
    FC withBias("fc.bias", 11, 13, heWeights(wrng, 11 * 13, 11),
                smallBiases(wrng, 13));
    FC noBias("fc.nobias", 11, 6, heWeights(wrng, 11 * 6, 11), {});
    const Tensor raw = randomTensor(122, 2, 4, 3, 11);
    for (FC *fc : {&withBias, &noBias}) {
        for (Precision p : {Precision::FP32, Precision::FP16,
                            Precision::INT16, Precision::INT8}) {
            fc->setPrecision(p);
            if (p == Precision::INT8 || p == Precision::INT16) {
                std::vector<const Tensor *> ins{&raw};
                fc->calibrate(ins, fc->forward(ins));
            }
            for (bool stored : {false, true}) {
                const Tensor x = stored ? halfRounded(raw) : raw;
                for (bool cover : {false, true}) {
                    const std::string what =
                        fc->name() + " " + precisionName(p) +
                        (stored ? " stored" : " raw") +
                        (cover ? " covered" : " dense");
                    checkBatchedKernel<4>(*fc, {x},
                                          laneFaults(x, 4, stored, 123),
                                          stored, cover, what);
                    checkBatchedKernel<8>(*fc, {x},
                                          laneFaults(x, 8, stored, 124),
                                          stored, cover, what);
                }
            }
        }
    }
}

TEST(BatchedKernel, ConvMatchesPerLaneForwardRegion)
{
    // Padded 3x3 and grouped convolutions; laneFaults' NaN lane makes
    // the INT8 and INT16 narrow gathers decline and rerun wide.
    const Tensor raw = randomTensor(161, 2, 5, 6, 4);
    auto plain = makeConv("c3", {.inC = 4, .outC = 6, .pad = 1}, 162);
    auto grouped = makeConv(
        "g2", {.inC = 4, .outC = 8, .pad = 1, .groups = 2}, 163);
    for (Conv2D *conv : {plain.get(), grouped.get()}) {
        for (Precision p : {Precision::FP32, Precision::FP16,
                            Precision::INT16, Precision::INT8}) {
            conv->setPrecision(p);
            if (p == Precision::INT8 || p == Precision::INT16) {
                std::vector<const Tensor *> ins{&raw};
                conv->calibrate(ins, conv->forward(ins));
            }
            for (bool cover : {false, true}) {
                const std::string what = conv->name() + " " +
                                         precisionName(p) +
                                         (cover ? " covered" : " dense");
                checkBatchedKernel<4>(*conv, {raw},
                                      laneFaults(raw, 4, false, 164),
                                      false, cover, what);
                checkBatchedKernel<8>(*conv, {raw},
                                      laneFaults(raw, 8, false, 165),
                                      false, cover, what);
            }
        }
    }
}

TEST(BatchedKernel, MatMulMatchesPerLaneForwardRegion)
{
    // Odd reduction and a column count off every pack width; A with
    // two batch entries.  Lanes perturb A only, B only, or — in the
    // mixed batch — A, B or both (the attention case), cycling
    // through laneFaults' special values.
    const Tensor rawA = randomTensor(141, 2, 5, 1, 7);
    for (bool transB : {true, false}) {
        MatMulAB mm(transB ? "qkT" : "av", transB, transB ? 0.375f : 1.0f);
        const Tensor rawB = transB ? randomTensor(142, 1, 6, 1, 7)
                                   : randomTensor(142, 1, 7, 1, 6);
        for (Precision p : {Precision::FP32, Precision::FP16,
                            Precision::INT16, Precision::INT8}) {
            mm.setPrecision(p);
            if (p == Precision::INT8 || p == Precision::INT16) {
                std::vector<const Tensor *> ins{&rawA, &rawB};
                mm.calibrate(ins, mm.forward(ins));
            }
            for (bool stored : {false, true}) {
                const std::vector<Tensor> xs = {
                    stored ? halfRounded(rawA) : rawA,
                    stored ? halfRounded(rawB) : rawB};
                for (const char *dirty : {"A", "B", "mixed"}) {
                    auto faults = [&](int lanes, std::uint64_t seed) {
                        auto fa = laneFaults(xs[0], lanes, stored, seed);
                        auto fb = laneFaults(xs[1], lanes, stored, seed + 1);
                        std::vector<std::vector<LaneFault>> out(lanes);
                        for (int l = 0; l < lanes; ++l) {
                            const int kind = dirty[0] == 'A' ? 0
                                           : dirty[0] == 'B' ? 1
                                                             : l % 3;
                            if (kind != 1)
                                out[l] = fa[l];
                            if (kind != 0)
                                for (LaneFault f : fb[l]) {
                                    f.input = 1;
                                    out[l].push_back(f);
                                }
                        }
                        return out;
                    };
                    for (bool cover : {false, true}) {
                        const std::string what =
                            mm.name() + " " + precisionName(p) +
                            (stored ? " stored" : " raw") + " dirty " +
                            dirty + (cover ? " covered" : " dense");
                        checkBatchedKernel<4>(mm, xs, faults(4, 143),
                                              stored, cover, what);
                        checkBatchedKernel<8>(mm, xs, faults(8, 145),
                                              stored, cover, what);
                    }
                }
            }
        }
    }
}

TEST(BatchedKernel, SoftmaxMatchesPerLaneForwardRegionAndMarksRaw)
{
    Softmax sm("softmax");
    const Tensor raw = randomTensor(131, 2, 4, 3, 7);
    for (Precision p : {Precision::FP32, Precision::FP16}) {
        sm.setPrecision(p);
        for (bool stored : {false, true}) {
            const Tensor x = stored ? halfRounded(raw) : raw;
            for (bool cover : {false, true}) {
                const std::string what =
                    std::string("softmax ") + precisionName(p) +
                    (stored ? " stored" : " raw") +
                    (cover ? " covered" : " dense");
                checkBatchedKernel<4>(sm, {x}, laneFaults(x, 4, stored, 132),
                                      stored, cover, what);
                checkBatchedKernel<8>(sm, {x}, laneFaults(x, 8, stored, 133),
                                      stored, cover, what);
            }
        }
    }
    // Softmax output is never rounded, so its plane must tell FP16
    // consumers to convert — golden fill included.
    const Tensor &x = raw;
    std::vector<const Tensor *> ins{&x};
    const Tensor golden = sm.forward(ins);
    LanePlane xp, op;
    xp.reset(8);
    op.reset(8);
    op.ensure(golden, Region::full(golden));
    LanePlane *planes[] = {&xp};
    ASSERT_TRUE(op.storedForm());
    ASSERT_TRUE(sm.forwardRegionBatched(ins, planes, Region::full(golden),
                                        nullptr, golden, op));
    EXPECT_FALSE(op.storedForm());
}

namespace
{

/**
 * One random changedLaneBoxes case at lane width W: a golden tensor
 * holding +0 and NaN, lanes changed at random elements (sign flips,
 * so +0 becomes -0, other NaN payloads, random values), scanned over
 * the union of random lane cones with their coverage or over a
 * random box without it.  Checked against each lane's brute-force
 * bounding box of the bitwise-changed scanned elements.
 */
template <int W>
void
checkScan(Rng &rng, bool useCover)
{
    Tensor golden = randomTensor(rng.next64(), 2, 5, 6, 9);
    auto pick = [&](std::size_t n) {
        return static_cast<int>(rng.below(static_cast<std::uint32_t>(n)));
    };
    for (int i = 0; i < 12; ++i)
        golden[pick(golden.size())] = 0.0f;
    for (int i = 0; i < 6; ++i)
        golden[pick(golden.size())] =
            std::bit_cast<float>(std::uint32_t{0x7fc00000});
    LanePlane plane;
    plane.reset(W);
    plane.ensure(golden, Region::full(golden));

    auto randomBox = [&] {
        auto axis = [&](int len, int &lo, int &hi) {
            lo = pick(len);
            hi = lo + 1 + pick(len - lo);
        };
        Region r;
        axis(golden.n(), r.n0, r.n1);
        axis(golden.h(), r.h0, r.h1);
        axis(golden.w(), r.w0, r.w1);
        axis(golden.c(), r.c0, r.c1);
        return r;
    };
    std::array<Region, W> cones{};
    std::uint32_t mask = 0;
    Region bbox;
    for (int l = 0; l < W; ++l) {
        if (pick(4) == 0)
            continue;
        cones[l] = randomBox();
        mask |= 1u << l;
        bbox.merge(cones[l]);
    }
    if (!mask)
        return;
    BatchCover cover;
    if (useCover)
        cover.build(cones.data(), mask, W, bbox);
    const Region region = useCover ? bbox : randomBox();

    for (int l = 0; l < W; ++l) {
        const int changes = pick(5);
        for (int i = 0; i < changes; ++i) {
            const std::size_t f = pick(golden.size());
            float &v = plane.lanes(f)[l];
            switch (pick(3)) {
              case 0:
                v = -golden[f];
                break;
              case 1:
                v = std::bit_cast<float>(
                    std::uint32_t{0x7fc00001} + pick(4));
                break;
              default:
                v = static_cast<float>(rng.normal(0, 1));
            }
        }
    }

    auto scanned = [&](int n, int h, int w, int c) {
        if (!useCover)
            return true;
        int cnt = 0;
        bool inRow = false;
        const BatchCover::Span *sp = cover.row(n, h, cnt);
        for (int i = 0; i < cnt; ++i)
            inRow = inRow || (w >= sp[i].w0 && w < sp[i].w1);
        bool inChan = false;
        const BatchCover::Span *cs = cover.chanSpans(cnt);
        for (int i = 0; i < cnt; ++i)
            inChan = inChan || (c >= cs[i].w0 && c < cs[i].w1);
        return inRow && inChan;
    };
    std::array<Region, W> want{};
    for (int n = region.n0; n < region.n1; ++n)
        for (int h = region.h0; h < region.h1; ++h)
            for (int w = region.w0; w < region.w1; ++w)
                for (int c = region.c0; c < region.c1; ++c) {
                    if (!scanned(n, h, w, c))
                        continue;
                    const std::size_t f = golden.offset(n, h, w, c);
                    for (int l = 0; l < W; ++l)
                        if (std::bit_cast<std::uint32_t>(
                                plane.lanes(f)[l]) !=
                            std::bit_cast<std::uint32_t>(golden[f]))
                            want[l].include({n, h, w, c});
                }

    std::vector<std::uint32_t> scratch;
    std::array<Region, W> got{};
    const std::uint32_t live = changedLaneBoxes(
        plane, golden, region, useCover ? &cover : nullptr, scratch,
        got.data());
    for (int l = 0; l < W; ++l) {
        ASSERT_EQ(((live >> l) & 1u) != 0, !want[l].empty())
            << "W " << W << " lane " << l;
        if (!want[l].empty())
            EXPECT_EQ(got[l], want[l]) << "W " << W << " lane " << l;
    }
}

} // namespace

TEST(BatchedScan, ChangedLaneBoxesMatchBruteForce)
{
    Rng rng(151);
    for (int trial = 0; trial < 60; ++trial) {
        for (bool cover : {false, true}) {
            checkScan<4>(rng, cover);
            checkScan<8>(rng, cover);
        }
    }
}

TEST(BatchedCampaign, ChecksumInvariantUnderWidthThreadsCache)
{
    // The batch width is a pure performance knob: campaignChecksum
    // must match the B = 1 result for every width x thread count x
    // result-cache combination.
    Network net = buildResNet(3);
    net.setPrecision(Precision::FP16);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig ref = smallConfig();
    ref.batchWidth = 1;
    ref.resultCacheEnabled = false;
    const std::uint64_t want =
        campaignChecksum(runCampaign(net, x, top1Metric(), ref));

    for (int width : {4, 8}) {
        for (int threads : {1, 4, 8}) {
            for (bool cache : {false, true}) {
                CampaignConfig cfg = smallConfig();
                cfg.batchWidth = width;
                cfg.numThreads = threads;
                cfg.resultCacheEnabled = cache;
                CampaignResult res =
                    runCampaign(net, x, top1Metric(), cfg);
                EXPECT_EQ(campaignChecksum(res), want)
                    << "width " << width << " threads " << threads
                    << " cache " << cache;
            }
        }
    }
}

TEST(BatchedCampaign, TransformerChecksumInvariantUnderWidthAndThreads)
{
    // Attention networks run FC, softmax and two-operand matmuls on
    // batched kernels: the campaign must match the dense and the B = 1
    // result at every width and thread count.
    for (Precision p : {Precision::FP16, Precision::INT8}) {
        Network net = buildTransformer(3);
        Tensor x = defaultInputFor("transformer", 4);
        net.setPrecision(p);
        if (p == Precision::INT8)
            net.calibrate(x);

        CampaignConfig dense = smallConfig();
        dense.incremental = false;
        dense.batchWidth = 1;
        dense.resultCacheEnabled = false;
        const std::uint64_t want = campaignChecksum(
            runCampaign(net, x, bleuMetric(0.10), dense));

        for (int width : {1, 8}) {
            for (int threads : {1, 4}) {
                CampaignConfig cfg = smallConfig();
                cfg.batchWidth = width;
                cfg.numThreads = threads;
                CampaignResult res =
                    runCampaign(net, x, bleuMetric(0.10), cfg);
                EXPECT_EQ(campaignChecksum(res), want)
                    << precisionName(p) << " width " << width
                    << " threads " << threads;
            }
        }
    }
}

TEST(BatchedCampaign, KillAndResumeBitIdentity)
{
    // A batched campaign interrupted mid-flight and resumed from its
    // snapshot — even at a different batch width — must reproduce the
    // uninterrupted B = 1 checksum, with the result cache on or off.
    Network net = buildResNet(3);
    net.setPrecision(Precision::FP16);
    Tensor x = defaultInputFor("resnet", 4);

    CampaignConfig ref = smallConfig();
    ref.batchWidth = 1;
    const std::uint64_t want =
        campaignChecksum(runCampaign(net, x, top1Metric(), ref));

    for (bool cache : {false, true}) {
        for (int resumeWidth : {8, 1}) {
            ScopedSnapshotPath path(
                "batched_kill_" + std::to_string(cache) + "_" +
                std::to_string(resumeWidth));

            CampaignConfig cfg = smallConfig();
            cfg.batchWidth = 8;
            cfg.numThreads = 4;
            cfg.resultCacheEnabled = cache;
            cfg.checkpointPath = path.str();
            cfg.stopAfterShards = 6;
            CampaignResult partial =
                runCampaign(net, x, top1Metric(), cfg);
            ASSERT_FALSE(partial.complete);

            CampaignConfig resume = smallConfig();
            resume.batchWidth = resumeWidth;
            resume.numThreads = 4;
            resume.resultCacheEnabled = cache;
            resume.checkpointPath = path.str();
            resume.resumeFrom = path.str();
            CampaignResult res =
                runCampaign(net, x, top1Metric(), resume);
            EXPECT_TRUE(res.complete);
            EXPECT_EQ(campaignChecksum(res), want)
                << "cache " << cache << " resume width "
                << resumeWidth;
        }
    }
}

TEST(BatchedCampaign, BatchWidthValidation)
{
    Network net = buildResNet(3);
    Tensor x = defaultInputFor("resnet", 4);
    CampaignConfig cfg = smallConfig();
    cfg.batchWidth = 0;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "batchWidth must be in");
    cfg.batchWidth = kMaxBatchLanes + 1;
    EXPECT_DEATH((void)runCampaign(net, x, top1Metric(), cfg),
                 "batchWidth must be in");
}
