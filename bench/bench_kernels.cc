/**
 * @file
 * Kernel throughput and kernel-identity harness.
 *
 * Phase 1 measures per-layer-type MAC throughput (GFLOP/s, counting
 * 2 ops per MAC) three ways, writing all to
 * BENCH_kernel_throughput.json so the speedup is recorded from one
 * machine and one binary:
 *
 *  - backend "<isa>" (e.g. "avx2"): the packed block kernels with the
 *    intrinsic backend — the production forward path;
 *  - backend "scalar": the per-neuron scalar reference
 *    (computeNeuron() over every output), which is the execution
 *    model the engine used before the kernel layer existed and still
 *    uses for single-neuron probes — the speedup baseline;
 *  - backend "scalar-block": the block kernels with the scalar twin
 *    backend (runtime toggle off), isolating what the pack/block
 *    restructure contributes without hand-written intrinsics.  On
 *    hosts where the compiler auto-vectorizes the twin's lane arrays
 *    this leg can approach the intrinsic one; it is a correctness
 *    reference, not the baseline.
 *
 * All three outputs are compared bit-for-bit as a side effect.
 *
 * Phase 1b gates the weight-substitution vector path: whole-channel
 * re-execution of one corrupted weight (PreBufWeight) on a 32x32x64
 * -> 64 3x3 FP16 conv, through Conv2D::forwardWithSub and through
 * per-neuron computeNeuron() over the same consumers.  Any bit
 * mismatch fails, and under the auto-dispatched backend so does a
 * vector path less than 5x faster than the per-neuron one.
 *
 * Phase 1c gates the fault-batched engine's multi-column MAC rows: a
 * 16x16x16 -> 16 3x3 conv at W = 8 injection lanes (FP16 through
 * batchMacF32, INT8 through batchMacNarrow), every output cell's lane
 * rows gathered once, then accumulated with whole pack-block column
 * runs (as the batched conv issues them) and with one call per output
 * channel (ncols = 1).  Any bit mismatch fails, and under the
 * auto-dispatched backend so does an FP16 multi-column pass less than
 * 1.5x faster than the single-column one.
 *
 * Phase 2 runs a small injection campaign twice — SIMD on and off —
 * and exits non-zero if the campaign checksums differ: the CI smoke
 * gate for the kernels' bit-identity contract.
 *
 * Phase 3 hands over to the original google-benchmark micros
 * (forward conv, single-neuron recompute, engine cycle rate, fault
 * models, RNG); `--benchmark_filter=^$` skips them for smoke runs.
 *
 * Flags (see -h): `--kernel=<substr>` / `--dtype=<name>` narrow phase
 * 1 to the kernels under study (a kernel filter also skips the
 * campaign gate), `--backend=<name>` forces a dispatch backend for
 * the whole run (an unavailable backend exits non-zero), and
 * `--min-ms=<n>` sets the per-measurement floor.  Only the default
 * full sweep rewrites BENCH_kernel_throughput.json (rows tagged with
 * the dispatched backend); filtered or backend-forced runs print but
 * do not touch the tracked file, since the JSON merge replaces a
 * bench's whole row set.  Unrecognized arguments still flow to
 * google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>

#include "accel/nvdla_fi.hh"
#include "bench/common.hh"
#include "core/fault_models.hh"
#include "nn/conv.hh"
#include "nn/fc.hh"
#include "nn/init.hh"
#include "nn/layer.hh"
#include "nn/matmul.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "simd/pack.hh"
#include "simd/simd.hh"
#include "tensor/bitops.hh"

using namespace fidelity;

namespace
{

/** A layer with its inputs and the MAC count of one forward pass. */
struct KernelCase
{
    std::string name;
    std::unique_ptr<Layer> layer;
    std::vector<Tensor> inputs;
    std::int64_t macs = 0;

    std::vector<const Tensor *>
    ins() const
    {
        std::vector<const Tensor *> p;
        for (const Tensor &t : inputs)
            p.push_back(&t);
        return p;
    }
};

Tensor
randomTensor(Rng &rng, int n, int h, int w, int c)
{
    Tensor t(n, h, w, c);
    for (auto &v : t.data())
        v = static_cast<float>(rng.normal(0, 1));
    return t;
}

KernelCase
convCase(const std::string &name, int hw, int inC, int outC, int k,
         int groups = 1)
{
    Rng rng(11);
    KernelCase kc;
    kc.name = name;
    ConvSpec spec;
    spec.inC = inC;
    spec.outC = outC;
    spec.kh = spec.kw = k;
    spec.pad = k / 2;
    spec.groups = groups;
    std::size_t nw = static_cast<std::size_t>(k) * k *
                     (inC / groups) * outC;
    auto conv = std::make_unique<Conv2D>(
        name, spec, heWeights(rng, nw, k * k * inC / groups),
        smallBiases(rng, outC));
    kc.inputs.push_back(randomTensor(rng, 1, hw, hw, inC));
    Tensor out = conv->makeOutput({&kc.inputs[0]});
    kc.macs = static_cast<std::int64_t>(out.size()) *
              conv->reductionLength();
    kc.layer = std::move(conv);
    return kc;
}

KernelCase
fcCase(const std::string &name, int inC, int units)
{
    Rng rng(13);
    KernelCase kc;
    kc.name = name;
    auto fc = std::make_unique<FC>(
        name, inC, units,
        heWeights(rng, static_cast<std::size_t>(inC) * units, inC),
        smallBiases(rng, units));
    kc.inputs.push_back(randomTensor(rng, 1, 4, 1, inC));
    kc.macs = static_cast<std::int64_t>(4) * units * inC;
    kc.layer = std::move(fc);
    return kc;
}

KernelCase
matmulCase(const std::string &name, int rows, int red, int cols,
           bool transB)
{
    Rng rng(17);
    KernelCase kc;
    kc.name = name;
    kc.layer = std::make_unique<MatMulAB>(name, transB, 1.0f);
    kc.inputs.push_back(randomTensor(rng, 1, rows, 1, red));
    kc.inputs.push_back(transB ? randomTensor(rng, 1, cols, 1, red)
                               : randomTensor(rng, 1, red, 1, cols));
    kc.macs = static_cast<std::int64_t>(rows) * red * cols;
    return kc;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

/** Forward repeatedly for >= minSeconds; returns per-pass seconds. */
double
timeForward(const KernelCase &kc, double minSeconds)
{
    auto ins = kc.ins();
    kc.layer->forward(ins); // warm up; builds weight packs
    int iters = 0;
    double elapsed = 0.0;
    while (elapsed < minSeconds) {
        elapsed += bench::timeSeconds([&] {
            for (int i = 0; i < 4; ++i)
                benchmark::DoNotOptimize(kc.layer->forward(ins));
        });
        iters += 4;
    }
    return elapsed / iters;
}

/** One forward pass through the per-neuron scalar reference path. */
Tensor
neuronForward(const KernelCase &kc)
{
    auto ins = kc.ins();
    const auto *mac = dynamic_cast<const MacLayer *>(kc.layer.get());
    Tensor out = kc.layer->makeOutput(ins);
    for (int n = 0; n < out.n(); ++n)
        for (int h = 0; h < out.h(); ++h)
            for (int w = 0; w < out.w(); ++w)
                for (int c = 0; c < out.c(); ++c)
                    out.at(n, h, w, c) = mac->computeNeuron(
                        ins, NeuronIndex{n, h, w, c}, nullptr);
    return out;
}

/** Time the per-neuron reference like timeForward(). */
double
timeNeuronForward(const KernelCase &kc, double minSeconds)
{
    int iters = 0;
    double elapsed = 0.0;
    while (elapsed < minSeconds) {
        elapsed += bench::timeSeconds(
            [&] { benchmark::DoNotOptimize(neuronForward(kc)); });
        ++iters;
    }
    return elapsed / iters;
}

struct DtypeSpec
{
    const char *name;
    Precision precision;
};

constexpr DtypeSpec kDtypes[] = {
    {"fp32", Precision::FP32},
    {"fp16", Precision::FP16},
    {"int8", Precision::INT8},
    {"int16", Precision::INT16},
};

/** Parsed command-line options (see usage()). */
struct Options
{
    std::string kernel;  //!< substring filter on the kernel name
    std::string dtype;   //!< exact dtype filter ("fp32", "int8", ...)
    std::string backend; //!< forced dispatch backend, "" = auto
    int minMs = 50;      //!< per-measurement wall-clock floor
};

void
usage(const char *argv0)
{
    std::cout
        << "usage: " << argv0 << " [options] [benchmark options]\n"
        << "  --kernel=<substr>   only kernels whose name contains "
           "<substr>\n"
        << "                      (conv3x3, conv1x1, fc, matmul, "
           "conv3x3-wsub,\n"
        << "                      conv3x3-batched);\n"
        << "                      also skips the campaign checksum "
           "gate\n"
        << "  --dtype=<name>      only one dtype: fp32, fp16, int8, "
           "int16\n"
        << "  --backend=<name>    force the dispatch backend (scalar, "
           "sse2, avx2,\n"
        << "                      neon, auto); exits non-zero when "
           "unavailable\n"
        << "  --min-ms=<n>        per-measurement floor in ms "
           "(default 50,\n"
        << "                      scaled by FIDELITY_SAMPLES)\n"
        << "  -h, --help          this message\n"
        << "only the default full sweep rewrites "
           "BENCH_kernel_throughput.json;\n"
        << "filtered/forced runs leave it untouched\n"
        << "remaining arguments go to google-benchmark "
           "(--benchmark_filter=...)\n";
}

/** Kernel name of the weight-substitution gate (runWeightSubGate). */
const std::string kWeightSubCase = "conv3x3-wsub";

/** Whether --kernel / --dtype select the weight-substitution gate. */
bool
weightSubSelected(const Options &opt)
{
    return (opt.kernel.empty() ||
            kWeightSubCase.find(opt.kernel) != std::string::npos) &&
           (opt.dtype.empty() || opt.dtype == "fp16");
}

/** Kernel name of the batched MAC gate (runBatchedMacGate). */
const std::string kBatchedCase = "conv3x3-batched";

/** Whether --kernel / --dtype select the batched MAC gate. */
bool
batchedSelected(const Options &opt)
{
    return (opt.kernel.empty() ||
            kBatchedCase.find(opt.kernel) != std::string::npos) &&
           (opt.dtype.empty() || opt.dtype == "fp16" ||
            opt.dtype == "int8");
}

int
runThroughput(const Options &opt)
{
    const double minSeconds =
        (opt.minMs / 1000.0) * bench::scaledSamples(10) / 10.0;
    std::vector<KernelCase> cases;
    cases.push_back(convCase("conv3x3", 16, 32, 64, 3));
    cases.push_back(convCase("conv1x1", 16, 64, 64, 1));
    cases.push_back(fcCase("fc", 256, 256));
    cases.push_back(matmulCase("matmul", 64, 64, 64, false));

    std::vector<bench::KernelThroughputRecord> records;
    int failures = 0;
    for (KernelCase &kc : cases) {
        if (!opt.kernel.empty() &&
            kc.name.find(opt.kernel) == std::string::npos)
            continue;
        for (const DtypeSpec &dt : kDtypes) {
            if (!opt.dtype.empty() && opt.dtype != dt.name)
                continue;
            kc.layer->setPrecision(dt.precision);
            if (dt.precision == Precision::INT8 ||
                dt.precision == Precision::INT16) {
                auto ins = kc.ins();
                Tensor ref = kc.layer->forward(ins);
                kc.layer->calibrate(ins, ref);
            }

            simd::setEnabled(true);
            Tensor outSimd = kc.layer->forward(kc.ins());
            double tSimd = timeForward(kc, minSeconds);
            simd::setEnabled(false);
            Tensor outTwin = kc.layer->forward(kc.ins());
            double tTwin = timeForward(kc, minSeconds);
            simd::setEnabled(true);
            Tensor outRef = neuronForward(kc);
            double tRef = timeNeuronForward(kc, minSeconds);

            if (!bitIdentical(outSimd, outTwin)) {
                std::cerr << "FAIL: " << kc.name << " " << dt.name
                          << ": SIMD and scalar-twin outputs differ\n";
                ++failures;
            }
            if (!bitIdentical(outSimd, outRef)) {
                std::cerr << "FAIL: " << kc.name << " " << dt.name
                          << ": SIMD and per-neuron outputs differ\n";
                ++failures;
            }

            auto gflops = [&](double sec) {
                return 2.0 * static_cast<double>(kc.macs) / sec / 1e9;
            };
            records.push_back({"bench_kernels", kc.name, dt.name,
                               simd::backendName(), gflops(tSimd),
                               tSimd});
            records.push_back({"bench_kernels", kc.name, dt.name,
                               "scalar", gflops(tRef), tRef});
            records.push_back({"bench_kernels", kc.name, dt.name,
                               "scalar-block", gflops(tTwin), tTwin});
            std::cout << kc.name << " " << dt.name << ": simd "
                      << gflops(tSimd) << " GFLOP/s, scalar "
                      << gflops(tRef) << " GFLOP/s, scalar-block "
                      << gflops(tTwin) << " GFLOP/s ("
                      << tRef / tSimd << "x vs scalar)\n";
        }
    }
    if (records.empty()) {
        if (weightSubSelected(opt) || batchedSelected(opt))
            return failures;
        std::cerr << "no kernel/dtype matches --kernel="
                  << opt.kernel << " --dtype=" << opt.dtype << "\n";
        return 1;
    }
    // mergeJsonLines replaces all of a bench's rows at once, so a
    // filtered or backend-forced run would clobber the full tracked
    // row set with a partial one — only the default full sweep under
    // the dispatched backend updates the trajectory file.
    if (opt.kernel.empty() && opt.dtype.empty() && opt.backend.empty()) {
        bench::writeKernelThroughputJson("bench_kernels", records);
        std::cout << "wrote BENCH_kernel_throughput.json ("
                  << simd::backendName() << " vs scalar)\n";
    } else {
        std::cout << "filtered run: BENCH_kernel_throughput.json "
                     "not rewritten\n";
    }
    return failures;
}

int
runChecksumGate(const Options &opt)
{
    // Whole-campaign identity: golden runs, fault injection, the
    // incremental engine, and the metric all ride on the kernels, so
    // equal checksums mean the backend toggle changed nothing.
    int samples = bench::scaledSamples(20);
    int failures = 0;
    for (const DtypeSpec &dt : kDtypes) {
        if (!opt.dtype.empty() && opt.dtype != dt.name)
            continue;
        simd::setEnabled(true);
        std::uint64_t withSimd = campaignChecksum(
            bench::runStudyCampaign("resnet", dt.precision,
                                    top1Metric(), samples));
        simd::setEnabled(false);
        std::uint64_t scalar = campaignChecksum(
            bench::runStudyCampaign("resnet", dt.precision,
                                    top1Metric(), samples));
        simd::setEnabled(true);
        std::cout << "campaign checksum resnet " << dt.name
                  << ": simd " << std::hex << withSimd << ", scalar "
                  << scalar << std::dec
                  << (withSimd == scalar ? " (equal)\n"
                                         : " MISMATCH\n");
        if (withSimd != scalar)
            ++failures;
    }
    return failures;
}

int
runWeightSubGate(const Options &opt)
{
    // Same-build gate for PreBufWeight re-execution: one corrupted
    // weight recomputes its whole output channel.  The consumers are
    // coalesced into single-channel w-runs as the fault models do, and
    // run once through Conv2D::forwardWithSub (falling back per neuron
    // when it declines, as the fault models do) and once through
    // per-neuron computeNeuron.  Any bit mismatch fails; under the
    // auto-dispatched backend a vector path under 5x faster fails too.
    if (!weightSubSelected(opt))
        return 0;
    const std::string &name = kWeightSubCase;
    constexpr double kMinSpeedup = 5.0;
    const double minSeconds =
        (opt.minMs / 1000.0) * bench::scaledSamples(10) / 10.0;
    KernelCase kc = convCase(name, 32, 64, 64, 3);
    auto &conv = dynamic_cast<Conv2D &>(*kc.layer);
    conv.setPrecision(Precision::FP16);
    auto ins = kc.ins();
    Tensor vec = conv.makeOutput(ins);
    Tensor ref = conv.makeOutput(ins);

    Rng rng(17);
    std::vector<OperandSub> subs(8);
    for (std::size_t i = 0; i < subs.size(); ++i) {
        std::size_t widx = rng.below(
            static_cast<std::uint32_t>(conv.weightCount(ins)));
        subs[i].kind = OperandSub::Kind::Weight;
        subs[i].flatIndex = widx;
        subs[i].value = FaultModels::flipStoredOperand(
            conv.weightAt(ins, widx), Precision::FP16, conv.weightQuant(),
            static_cast<int>(rng.below(16)));
    }
    std::vector<std::vector<NeuronIndex>> cons;
    std::vector<std::vector<Region>> boxes;
    for (const OperandSub &sub : subs) {
        cons.push_back(conv.weightConsumers(ins, sub.flatIndex));
        int oc = cons.back()[0].c;
        boxes.emplace_back();
        for (int oh = 0; oh < vec.h(); ++oh)
            boxes.back().push_back(
                Region{0, 1, oh, oh + 1, 0, vec.w(), oc, oc + 1});
    }
    auto runVector = [&](std::size_t i) {
        if (conv.forwardWithSub(ins, &subs[i], boxes[i].data(),
                                boxes[i].size(), vec))
            return;
        for (const NeuronIndex &n : cons[i])
            vec.at(n) = conv.computeNeuron(ins, n, &subs[i]);
    };
    auto runNeuron = [&](std::size_t i) {
        for (const NeuronIndex &n : cons[i])
            ref.at(n) = conv.computeNeuron(ins, n, &subs[i]);
    };

    int failures = 0;
    for (std::size_t i = 0; i < subs.size(); ++i) {
        runVector(i);
        runNeuron(i);
        for (const NeuronIndex &n : cons[i]) {
            float a = vec.at(n), b = ref.at(n);
            if (std::memcmp(&a, &b, sizeof(float)) != 0) {
                std::cerr << "FAIL: " << name << " fp16: weight sub "
                          << subs[i].flatIndex << " at " << n.str()
                          << ": forwardWithSub " << a
                          << " != computeNeuron " << b << "\n";
                ++failures;
                break;
            }
        }
    }
    auto timeAll = [&](auto run) {
        double elapsed = 0.0;
        std::size_t passes = 0;
        while (elapsed < minSeconds) {
            elapsed += bench::timeSeconds([&] {
                for (std::size_t i = 0; i < subs.size(); ++i)
                    run(i);
            });
            ++passes;
        }
        return elapsed / static_cast<double>(passes * subs.size());
    };
    double tVec = timeAll(runVector);
    double tRef = timeAll(runNeuron);
    double speedup = tRef / tVec;
    std::cout << name << " fp16 (" << simd::backendName()
              << "): whole-channel weight-sub re-execution "
              << tVec * 1e6 << " us via forwardWithSub, " << tRef * 1e6
              << " us via per-neuron computeNeuron (" << speedup
              << "x)\n";
    if (opt.backend.empty() && speedup < kMinSpeedup) {
        std::cerr << "FAIL: " << name << " fp16: forwardWithSub only "
                  << speedup << "x faster than per-neuron computeNeuron"
                  << " (gate " << kMinSpeedup << "x)\n";
        ++failures;
    }
    return failures;
}

int
runBatchedMacGate(const Options &opt)
{
    // Same-build gate for the batched engine's MAC rows (phase 1c).
    if (!batchedSelected(opt))
        return 0;
    const std::string &name = kBatchedCase;
    constexpr int kHW = 16, kC = 16, kK = 3, W = 8;
    constexpr int kRed = kK * kK * kC; // even: no narrow pad row
    constexpr int kCells = kHW * kHW;
    constexpr std::size_t kRowsLen = std::size_t{kCells} * kRed * W;
    constexpr std::size_t kOutLen = std::size_t{kCells} * kC * W;
    constexpr double kMinSpeedup = 1.5;
    const double minSeconds =
        (opt.minMs / 1000.0) * bench::scaledSamples(10) / 10.0;
    const simd::KernelTable &kt = simd::table();
    Rng rng(23);

    // Lane rows of every output cell, [cell][(ci, kh, kw)][W] in the
    // canonical reduction order, gathered from a [h][w][c][W] lane
    // plane with the zero operand in the padding.
    auto gatherRows = [&](const auto &plane) {
        using T = typename std::decay_t<decltype(plane)>::value_type;
        std::vector<T> rows(kRowsLen, T{});
        T *dst = rows.data();
        for (int oh = 0; oh < kHW; ++oh)
            for (int ow = 0; ow < kHW; ++ow)
                for (int ci = 0; ci < kC; ++ci)
                    for (int kh = 0; kh < kK; ++kh)
                        for (int kw = 0; kw < kK; ++kw, dst += W) {
                            const int ih = oh - 1 + kh;
                            const int iw = ow - 1 + kw;
                            if (ih < 0 || ih >= kHW || iw < 0 ||
                                iw >= kHW)
                                continue;
                            std::memcpy(
                                dst,
                                plane.data() +
                                    ((ih * kHW + iw) * kC + ci) * W,
                                W * sizeof(T));
                        }
        return rows;
    };

    int failures = 0;
    // run(multi, out) makes one pass over every cell: whole pack-block
    // runs when multi, else one call per output channel.
    auto gate = [&](const char *dtype, bool gated, auto run,
                    auto &outMulti, auto &outSingle) {
        if (!opt.dtype.empty() && opt.dtype != dtype)
            return;
        run(true, outMulti);
        run(false, outSingle);
        if (std::memcmp(outMulti.data(), outSingle.data(),
                        outMulti.size() * sizeof(outMulti[0])) != 0) {
            std::cerr << "FAIL: " << name << " " << dtype
                      << ": multi-column and single-column MAC rows "
                         "differ\n";
            ++failures;
        }
        // Interleaved legs, best of three each: one leg's noise
        // cannot land on only one side of the ratio.
        auto timeLeg = [&](bool multi, auto &out) {
            double elapsed = 0.0;
            std::size_t passes = 0;
            while (elapsed < minSeconds) {
                elapsed += bench::timeSeconds([&] { run(multi, out); });
                ++passes;
            }
            return elapsed / static_cast<double>(passes);
        };
        double tMulti = 0.0, tSingle = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            const double m = timeLeg(true, outMulti);
            const double s = timeLeg(false, outSingle);
            tMulti = rep == 0 ? m : std::min(tMulti, m);
            tSingle = rep == 0 ? s : std::min(tSingle, s);
        }
        const double speedup = tSingle / tMulti;
        std::cout << name << " " << dtype << " (" << simd::backendName()
                  << ", W=" << W << "): " << tMulti * 1e6
                  << " us per pass with pack-block column runs, "
                  << tSingle * 1e6 << " us with ncols=1 (" << speedup
                  << "x)\n";
        if (gated && opt.backend.empty() && speedup < kMinSpeedup) {
            std::cerr << "FAIL: " << name << " " << dtype
                      << ": multi-column MAC rows only " << speedup
                      << "x faster than ncols=1 (gate " << kMinSpeedup
                      << "x)\n";
            ++failures;
        }
    };

    {
        // FP16: stored-form (binary16-rounded) operands and weights.
        constexpr int PL = simd::kF32Lanes;
        auto half = [&] {
            return roundToHalf(static_cast<float>(rng.normal(0, 1)));
        };
        std::vector<float> plane(std::size_t{kHW} * kHW * kC * W);
        for (float &v : plane)
            v = half();
        const std::vector<float> rows = gatherRows(plane);
        std::vector<float> wts(std::size_t{kRed} * kC);
        for (float &v : wts)
            v = half();
        std::vector<float> pack(simd::packSize(kRed, kC, PL));
        simd::packLaneBlocked(
            kRed, kC, PL,
            [&](int k, int c) { return wts[static_cast<std::size_t>(k) * kC + c]; },
            pack.data());
        const std::size_t blkStride = std::size_t{kRed} * PL;
        std::vector<float> outMulti(kOutLen), outSingle(kOutLen);
        auto run = [&](bool multi, std::vector<float> &out) {
            for (int cell = 0; cell < kCells; ++cell) {
                const float *xg = rows.data() + static_cast<std::size_t>(cell) * kRed * W;
                float *acc = out.data() + static_cast<std::size_t>(cell) * kC * W;
                for (int oc = 0; oc < kC; oc += multi ? PL : 1)
                    kt.batchMacF32(xg,
                                   pack.data() + (oc / PL) * blkStride +
                                       oc % PL,
                                   kRed, PL, W, multi ? PL : 1,
                                   acc + oc * W);
            }
        };
        gate("fp16", true, run, outMulti, outSingle);
    }
    {
        // INT8: quantised operands through the narrow pair pack.
        constexpr int PL = simd::kNarrowLanes;
        constexpr std::int32_t kMaxAbsW = 127;
        std::vector<std::int16_t> plane(std::size_t{kHW} * kHW * kC * W);
        for (auto &v : plane)
            v = static_cast<std::int16_t>(
                static_cast<int>(rng.below(256)) - 128);
        const std::vector<std::int16_t> rows = gatherRows(plane);
        std::vector<std::int32_t> wts(std::size_t{kRed} * kC);
        for (auto &v : wts)
            v = static_cast<std::int32_t>(rng.below(2 * kMaxAbsW + 1)) -
                kMaxAbsW;
        std::vector<std::int16_t> pack(simd::packNarrowSize(kRed, kC));
        simd::packNarrow(
            kRed, kC,
            [&](int k, int c) { return wts[static_cast<std::size_t>(k) * kC + c]; },
            pack.data());
        const int redPairs = simd::packPairs(kRed);
        const int chunk = simd::narrowChunkPairs(8, kMaxAbsW);
        const std::size_t blkStride = static_cast<std::size_t>(redPairs) * 2 * PL;
        std::vector<std::int64_t> outMulti(kOutLen), outSingle(kOutLen);
        auto run = [&](bool multi, std::vector<std::int64_t> &out) {
            for (int cell = 0; cell < kCells; ++cell) {
                const std::int16_t *xg =
                    rows.data() + static_cast<std::size_t>(cell) * kRed * W;
                std::int64_t *acc = out.data() + static_cast<std::size_t>(cell) * kC * W;
                for (int oc = 0; oc < kC; oc += multi ? PL : 1)
                    kt.batchMacNarrow(xg,
                                      pack.data() + (oc / PL) * blkStride +
                                          (oc % PL) * 2,
                                      redPairs, 2 * PL, chunk, W,
                                      multi ? PL : 1, acc + oc * W);
            }
        };
        gate("int8", false, run, outMulti, outSingle);
    }
    return failures;
}

struct ConvSetup
{
    ConvSpec spec;
    std::unique_ptr<Conv2D> conv;
    Tensor x;
    std::vector<const Tensor *> ins;
    Tensor golden;

    ConvSetup()
        : x(1, 8, 8, 8)
    {
        Rng rng(1);
        spec.inC = 8;
        spec.outC = 32;
        spec.kh = 3;
        spec.kw = 3;
        spec.pad = 1;
        conv = std::make_unique<Conv2D>(
            "c", spec, heWeights(rng, 9u * 8 * 32, 72),
            smallBiases(rng, 32));
        conv->setPrecision(Precision::FP16);
        for (auto &v : x.data())
            v = static_cast<float>(rng.normal(0, 1));
        ins = {&x};
        golden = conv->forward(ins);
    }
};

ConvSetup &
setup()
{
    static ConvSetup s;
    return s;
}

void
BM_ConvForward(benchmark::State &state)
{
    auto &s = setup();
    for (auto _ : state)
        benchmark::DoNotOptimize(s.conv->forward(s.ins));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(s.golden.size()) *
                            s.conv->reductionLength());
}
BENCHMARK(BM_ConvForward);

void
BM_ComputeNeuron(benchmark::State &state)
{
    auto &s = setup();
    NeuronIndex n{0, 4, 4, 7};
    for (auto _ : state)
        benchmark::DoNotOptimize(s.conv->computeNeuron(s.ins, n,
                                                       nullptr));
    state.SetItemsProcessed(state.iterations() *
                            s.conv->reductionLength());
}
BENCHMARK(BM_ComputeNeuron);

void
BM_EngineGoldenRun(benchmark::State &state)
{
    auto &s = setup();
    NvdlaConfig cfg;
    NvdlaEngine engine(cfg, engineLayerFromConv(*s.conv, s.x));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        EngineResult r = engine.run(s.x, nullptr);
        cycles = r.cycles;
        benchmark::DoNotOptimize(r.output);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cycles));
    state.counters["cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_EngineGoldenRun);

void
BM_EngineInjection(benchmark::State &state)
{
    auto &s = setup();
    NvdlaConfig cfg;
    NvdlaFi fi(cfg, engineLayerFromConv(*s.conv, s.x), s.x);
    Rng rng(3);
    for (auto _ : state) {
        FaultSite site = fi.sampleSite(rng);
        benchmark::DoNotOptimize(fi.inject(site));
    }
}
BENCHMARK(BM_EngineInjection);

void
BM_FaultModelApply(benchmark::State &state)
{
    auto &s = setup();
    NvdlaConfig cfg;
    FaultModels models(cfg);
    Rng rng(5);
    auto cat = static_cast<FFCategory>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            models.apply(cat, *s.conv, s.ins, s.golden, rng));
    state.SetLabel(ffCategoryName(cat));
}
BENCHMARK(BM_FaultModelApply)
    ->DenseRange(0, static_cast<int>(FFCategory::GlobalControl));

void
BM_RngDraws(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next32());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraws);

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&](const char *flag) {
            return arg.substr(std::strlen(flag));
        };
        if (arg == "-h" || arg == "--help") {
            usage(argv[0]);
            return 0;
        } else if (arg.rfind("--kernel=", 0) == 0) {
            opt.kernel = val("--kernel=");
        } else if (arg.rfind("--dtype=", 0) == 0) {
            opt.dtype = val("--dtype=");
        } else if (arg.rfind("--backend=", 0) == 0) {
            opt.backend = val("--backend=");
        } else if (arg.rfind("--min-ms=", 0) == 0) {
            opt.minMs = static_cast<int>(
                parseIntArg("--min-ms", val("--min-ms="), 1, 60000));
        } else {
            rest.push_back(argv[i]);
        }
    }
    if (!opt.dtype.empty()) {
        bool known = false;
        for (const DtypeSpec &dt : kDtypes)
            known = known || opt.dtype == dt.name;
        fatal_if(!known, "--dtype=", opt.dtype,
                 ": expected fp32, fp16, int8, or int16");
    }
    if (!opt.backend.empty() &&
        !simd::forceBackend(opt.backend.c_str()))
        fatal("--backend=", opt.backend,
              " is not available on this host (not compiled in, or "
              "the CPU lacks the ISA)");
    std::cout << "dispatch backend " << simd::backendName() << " ("
              << simd::dispatchMode() << ")\n";

    int failures = runThroughput(opt) + runWeightSubGate(opt) +
                   runBatchedMacGate(opt);
    // The campaign gate is whole-network; a kernel filter means a
    // targeted microbench run, so only the filtered phase executes.
    if (opt.kernel.empty())
        failures += runChecksumGate(opt);
    if (failures) {
        std::cerr << failures
                  << " identity or speed gate failure(s)\n";
        return 1;
    }
    int bargc = static_cast<int>(rest.size());
    benchmark::Initialize(&bargc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, rest.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
