/**
 * @file
 * Fault-batched re-execution throughput and bit-identity gate.
 *
 * Runs the result-cache bench's cache-off adaptive campaign (same
 * networks, seed, schedule, and thread count) unbatched (B = 1) and
 * with the fault-batched engine at full width (B = 8), where SIMD
 * lanes carry independent injections of one (layer, category) cell
 * through the network in a single pass (DESIGN.md §12).
 *
 * Both widths run in the same build, as interleaved legs: kRepeats
 * times B = 1 then B = 8, each leg running campaigns back to back on
 * one prebuilt network for at least kMinLegSeconds.  A leg's rate is
 * its injections over its campaigns' wall time, and each width
 * reports the median over its legs, so host noise lands on both sides
 * of the ratio instead of on one.  The legs' time floor, not the
 * sample count, sets the run time, so $FIDELITY_SAMPLES does not
 * shrink this bench: smaller campaigns would only weight per-campaign
 * set-up over the engines under test.
 *
 * The bench fails (non-zero exit) if
 *  - any campaign's campaignChecksum differs from the B = 1 checksum
 *    of its network and precision (batching must be a pure
 *    performance knob), or
 *  - on a gated leg, the median B = 8 injections/s is below the leg's
 *    gate times the median B = 1 injections/s: 1.3x on resnet and
 *    mobilenet FP16, 1.2x on transformer FP16 (FC and softmax on
 *    batched kernels, matmuls on per-lane row cones).
 *
 * An INT8 leg per CNN runs the same schedule through the narrow
 * integer kernels (modes "engine_incremental_int8" /
 * "engine_batched_int8"), so BENCH_injection_throughput.json tracks
 * the integer campaign rate across PRs; its gate is checksum identity
 * only.  The transformer is scored with the benchmark's token metric
 * (BLEU, 10% tolerance), the CNNs with top-1.
 *
 * Rows are merged into BENCH_injection_throughput.json with their
 * batch_width tag.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "bench/common.hh"
#include "workloads/metrics.hh"

using namespace fidelity;
using namespace fidelity::bench;

namespace
{

/** One (network, precision) pair; gate 0 checks checksums only. */
struct LegSpec
{
    const char *network;
    Precision precision;
    double gate;
};

constexpr LegSpec kLegs[] = {
    {"resnet", Precision::FP16, 1.3},
    {"resnet", Precision::INT8, 0.0},
    {"mobilenet", Precision::FP16, 1.3},
    {"mobilenet", Precision::INT8, 0.0},
    {"transformer", Precision::FP16, 1.2},
};
constexpr int kRepeats = 5;
constexpr double kMinLegSeconds = 1.0;

/** One timed leg: campaigns back to back for >= kMinLegSeconds. */
struct Leg
{
    std::uint64_t injections = 0;
    double seconds = 0.0;
    bool identical = true; //!< every campaign matched the reference

    double rate() const { return injections / seconds; }
};

/** The leg with the median rate (upper median for even counts). */
Leg
medianLeg(std::vector<Leg> legs)
{
    std::sort(legs.begin(), legs.end(),
              [](const Leg &a, const Leg &b) { return a.rate() < b.rate(); });
    return legs[legs.size() / 2];
}

} // namespace

int
main()
{
    const int samples = 60;
    const int threads = 4;
    const int width = 8;

    printHeading(std::cout,
                 "Fault-batched injection throughput (FP16 + INT8, "
                 "adaptive, " +
                     std::to_string(samples) +
                     " samples per cell cap base, " +
                     std::to_string(threads) + " threads, median of " +
                     std::to_string(kRepeats) +
                     " interleaved legs of >= 1 s)");

    Table t({"Network", "dtype", "B", "injections", "wall s", "inj/s",
             "uplift", "gate", "identical"});
    std::vector<ThroughputRecord> records;
    bool checksum_ok = true;
    std::string gateErrors;

    for (const LegSpec &spec : kLegs) {
        const bool fp16 = spec.precision == Precision::FP16;
        CampaignConfig cfg;
        cfg.samplesPerCategory = samples;
        cfg.seed = 2033;
        cfg.targetHalfWidth = 0.10;
        cfg.confidenceZ = 1.96;
        cfg.minSamples = 16;
        cfg.maxSamplesPerCategory = samples * 8;
        cfg.numThreads = threads;
        cfg.resultCacheEnabled = false;

        const std::string network = spec.network;
        Network net = buildNetwork(network, 2020);
        const Tensor input = defaultInputFor(network, 2021);
        net.setPrecision(spec.precision);
        if (!fp16)
            net.calibrate(input);
        const CorrectnessFn metric =
            network == "transformer" ? bleuMetric(0.10) : top1Metric();

        bool haveRef = false;
        std::uint64_t refChecksum = 0;
        auto runLeg = [&](int batchWidth) {
            cfg.batchWidth = batchWidth;
            Leg leg;
            while (leg.seconds < kMinLegSeconds) {
                CampaignResult r;
                leg.seconds += timeSeconds([&] {
                    r = runCampaign(net, input, metric, cfg);
                });
                leg.injections += r.totalInjections;
                const std::uint64_t sum = campaignChecksum(r);
                if (!haveRef) {
                    refChecksum = sum;
                    haveRef = true;
                }
                leg.identical = leg.identical && sum == refChecksum;
            }
            return leg;
        };

        std::vector<Leg> legs[2];
        for (int rep = 0; rep < kRepeats; ++rep) {
            legs[0].push_back(runLeg(1));
            legs[1].push_back(runLeg(width));
        }

        const Leg med[2] = {medianLeg(legs[0]), medianLeg(legs[1])};
        const double uplift = med[1].rate() / med[0].rate();
        for (int run = 0; run < 2; ++run) {
            bool identical = true;
            for (const Leg &leg : legs[run])
                identical = identical && leg.identical;
            checksum_ok = checksum_ok && identical;

            ThroughputRecord rec;
            rec.bench = "batched_injection";
            rec.network = network;
            rec.mode = std::string(run == 1 ? "engine_batched"
                                            : "engine_incremental") +
                       (fp16 ? "" : "_int8");
            rec.threads = threads;
            rec.batchWidth = run == 1 ? width : 1;
            rec.injections = med[run].injections;
            rec.wallSeconds = med[run].seconds;
            records.push_back(rec);

            t.addRow({network, fp16 ? "fp16" : "int8",
                      std::to_string(rec.batchWidth),
                      std::to_string(rec.injections),
                      Table::num(rec.wallSeconds, 2),
                      Table::num(rec.injPerSec(), 0),
                      Table::num(run == 1 ? uplift : 1.0, 2),
                      run == 1 && spec.gate > 0.0
                          ? Table::num(spec.gate, 1) + "x"
                          : "-",
                      identical ? "yes" : "NO"});
        }
        if (spec.gate > 0.0 && uplift < spec.gate)
            gateErrors += "ERROR: " + network + " " +
                          (fp16 ? "fp16" : "int8") +
                          " batched throughput " + Table::num(uplift, 2) +
                          "x the same-build B = 1 rate, gate " +
                          Table::num(spec.gate, 1) + "x\n";
    }

    t.print(std::cout);
    writeThroughputJson("batched_injection", records);

    std::cout << (checksum_ok
                      ? "\nbatched results bit-identical to B = 1\n"
                      : "\nERROR: batched campaign diverges from the "
                        "B = 1 result\n")
              << (gateErrors.empty()
                      ? "batched throughput meets every same-build "
                        "gate over B = 1\n"
                      : gateErrors)
              << std::flush;
    return checksum_ok && gateErrors.empty() ? 0 : 1;
}
