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
 *  - on an FP16 leg, the median B = 8 injections/s is below
 *    kSpeedupGate times the median B = 1 injections/s.
 *
 * An INT8 leg runs the same schedule through the narrow integer
 * kernels (modes "engine_incremental_int8" / "engine_batched_int8"),
 * so BENCH_injection_throughput.json tracks the integer campaign rate
 * across PRs; its gate is checksum identity only.
 *
 * Rows are merged into BENCH_injection_throughput.json with their
 * batch_width tag.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>

#include "bench/common.hh"

using namespace fidelity;
using namespace fidelity::bench;

namespace
{

constexpr const char *kNetworks[] = {"resnet", "mobilenet"};
constexpr double kSpeedupGate = 1.3;
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

    struct Dtype
    {
        Precision precision;
        const char *suffix;
    };
    constexpr Dtype kDtypes[] = {
        {Precision::FP16, ""},
        {Precision::INT8, "_int8"},
    };

    Table t({"Network", "dtype", "B", "injections", "wall s", "inj/s",
             "uplift", "identical"});
    std::vector<ThroughputRecord> records;
    bool checksum_ok = true;
    bool speedup_ok = true;

    for (const char *network : kNetworks) {
        for (const Dtype &dt : kDtypes) {
            CampaignConfig cfg;
            cfg.samplesPerCategory = samples;
            cfg.seed = 2033;
            cfg.targetHalfWidth = 0.10;
            cfg.confidenceZ = 1.96;
            cfg.minSamples = 16;
            cfg.maxSamplesPerCategory = samples * 8;
            cfg.numThreads = threads;
            cfg.resultCacheEnabled = false;

            Network net = buildNetwork(network, 2020);
            const Tensor input = defaultInputFor(network, 2021);
            net.setPrecision(dt.precision);
            if (dt.precision == Precision::INT8)
                net.calibrate(input);

            bool haveRef = false;
            std::uint64_t refChecksum = 0;
            auto runLeg = [&](int batchWidth) {
                cfg.batchWidth = batchWidth;
                Leg leg;
                while (leg.seconds < kMinLegSeconds) {
                    CampaignResult r;
                    leg.seconds += timeSeconds([&] {
                        r = runCampaign(net, input, top1Metric(), cfg);
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

            const bool fp16 = dt.precision == Precision::FP16;
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
                           dt.suffix;
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
                          identical ? "yes" : "NO"});
            }
            if (fp16)
                speedup_ok = speedup_ok && uplift >= kSpeedupGate;
        }
    }

    t.print(std::cout);
    writeThroughputJson("batched_injection", records);

    std::cout << (checksum_ok
                      ? "\nbatched results bit-identical to B = 1\n"
                      : "\nERROR: batched campaign diverges from the "
                        "B = 1 result\n")
              << (speedup_ok
                      ? "FP16 batched throughput meets the " +
                            Table::num(kSpeedupGate, 1) +
                            "x same-build gate over B = 1\n"
                      : "ERROR: FP16 batched throughput below " +
                            Table::num(kSpeedupGate, 1) +
                            "x the same-build B = 1 rate\n")
              << std::flush;
    return checksum_ok && speedup_ok ? 0 : 1;
}
