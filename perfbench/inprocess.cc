/**
 * @file
 * The in-process workloads: back-to-back runCampaign calls on one
 * prepared network, each checked against the current build's reference
 * path (1 thread, dense recompute, no batching, no result cache).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/campaign.hh"
#include "probes.hh"
#include "sim/logging.hh"
#include "sim/result_cache.hh"
#include "workloads/metrics.hh"

using namespace fidelity;

namespace perfbench
{

namespace
{

/** One in-process workload.  Sizes are chosen so a campaign takes
 *  about half a second on a 4-core x86-64 host, giving a few dozen
 *  campaigns per run. */
struct Spec
{
    const char *workload;
    const char *network;
    const char *metric;
    int maxThreads;      //!< min(maxThreads, nproc) campaign threads
    int samples;         //!< fixed samplesPerCategory (0: adaptive)
    double target;       //!< adaptive Wilson half-width (0: fixed)
    int smokeSamples;
    double smokeTarget;
};

const Spec kSpecs[] = {
    {"fixed-resnet-fp16", "resnet", "top1", 4, 120, 0.0, 4, 0.0},
    {"adaptive-mobilenet-fp16", "mobilenet", "top1", 1, 0, 0.05, 0, 0.3},
    {"fixed-transformer-fp16", "transformer", "bleu10", 1, 24, 0.0, 2, 0.0},
};

/** Campaign seeds per run: run i of a workload cycles through four
 *  campaign seeds drawn from the workload seed, so one run averages
 *  over several fault samples instead of resting on one. */
constexpr int kSeedsPerRun = 4;

std::uint64_t
campaignSeed(std::uint64_t workload_seed, int k)
{
    return mixSeed(mixSeed(workload_seed) + static_cast<std::uint64_t>(k));
}

/** One timed campaign. */
struct Timed
{
    int seedIndex = 0;
    double wall = 0.0;
    std::uint64_t injections = 0;
    std::uint64_t checksum = 0;
    double fitRelHalfWidth = 0.0;
};

/** Time one campaign; `make` builds its config inside the timing, so
 *  a table the config carries is allocated on the clock, as a
 *  campaign-private one would be. */
template <typename Make>
Timed
timedCampaign(const Prepared &p, const CorrectnessFn &metric, Make &&make,
              int seed_index)
{
    const double t0 = nowSec();
    const CampaignConfig cfg = make();
    CampaignResult res = runCampaign(p.net, p.input, metric, cfg);
    Timed t;
    t.seedIndex = seed_index;
    t.wall = nowSec() - t0;
    t.injections = res.totalInjections;
    t.checksum = campaignChecksum(res);
    t.fitRelHalfWidth = fitRelHalfWidth(res, cfg);
    return t;
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * The campaigns of one timed loop.  Campaign i uses seed index
 * i % kSeedsPerRun, so consecutive groups of kSeedsPerRun campaigns are
 * passes over every campaign seed.  Rates and times are taken per
 * pass and the median over passes is reported: a pass weighs every
 * seed equally, and its mean smooths campaign-to-campaign noise that
 * would make a median over single campaigns jump.
 */
struct Loop
{
    std::vector<Timed> runs;

    std::vector<double>
    walls() const
    {
        std::vector<double> w;
        for (const Timed &t : runs)
            w.push_back(t.wall);
        return w;
    }

    /** Median over passes of injections over wall time. */
    double
    injPerSec() const
    {
        return overPasses([](double inj, double wall) { return inj / wall; });
    }

    /** Median over passes of the mean campaign wall time. */
    double
    campaignSeconds() const
    {
        return overPasses(
            [](double, double wall) { return wall / kSeedsPerRun; });
    }

    /** Mean over the campaign seeds of a per-seed deterministic
     *  value. */
    template <typename F>
    double
    perSeedMean(F &&f) const
    {
        double sum = 0.0;
        for (int k = 0; k < kSeedsPerRun; ++k)
            sum += f(runs[k]);
        return sum / kSeedsPerRun;
    }

  private:
    template <typename F>
    double
    overPasses(F &&f) const
    {
        std::vector<double> v;
        for (std::size_t i = 0; i + kSeedsPerRun <= runs.size();
             i += kSeedsPerRun) {
            double inj = 0.0, wall = 0.0;
            for (std::size_t k = i; k < i + kSeedsPerRun; ++k) {
                inj += static_cast<double>(runs[k].injections);
                wall += runs[k].wall;
            }
            v.push_back(f(inj, wall));
        }
        return median(v);
    }
};

/**
 * Run whole passes of campaigns back to back until `seconds` have
 * passed.  Campaign i uses seed index i % kSeedsPerRun and the config
 * `config(i)`; `each(span)` runs after every campaign, outside its
 * timing.
 */
template <typename Config, typename Each>
Loop
campaignLoop(const Prepared &p, const CorrectnessFn &metric,
             Config &&config, double seconds, Tracer &tracer, Each &&each)
{
    Loop loop;
    const double start = nowSec();
    while (loop.runs.empty() || loop.runs.size() % kSeedsPerRun != 0 ||
           nowSec() - start < seconds) {
        const int i = static_cast<int>(loop.runs.size());
        const std::uint64_t span = tracer.open("campaign", 0, i + 1);
        loop.runs.push_back(timedCampaign(
            p, metric, [&] { return config(i); }, i % kSeedsPerRun));
        tracer.close(span);
        each(span);
    }
    return loop;
}

} // namespace

RunResult
runInProcessWorkload(const Options &opt, Tracer &tracer)
{
    const Spec *spec = nullptr;
    for (const Spec &s : kSpecs)
        if (opt.workload == s.workload)
            spec = &s;
    fatal_if(!spec, "unknown workload '", opt.workload, "'");

    const CorrectnessFn metric = std::string(spec->metric) == "top1"
                                     ? top1Metric()
                                     : bleuMetric(0.10);
    CampaignConfig base;
    base.numThreads = std::min(spec->maxThreads, hostCpus());
    base.samplesPerCategory = opt.smoke ? spec->smokeSamples : spec->samples;
    base.targetHalfWidth = opt.smoke ? spec->smokeTarget : spec->target;
    if (opt.smoke && base.targetHalfWidth > 0.0)
        base.minSamples = 4;
    auto config = [&](int i) {
        CampaignConfig c = base;
        c.seed = campaignSeed(opt.seed, i % kSeedsPerRun);
        return c;
    };

    RunResult out;
    out.threads = {{"campaign", base.numThreads}, {"reference", 1}};

    // Set-up: build, calibrate (integer modes only), golden pass.  One
    // before the first campaign, then one after every timed campaign,
    // so the median samples the whole window.
    std::vector<double> setup_total, setup_build, setup_cal, setup_golden;
    auto setup = [&](Tracer &t_spans) {
        ScopedSpan span(t_spans, "setup");
        SetupTiming t;
        std::unique_ptr<Prepared> p =
            prepare(spec->network, Precision::FP16, t, t_spans, span.id());
        setup_total.push_back(t.total());
        setup_build.push_back(t.build);
        setup_cal.push_back(t.calibrate);
        setup_golden.push_back(t.golden);
        return p;
    };
    const std::unique_ptr<Prepared> p = setup(tracer);

    // Warm-up campaign: lazy weight packing and allocator growth are
    // paid once per process, not once per campaign.
    std::vector<Timed> checked{
        timedCampaign(*p, metric, [&] { return config(0); }, 0)};

    const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    Tracer off(false);
    const Loop plain = campaignLoop(*p, metric, config, window, off,
                                    [&](std::uint64_t) { setup(off); });
    const double rss = peakRssMb();
    checked.insert(checked.end(), plain.runs.begin(), plain.runs.end());

    if (!opt.trace) {
        std::size_t beyond = 0;
        const double tail_s = tail(plain.walls(), beyond);
        out.add("setup_s", median(setup_total));
        out.add("inj_per_s", plain.injPerSec());
        out.add("time_to_target_s", plain.campaignSeconds());
        out.add("request_tail_s", tail_s);
        out.add("injections", plain.perSeedMean([](const Timed &t) {
            return static_cast<double>(t.injections);
        }));
        out.add("fit_rel_halfwidth", plain.perSeedMean([](const Timed &t) {
            return t.fitRelHalfWidth;
        }));
        out.add("peak_rss_mb", rss);
        out.notes.push_back(
            "request_tail_s over " + std::to_string(plain.runs.size()) +
            " campaigns (" + std::to_string(kSeedsPerRun) +
            " campaign seeds), " + std::to_string(beyond) +
            " beyond the reported rank");
    } else {
        // Traced loop: the same campaigns, each writing its run
        // manifest and probing a campaign-sized result cache the
        // benchmark owns, so phases, worker balance and cache counters
        // are read from the program's own reports.
        const std::string manifest =
            opt.outDir + "/" + opt.workload + ".manifest.json";
        ReportSamples rs;
        std::shared_ptr<ResultCache> cache;
        auto traced_config = [&](int i) {
            CampaignConfig c = config(i);
            c.reportPath = manifest;
            cache = std::make_shared<ResultCache>(
                static_cast<std::size_t>(c.resultCacheMB) << 20);
            c.resultCache = cache;
            return c;
        };
        const Loop traced = campaignLoop(
            *p, metric, traced_config, window, tracer,
            [&](std::uint64_t span) {
                {
                    ScopedSpan read(tracer, "campaign.report", span);
                    const ResultCacheStats st = cache->stats();
                    rs.addCache(static_cast<double>(st.hits),
                                static_cast<double>(st.hits + st.misses));
                    Json doc;
                    std::string err;
                    fatal_if(!parseJson(readFile(manifest), doc, err) ||
                                 !rs.addManifest(doc),
                             "unreadable run manifest ", manifest, " ", err);
                }
                setup(tracer);
            });
        std::remove(manifest.c_str());
        checked.insert(checked.end(), traced.runs.begin(),
                       traced.runs.end());

        Values v = probeLayers(*p, metric, opt.seed, opt.smoke, tracer);
        v["workloads.build_s"] = median(setup_build);
        v["nn.calibrate_s"] = median(setup_cal);
        v["injector.golden_s"] = median(setup_golden);

        const double us_per_inj =
            1e6 * base.numThreads / plain.injPerSec();
        v["fault_models.apply_share"] = applyShare(v, us_per_inj);
        rs.report(v);
        // No request of this workload goes through sim/service.
        for (const char *k :
             {"service.rtt_s", "service.queue_wait_s", "service.campaign_s",
              "service.overhead_s", "service.dedup_joined",
              "service.busy_rejects", "service.requests_per_s",
              "service.teardown_s"})
            v[k] = 0.0;
        v["trace.overhead_inj_per_s"] =
            traced.injPerSec() - plain.injPerSec();
        v["trace.overhead_time_to_target_s"] =
            traced.campaignSeconds() - plain.campaignSeconds();
        for (const MetricDef &d : perLayerMetrics())
            out.add(d.name, v.at(d.name));
        out.notes.push_back(
            "fault_models.apply_share: mean apply time of the six "
            "non-global categories over the untraced per-injection CPU "
            "time (" + std::to_string(us_per_inj) + " us)");
    }

    // Correctness, untimed: every campaign of this run against the
    // reference path of the current build, one reference campaign per
    // campaign seed, run side by side (each one single-threaded).
    std::vector<std::uint64_t> want(kSeedsPerRun);
    {
        std::vector<std::thread> refs;
        for (int k = 0; k < kSeedsPerRun; ++k)
            refs.emplace_back([&, k] {
                Tracer quiet(false);
                SetupTiming t;
                const std::unique_ptr<Prepared> own = prepare(
                    spec->network, Precision::FP16, t, quiet, 0);
                CampaignConfig ref = base;
                ref.numThreads = 1;
                ref.incremental = false;
                ref.batchWidth = 1;
                ref.resultCacheEnabled = false;
                ref.seed = campaignSeed(opt.seed + opt.referenceSeedOffset, k);
                want[k] = campaignChecksum(
                    runCampaign(own->net, own->input, metric, ref));
            });
        for (std::thread &t : refs)
            t.join();
    }
    out.attempted = checked.size();
    for (const Timed &t : checked)
        if (t.checksum != want[t.seedIndex])
            ++out.failed;
    return out;
}

} // namespace perfbench
