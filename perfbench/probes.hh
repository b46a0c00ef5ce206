/**
 * @file
 * Set-up timing and per-layer probes, shared by the in-process and the
 * served workloads.  Every probe times calls into one module's public
 * functions from the outside; nothing inside the program is
 * instrumented.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <map>
#include <memory>
#include <string>

#include "bench.hh"
#include "core/campaign.hh"

namespace perfbench
{

/** Network and input seeds of every workload (the service defaults);
 *  the workload seed varies the campaigns, never the model. */
constexpr std::uint64_t kNetSeed = 2020;
constexpr std::uint64_t kInputSeed = 2021;

/** A built (and, in integer modes, calibrated) network with its
 *  input.  Held by pointer: an Injector keeps a reference to it. */
struct Prepared
{
    fidelity::Network net;
    fidelity::Tensor input;
};

/** Wall time of each set-up step a campaign pays before its first
 *  injection. */
struct SetupTiming
{
    double build = 0.0;     //!< workloads: buildNetwork + input
    double calibrate = 0.0; //!< nn: Network::calibrate (integer modes)
    double golden = 0.0;    //!< core/injector: the golden forward pass

    double total() const { return build + calibrate + golden; }
};

/**
 * Build the network, calibrate it when the precision is an integer
 * mode, and construct an Injector (the golden pass), timing each step
 * and recording a span per step.
 */
std::unique_ptr<Prepared> prepare(const std::string &network,
                                  fidelity::Precision precision,
                                  SetupTiming &timing, Tracer &tracer,
                                  std::uint64_t parent);

/** Metric name to value. */
using Values = std::map<std::string, double>;

/**
 * Per-layer probes on one prepared network:
 *  - nn.forward.<kind>_s: one golden pass replayed node by node through
 *    Layer::forward and Network::gatherInputs, summed per layer kind
 *    (median of several passes);
 *  - fault_models.apply_us.<category>: p50 of FaultModels::apply;
 *  - injector.inject_{dense,incremental,batched}_us: per-injection
 *    time on the same sampled cells through inject(engine = null),
 *    inject(IncrementalEngine) and injectBatch(B = 8), p50 over cells;
 *  - incremental.* and batched.*: the probe engines' totals().
 */
Values probeLayers(const Prepared &p, const fidelity::CorrectnessFn &metric,
                   std::uint64_t seed, bool smoke, Tracer &tracer);

/**
 * Share of the per-injection CPU time `us_per_inj` spent in
 * FaultModels::apply: every injection applies one non-global model,
 * drawn evenly across the six non-global categories.
 */
double applyShare(const Values &v, double us_per_inj);

/** Per-layer samples read from campaigns' own reports: run manifest
 *  phases and worker balance, and result-cache counters. */
struct ReportSamples
{
    std::vector<double> plan, inject, merge, fit, imbalance, probes;
    double hits = 0.0, lookups = 0.0;

    /** Fold in one run manifest document; false when it lacks the
     *  execution metrics or the worker table. */
    bool addManifest(const Json &manifest);

    void addCache(double cache_hits, double cache_lookups);

    /** The campaign.*, thread_pool.* and result_cache.* metrics. */
    void report(Values &v) const;
};

/**
 * Relative half-width of the Eq. 2 FIT interval: acceleratorFit over
 * every cell's Wilson lower and upper masking bounds, half the spread
 * of the two rates over the point estimate.
 */
double fitRelHalfWidth(const fidelity::CampaignResult &res,
                       const fidelity::CampaignConfig &cfg);

/** Split-mix step used to derive per-purpose seeds from the workload
 *  seed. */
std::uint64_t mixSeed(std::uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
