#include "probes.hh"

#include <algorithm>
#include <array>

#include "core/fault_models.hh"
#include "core/fit.hh"
#include "core/injector.hh"
#include "nn/batched.hh"
#include "nn/incremental.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/models.hh"

using namespace fidelity;

namespace perfbench
{

std::uint64_t
mixSeed(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::unique_ptr<Prepared>
prepare(const std::string &network, Precision precision,
        SetupTiming &timing, Tracer &tracer, std::uint64_t parent)
{
    double t0 = nowSec();
    std::uint64_t span = tracer.open("workloads.build", parent);
    std::unique_ptr<Prepared> p(new Prepared{
        buildNetwork(network, kNetSeed),
        defaultInputFor(network, kInputSeed)});
    p->net.setPrecision(precision);
    tracer.close(span);
    timing.build = nowSec() - t0;

    timing.calibrate = 0.0;
    if (precision == Precision::INT8 || precision == Precision::INT16) {
        t0 = nowSec();
        span = tracer.open("nn.calibrate", parent);
        p->net.calibrate(p->input);
        tracer.close(span);
        timing.calibrate = nowSec() - t0;
    }

    t0 = nowSec();
    span = tracer.open("injector.golden", parent);
    {
        Injector golden(p->net, p->input, CampaignConfig{}.accel);
    }
    tracer.close(span);
    timing.golden = nowSec() - t0;
    return p;
}

namespace
{

const char *const kKinds[] = {"conv", "fc", "matmul", "pool",
                              "activation", "elementwise", "other"};
constexpr int kNumKinds = 7;

int
kindSlot(LayerKind k)
{
    switch (k) {
      case LayerKind::Conv: return 0;
      case LayerKind::FC: return 1;
      case LayerKind::MatMul: return 2;
      case LayerKind::Pool: return 3;
      case LayerKind::Activation: return 4;
      case LayerKind::Elementwise: return 5;
      default: return 6; // concat, slice, softmax
    }
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

Values
probeLayers(const Prepared &p, const CorrectnessFn &metric,
            std::uint64_t seed, bool smoke, Tracer &tracer)
{
    const Network &net = p.net;
    Values out;

    // nn: one golden pass replayed node by node, per layer kind.
    {
        ScopedSpan pass_span(tracer, "nn.forward");
        const int passes = smoke ? 1 : 5;
        std::array<std::vector<double>, kNumKinds> per_kind;
        std::vector<Tensor> acts(net.numNodes());
        for (int pass = 0; pass < passes; ++pass) {
            std::array<double, kNumKinds> sum{};
            acts[0] = p.input;
            for (NodeId id = 1; id < net.numNodes(); ++id) {
                const int slot = kindSlot(net.layer(id).kind());
                ScopedSpan s(tracer,
                             std::string("nn.forward.") + kKinds[slot],
                             pass_span.id());
                const double t0 = nowSec();
                acts[id] = net.layer(id).forward(net.gatherInputs(id, acts));
                sum[slot] += nowSec() - t0;
            }
            for (int k = 0; k < kNumKinds; ++k)
                per_kind[k].push_back(sum[k]);
        }
        for (int k = 0; k < kNumKinds; ++k)
            out[std::string("nn.forward.") + kKinds[k] + "_s"] =
                median(per_kind[k]);
    }

    Injector inj(net, p.input, CampaignConfig{}.accel);
    const std::vector<Tensor> &acts = inj.goldenActs();
    const std::vector<NodeId> macs = net.macNodes();
    fatal_if(macs.empty(), "network ", net.name(), " has no MAC layers");
    Rng rng(mixSeed(seed ^ 0xfa17));

    // core/fault_models: FaultModels::apply per FF category.
    {
        ScopedSpan span(tracer, "fault_models.apply");
        const int reps = smoke ? 8 : 64;
        for (FFCategory cat : allFFCategories()) {
            std::vector<double> us;
            for (int r = 0; r < reps; ++r) {
                const NodeId node = macs[r % macs.size()];
                const auto &layer =
                    dynamic_cast<const MacLayer &>(net.layer(node));
                const auto ins = net.gatherInputs(node, acts);
                const double t0 = nowSec();
                FaultApplication app =
                    inj.models().apply(cat, layer, ins, acts[node], rng);
                us.push_back((nowSec() - t0) * 1e6);
            }
            out[std::string("fault_models.apply_us.") +
                ffCategoryName(cat)] = median(us);
        }
    }

    // core/injector + nn/incremental + nn/batched: the three
    // re-execution paths on the same sampled cells and Rng streams.
    {
        ScopedSpan span(tracer, "injector.paths");
        std::vector<FFCategory> cats;
        for (FFCategory c : allFFCategories())
            if (c != FFCategory::GlobalControl)
                cats.push_back(c);
        const int cells = smoke ? 3 : 12;
        const int per_cell = smoke ? 8 : 16;
        constexpr int kLanes = 8;
        IncrementalEngine incremental{IncrementalOptions{}};
        IncrementalEngine lone{IncrementalOptions{}};
        std::unique_ptr<BatchedEngine> batched =
            makeBatchedEngine(kLanes, IncrementalOptions{});
        std::vector<InjectionRecord> recs(per_cell);
        std::vector<double> dense_us, incr_us, batch_us;
        for (int c = 0; c < cells; ++c) {
            const NodeId node = macs[rng.below(macs.size())];
            const FFCategory cat = cats[rng.below(cats.size())];
            const std::uint64_t cell_seed = rng.next64();

            Rng r1(cell_seed);
            double t0 = nowSec();
            for (int i = 0; i < per_cell; ++i)
                inj.inject(node, cat, metric, r1, 0.0, nullptr);
            dense_us.push_back((nowSec() - t0) * 1e6 / per_cell);

            Rng r2(cell_seed);
            t0 = nowSec();
            for (int i = 0; i < per_cell; ++i)
                inj.inject(node, cat, metric, r2, 0.0, &incremental);
            incr_us.push_back((nowSec() - t0) * 1e6 / per_cell);

            Rng r3(cell_seed);
            t0 = nowSec();
            inj.injectBatch(node, cat, metric, r3, per_cell, 0.0, kLanes,
                            *batched, lone, recs.data());
            batch_us.push_back((nowSec() - t0) * 1e6 / per_cell);
        }
        out["injector.inject_dense_us"] = median(dense_us);
        out["injector.inject_incremental_us"] = median(incr_us);
        out["injector.inject_batched_us"] = median(batch_us);

        const IncrementalTotals &it = incremental.totals();
        out["incremental.dense_layer_frac"] =
            ratio(static_cast<double>(it.layersDense),
                  static_cast<double>(it.layersDense + it.layersIncremental));
        out["incremental.early_exit_frac"] =
            ratio(static_cast<double>(it.earlyMasked),
                  static_cast<double>(it.runs));
        out["incremental.elements_per_inj"] =
            ratio(static_cast<double>(it.elementsRecomputed),
                  static_cast<double>(it.runs));

        const BatchedTotals &bt = batched->totals();
        out["batched.occupancy"] =
            ratio(static_cast<double>(bt.lanesSeeded),
                  static_cast<double>(bt.batches));
        out["batched.lane_fallback_frac"] =
            ratio(static_cast<double>(bt.layersLaneFallback),
                  static_cast<double>(bt.layersBatchedKernel +
                                      bt.layersLaneFallback));
        out["batched.early_retire_frac"] =
            ratio(static_cast<double>(bt.lanesRetiredEarly),
                  static_cast<double>(bt.lanesSeeded));
    }
    return out;
}

double
applyShare(const Values &v, double us_per_inj)
{
    double apply_us = 0.0;
    int cats = 0;
    for (FFCategory c : allFFCategories())
        if (c != FFCategory::GlobalControl) {
            apply_us += v.at(std::string("fault_models.apply_us.") +
                             ffCategoryName(c));
            ++cats;
        }
    return apply_us / cats / us_per_inj;
}

bool
ReportSamples::addManifest(const Json &manifest)
{
    const Json *exec = manifest.find("execution");
    const Json *m = exec ? exec->find("metrics") : nullptr;
    const Json *workers = exec ? exec->find("workers") : nullptr;
    if (!m || !workers || workers->items.empty())
        return false;
    plan.push_back(m->num("phase.plan_s"));
    inject.push_back(m->num("phase.inject_s"));
    merge.push_back(m->num("phase.merge_s"));
    fit.push_back(m->num("phase.fit_s"));
    double most = 0.0, sum = 0.0;
    for (const Json &w : workers->items) {
        most = std::max(most, w.num("injections"));
        sum += w.num("injections");
    }
    imbalance.push_back(ratio(most, sum / workers->items.size()));
    return true;
}

void
ReportSamples::addCache(double cache_hits, double cache_lookups)
{
    hits += cache_hits;
    lookups += cache_lookups;
    probes.push_back(cache_lookups);
}

void
ReportSamples::report(Values &v) const
{
    v["result_cache.hit_rate"] = ratio(hits, lookups);
    v["result_cache.probes"] = median(probes);
    v["campaign.plan_s"] = median(plan);
    v["campaign.inject_s"] = median(inject);
    v["campaign.merge_s"] = median(merge);
    v["campaign.fit_s"] = median(fit);
    v["thread_pool.imbalance"] = median(imbalance);
}

double
fitRelHalfWidth(const CampaignResult &res, const CampaignConfig &cfg)
{
    const auto &cats = allFFCategories();
    fatal_if(res.cells.size() != res.layerInputs.size() * cats.size(),
             "campaign cell table does not match its FIT inputs");
    std::vector<LayerFitInput> low = res.layerInputs;
    std::vector<LayerFitInput> high = res.layerInputs;
    for (std::size_t l = 0; l < res.layerInputs.size(); ++l) {
        for (std::size_t c = 0; c < cats.size(); ++c) {
            const CellResult &cell = res.cells[l * cats.size() + c];
            fatal_if(cell.category != cats[c], "cell order mismatch");
            if (cats[c] == FFCategory::GlobalControl)
                continue;
            // More masking means fewer failures: the upper masking
            // bound gives the low FIT rate.
            low[l].stats[c].probSwMask = cell.masked.upper(cfg.confidenceZ);
            high[l].stats[c].probSwMask = cell.masked.lower(cfg.confidenceZ);
        }
    }
    const double lo = acceleratorFit(cfg.fit, low).total();
    const double hi = acceleratorFit(cfg.fit, high).total();
    return ratio(hi - lo, 2.0 * res.fit.total());
}

} // namespace perfbench
