/**
 * @file
 * The served workload: a fidelity_service daemon child process on a
 * unix socket, driven by three closed-loop client threads (one tenant
 * each).  Every response's campaign checksum is compared with an
 * in-process runCampaign of the same request.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "probes.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/service.hh"

using namespace fidelity;

namespace perfbench
{

namespace
{

constexpr int kDaemonWorkers = 2;
constexpr int kClients = 3;

/** Every fourth request (after the first few) repeats an earlier one
 *  exactly: a quarter of the traffic is where sharing work across
 *  requests could pay. */
constexpr int kRepeatEvery = 4;

const char *const kNetworks[] = {"resnet", "mobilenet", "inception"};

/**
 * The seeded request sequence: small fixed INT8 campaigns cycling over
 * three networks, each with its own campaign seed, and exact repeats
 * at fixed positions.  Client c sends entries c, c + 3, c + 6, ...
 */
std::vector<ServiceRequest>
requestSequence(std::uint64_t seed, bool smoke, std::size_t count)
{
    std::vector<ServiceRequest> seq;
    Rng rng(mixSeed(seed ^ 0x5e7e));
    for (std::size_t i = 0; i < count; ++i) {
        if (i >= kRepeatEvery && i % kRepeatEvery == kRepeatEvery - 1) {
            // An earlier entry at least one round of clients back, so
            // it has normally completed or is in flight.
            seq.push_back(seq[rng.below(static_cast<std::uint32_t>(
                i - kClients))]);
            continue;
        }
        ServiceRequest req;
        req.network = kNetworks[i % 3];
        req.precision = Precision::INT8;
        req.metric = "top1";
        req.samplesPerCategory = smoke ? 2 : 32;
        req.seed = rng.next64() >> 12;
        seq.push_back(req);
    }
    return seq;
}

std::string
identityKey(ServiceRequest req)
{
    req.tenant.clear();
    return serviceRequestJson(req);
}

// ----- Daemon child process ---------------------------------------

/** The live daemon, killed by the exit handler if the run dies. */
std::atomic<pid_t> g_child{0};

void
killChild()
{
    const pid_t pid = g_child.exchange(0);
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
    }
}

struct Daemon
{
    pid_t pid = 0;
    std::string addr;
    std::string stateDir;
    std::string log;
    double startup = 0.0; //!< exec until it answers status
};

Daemon
startDaemon(const std::string &dir, int ordinal)
{
    static bool handler = (std::atexit(killChild), true);
    (void)handler;
    Daemon d;
    const std::string tag = std::to_string(::getpid()) + "-" +
                            std::to_string(ordinal);
    const std::string sock = dir + "/d" + tag + ".sock";
    d.addr = "unix:" + sock;
    d.stateDir = dir + "/state-" + tag;
    std::filesystem::create_directories(d.stateDir);
    ::unlink(sock.c_str());
    d.log = dir + "/daemon-" + tag + ".log";
    const std::string &log = d.log;
    const std::string listen = "--listen=" + d.addr;
    const std::string workers =
        "--workers=" + std::to_string(kDaemonWorkers);
    const std::string state = "--state-dir=" + d.stateDir;

    const double t0 = nowSec();
    const pid_t pid = ::fork();
    fatal_if(pid < 0, "fork failed");
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd >= 0) {
            ::dup2(fd, 1);
            ::dup2(fd, 2);
        }
        ::execl(PERFBENCH_SERVICE_BIN, PERFBENCH_SERVICE_BIN, "daemon",
                listen.c_str(), workers.c_str(), state.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    g_child = pid;
    d.pid = pid;
    std::string resp, err;
    while (!queryServiceStatus(d.addr, resp, err)) {
        int status = 0;
        fatal_if(::waitpid(pid, &status, WNOHANG) == pid,
                 "daemon exited during start-up; see ", log);
        fatal_if(nowSec() - t0 > 60.0, "daemon did not answer: ", err);
        ::usleep(100);
    }
    d.startup = nowSec() - t0;
    return d;
}

/** DRAIN an idle daemon and reap it; returns the seconds from DRAIN to
 *  exit and the child's peak RSS in MB. */
double
stopDaemon(const Daemon &d, double &peak_rss_mb)
{
    std::string resp, err;
    const double t0 = nowSec();
    fatal_if(!submitServiceRequest(d.addr, "", true, resp, err),
             "drain failed: ", err);
    int status = 0;
    struct rusage ru
    {
    };
    fatal_if(::wait4(d.pid, &status, 0, &ru) != d.pid, "wait4 failed");
    const double teardown = nowSec() - t0;
    g_child = 0;
    fatal_if(!WIFEXITED(status) || WEXITSTATUS(status) != 0,
             "daemon exited abnormally (status ", status, ")");
    peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::error_code ec;
    std::filesystem::remove_all(d.stateDir, ec);
    std::filesystem::remove(d.log, ec);
    return teardown;
}

// ----- Closed-loop load -------------------------------------------

struct Reply
{
    std::size_t index = 0;
    double rtt = 0.0;
    bool ok = false;
    std::string body; //!< response JSON, or the error text
};

struct Window
{
    std::vector<Reply> replies;
    double elapsed = 0.0;
    double teardown = 0.0;
    double peakRssMb = 0.0;
    double dedupJoined = 0.0;
    double busyRejects = 0.0;
};

Window
loadWindow(const std::vector<ServiceRequest> &seq, const Daemon &d,
           double seconds, Tracer &tracer)
{
    Window w;
    std::vector<std::vector<Reply>> per_client(kClients);
    const double start = nowSec();
    const double deadline = start + seconds;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = c; nowSec() < deadline; i += kClients) {
                fatal_if(i >= seq.size(), "request sequence exhausted");
                ServiceRequest req = seq[i];
                req.tenant = "t" + std::to_string(c);
                const std::string json = serviceRequestJson(req);
                Reply r;
                r.index = i;
                std::string err;
                const std::uint64_t span =
                    tracer.open("service.request", 0, i + 1);
                const double t0 = nowSec();
                r.ok = submitServiceRequest(d.addr, json, false, r.body, err);
                r.rtt = nowSec() - t0;
                tracer.close(span);
                if (!r.ok)
                    r.body = err;
                per_client[c].push_back(std::move(r));
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    w.elapsed = nowSec() - start;
    for (auto &v : per_client)
        for (Reply &r : v)
            w.replies.push_back(std::move(r));
    std::sort(w.replies.begin(), w.replies.end(),
              [](const Reply &a, const Reply &b) { return a.index < b.index; });

    std::string status, err;
    fatal_if(!queryServiceStatus(d.addr, status, err), "status: ", err);
    Json doc;
    fatal_if(!parseJson(status, doc, err), "bad status document: ", err);
    if (const Json *m = doc.find("metrics")) {
        w.dedupJoined = m->num("daemon.dedup_joined");
        w.busyRejects = m->num("daemon.rejected_busy");
    }
    w.teardown = stopDaemon(d, w.peakRssMb);
    return w;
}

/** A parsed successful response. */
struct Served
{
    std::uint64_t checksum = 0;
    double injections = 0.0;
    double queueWait = 0.0;
    const Json *manifest = nullptr;
    Json doc;
};

bool
parseReply(const Reply &r, Served &s)
{
    std::string err;
    if (!r.ok || !parseJson(r.body, s.doc, err) ||
        s.doc.str("status") != "ok")
        return false;
    s.checksum = std::strtoull(s.doc.str("campaign_checksum").c_str(),
                               nullptr, 16);
    s.injections = s.doc.num("total_injections");
    s.queueWait = s.doc.num("queue_wait_s");
    s.manifest = s.doc.find("manifest");
    return true;
}

} // namespace

RunResult
runServedWorkload(const Options &opt, Tracer &tracer)
{
    RunResult out;
    out.threads = {{"daemon_workers", kDaemonWorkers},
                   {"clients", kClients},
                   {"check", std::min(4, hostCpus())}};
    const std::vector<ServiceRequest> seq =
        requestSequence(opt.seed, opt.smoke, 1 << 16);
    const std::string dir = opt.outDir;

    // Set-up: daemon exec until it answers status, several times; each
    // idle daemon is drained again to sample teardown.
    const int setups = opt.smoke ? 2 : 9;
    const int windows = opt.trace ? 2 : 1;
    std::vector<double> startup, teardown;
    for (int i = 0; i < setups - windows; ++i) {
        Daemon d = startDaemon(dir, i);
        startup.push_back(d.startup);
        double rss = 0.0;
        teardown.push_back(stopDaemon(d, rss));
    }
    const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    Tracer off(false);
    std::vector<Window> runs;
    for (int k = 0; k < windows; ++k) {
        Daemon d = startDaemon(dir, setups - windows + k);
        startup.push_back(d.startup);
        const bool traced = k == 1;
        runs.push_back(loadWindow(seq, d, window, traced ? tracer : off));
        teardown.push_back(runs.back().teardown);
    }

    // Correctness, untimed: every response against an in-process
    // runCampaign of the same request, once per distinct request, the
    // distinct requests spread over a few checker threads.
    std::map<std::string, std::pair<std::uint64_t, double>> expected;
    for (const Window &w : runs)
        for (const Reply &r : w.replies)
            expected.emplace(identityKey(seq[r.index]),
                             std::make_pair(std::uint64_t{0}, 0.0));
    {
        std::vector<std::pair<const std::string, std::pair<std::uint64_t,
                                                           double>> *>
            todo;
        for (auto &e : expected)
            todo.push_back(&e);
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> checkers;
        for (int t = 0; t < out.threads["check"]; ++t)
            checkers.emplace_back([&] {
                for (std::size_t i; (i = next++) < todo.size();) {
                    ServiceRequest req;
                    std::string err;
                    fatal_if(!tryParseServiceRequest(todo[i]->first, req,
                                                     err),
                             "request does not round-trip: ", err);
                    Network net = buildServiceNetwork(req);
                    Tensor input = serviceInput(req);
                    CampaignConfig cfg = campaignConfigFor(req);
                    cfg.seed += opt.referenceSeedOffset;
                    CampaignResult res =
                        runCampaign(net, input, serviceMetric(req), cfg);
                    todo[i]->second = {campaignChecksum(res),
                                       fitRelHalfWidth(res, cfg)};
                }
            });
        for (std::thread &t : checkers)
            t.join();
    }
    auto expect = [&](const ServiceRequest &req) {
        return expected.at(identityKey(req));
    };

    struct Summary
    {
        std::vector<double> rtt, injections, qwait, campaign, overhead;
        ReportSamples reports;
        double injTotal = 0.0;
    };
    std::vector<Summary> sums(runs.size());
    std::vector<double> fit_hw;
    for (std::size_t k = 0; k < runs.size(); ++k) {
        Summary &s = sums[k];
        for (const Reply &r : runs[k].replies) {
            ++out.attempted;
            Served sv;
            if (!parseReply(r, sv)) {
                ++out.failed;
                warn("request ", r.index, " failed: ", r.body.substr(0, 200));
                continue;
            }
            const auto [want, hw] = expect(seq[r.index]);
            if (sv.checksum != want) {
                ++out.failed;
                warn("request ", r.index, " checksum mismatch");
                continue;
            }
            fit_hw.push_back(hw);
            s.rtt.push_back(r.rtt);
            s.injections.push_back(sv.injections);
            s.injTotal += sv.injections;
            s.qwait.push_back(sv.queueWait);
            if (!sv.manifest || !s.reports.addManifest(*sv.manifest))
                continue;
            const Json *exec = sv.manifest->find("execution");
            const double total =
                exec->find("metrics")->num("phase.total_s");
            s.campaign.push_back(total);
            s.overhead.push_back(r.rtt - sv.queueWait - total);
            if (const Json *rc = exec->find("result_cache"))
                if (const Json *pr = rc->find("plan_replay")) {
                    const double h = pr->num("hits");
                    s.reports.addCache(h, h + pr->num("misses"));
                }
        }
    }

    const Summary &plain = sums[0];
    const Window &pw = runs[0];
    const double inj_per_s = plain.injTotal / pw.elapsed;
    const double rps = static_cast<double>(plain.rtt.size()) / pw.elapsed;
    std::size_t beyond = 0;
    const double tail_s = tail(plain.rtt, beyond);
    if (!opt.trace) {
        out.add("setup_s", median(startup));
        out.add("inj_per_s", inj_per_s);
        out.add("time_to_target_s", median(plain.rtt));
        out.add("request_tail_s", tail_s);
        out.add("injections", median(plain.injections));
        out.add("fit_rel_halfwidth", median(fit_hw));
        out.add("peak_rss_mb", pw.peakRssMb);
        out.notes.push_back("request_p50_s = " +
                            std::to_string(median(plain.rtt)) +
                            " s (lower is better; reported as "
                            "time_to_target_s)");
        out.notes.push_back("request_tail_s over " +
                            std::to_string(plain.rtt.size()) +
                            " requests, " + std::to_string(beyond) +
                            " beyond the reported rank");
        out.notes.push_back("requests_per_s = " + std::to_string(rps) +
                            " 1/s (higher is better)");
        out.notes.push_back("teardown_s = " +
                            std::to_string(median(teardown)) +
                            " s (lower is better)");
    } else {
        const Summary &tr = sums[1];
        const Window &tw = runs[1];
        // The in-process layers a request pays, probed on each of the
        // three request networks and averaged (the mix is even).
        Values v;
        const ServiceRequest probe_req = seq[0];
        for (const char *name : kNetworks) {
            SetupTiming t;
            std::vector<double> b, c, g;
            std::unique_ptr<Prepared> p;
            for (int i = 0; i < (opt.smoke ? 1 : 3); ++i) {
                ScopedSpan span(tracer, "setup");
                p.reset();
                p = prepare(name, Precision::INT8, t, tracer, span.id());
                b.push_back(t.build);
                c.push_back(t.calibrate);
                g.push_back(t.golden);
            }
            Values pv = probeLayers(*p, serviceMetric(probe_req), opt.seed,
                                    opt.smoke, tracer);
            pv["workloads.build_s"] = median(b);
            pv["nn.calibrate_s"] = median(c);
            pv["injector.golden_s"] = median(g);
            for (const auto &[k, x] : pv)
                v[k] += x / std::size(kNetworks);
        }
        const double traced_inj_per_s = tr.injTotal / tw.elapsed;
        const double us_per_inj = 1e6 * kDaemonWorkers / inj_per_s;
        v["fault_models.apply_share"] = applyShare(v, us_per_inj);
        tr.reports.report(v);
        v["service.rtt_s"] = median(tr.rtt);
        v["service.queue_wait_s"] = median(tr.qwait);
        v["service.campaign_s"] = median(tr.campaign);
        v["service.overhead_s"] = median(tr.overhead);
        v["service.dedup_joined"] = tw.dedupJoined;
        v["service.busy_rejects"] = tw.busyRejects;
        v["service.requests_per_s"] =
            static_cast<double>(tr.rtt.size()) / tw.elapsed;
        v["service.teardown_s"] = median(teardown);
        v["trace.overhead_inj_per_s"] = traced_inj_per_s - inj_per_s;
        v["trace.overhead_time_to_target_s"] =
            median(tr.rtt) - median(plain.rtt);
        for (const MetricDef &d : perLayerMetrics())
            out.add(d.name, v.at(d.name));
        out.notes.push_back(
            "fault_models.apply_share: mean apply time of the six "
            "non-global categories over the daemon's untraced "
            "per-injection CPU time (" + std::to_string(us_per_inj) +
            " us over " + std::to_string(kDaemonWorkers) + " workers)");
    }
    return out;
}

} // namespace perfbench
