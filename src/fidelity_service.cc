/**
 * @file
 * fidelity_service — the distributed campaign service binary.
 *
 * Subcommands (addresses are "unix:<path>" or "tcp:<host>:<port>"):
 *
 *   coordinate --listen=A [--request=JSON] [--lease-shards=N]
 *              [--lease-timeout=S] [--checkpoint=PATH]
 *              [--resume-from=PATH] [--report=PATH]
 *              [--stop-after-chunks=N]
 *       Serve one campaign's shard plan to workers, merge the
 *       journals, print the campaignChecksum.  One thread serves
 *       every worker connection from a single poll loop, whatever
 *       the fleet size.  Exits non-zero when the run is incomplete
 *       (stop hook).
 *
 *   worker --connect=A [--name=S] [--heartbeat=S]
 *          [--connect-timeout=S] [--die-after-results=N]
 *       Execute leased shard ranges for a coordinator.  The worker is
 *       single-threaded: it builds its shard executor before READY,
 *       runs each lease shard by shard with a HEARTBEAT between
 *       shards every --heartbeat seconds, and exits as soon as DONE
 *       arrives.
 *
 *   daemon --listen=A [--workers=N] [--max-queue=N]
 *          [--drr-quantum=N] [--state-dir=DIR]
 *          [--checkpoint-every=S] [--max-requests=N]
 *          [--recv-deadline=S] [--send-deadline=S]
 *       Long-running request server: REQUEST {campaign json} in,
 *       RESPONSE {manifest json} out.  The same poll loop as the
 *       coordinator takes requests in; a fixed pool of N workers
 *       drains a bounded queue (overflow gets a typed "busy" error)
 *       under deficit-round-robin fairness across tenants; request
 *       failures answer that one client, never the process.
 *
 *   submit --connect=A --request=JSON [--tenant=NAME]
 *       Send one campaign request to a daemon, print the response.
 *
 *   status --connect=A
 *       Print a daemon's queue/worker/metric status document.
 *
 *   drain --connect=A
 *       Ask a daemon to finish in-flight campaigns and exit;
 *       queued-but-unstarted requests get a "draining" rejection.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/service.hh"

using namespace fidelity;

namespace
{

const char *kUsage =
    "usage: fidelity_service "
    "<coordinate|worker|daemon|submit|status|drain> "
    "[--key=value...]\n"
    "run `fidelity_service` with no arguments for the full option "
    "list per subcommand (see the file header of "
    "src/fidelity_service.cc and DESIGN.md §14)\n";

/** --key=value option cursor over argv. */
struct Options
{
    int argc;
    char **argv;

    /** Value of --key, or `fallback` when absent. */
    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const std::string prefix = "--" + key + "=";
        std::string value = fallback;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind(prefix, 0) == 0)
                value = arg.substr(prefix.size());
        }
        return value;
    }

    long long
    getInt(const std::string &key, long long fallback, long long lo,
           long long hi) const
    {
        const std::string text = get(key, "");
        if (text.empty())
            return fallback;
        return parseIntArg("--" + key, text, lo, hi);
    }

    double
    getDouble(const std::string &key, double fallback, double lo,
              double hi) const
    {
        const std::string text = get(key, "");
        if (text.empty())
            return fallback;
        return parseDoubleArg("--" + key, text, lo, hi);
    }

    /** Reject mistyped options: every --key must be known. */
    void
    check(std::initializer_list<const char *> known) const
    {
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            fatal_if(arg.rfind("--", 0) != 0 ||
                         arg.find('=') == std::string::npos,
                     "malformed option '", arg,
                     "' (expected --key=value)");
            const std::string key =
                arg.substr(2, arg.find('=') - 2);
            bool ok = false;
            for (const char *k : known)
                if (key == k)
                    ok = true;
            fatal_if(!ok, "unknown option --", key, "\n", kUsage);
        }
    }
};

ServiceRequest
requestFromOption(const Options &opts)
{
    const std::string json = opts.get("request", "");
    if (json.empty())
        return ServiceRequest{}; // the default resnet/fp16 campaign
    ServiceRequest req;
    std::string err;
    fatal_if(!tryParseServiceRequest(json, req, err),
             "bad --request: ", err);
    return req;
}

int
coordinateMain(const Options &opts)
{
    opts.check({"listen", "request", "lease-shards", "lease-timeout",
                "checkpoint", "resume-from", "report",
                "stop-after-chunks"});
    CoordinatorOptions copts;
    copts.listenAddr = opts.get("listen", "");
    fatal_if(copts.listenAddr.empty(), "coordinate needs --listen\n",
             kUsage);
    copts.leaseShards = static_cast<std::uint64_t>(
        opts.getInt("lease-shards", 8, 1, 1 << 20));
    copts.leaseTimeoutSec =
        opts.getDouble("lease-timeout", 30.0, 0.1, 1e6);
    copts.checkpointPath = opts.get("checkpoint", "");
    copts.resumeFrom = opts.get("resume-from", "");
    copts.reportPath = opts.get("report", "");
    copts.stopAfterMergedChunks = static_cast<std::uint64_t>(
        opts.getInt("stop-after-chunks", 0, 0, 1LL << 40));

    CoordinatorRun run =
        runCampaignCoordinator(requestFromOption(opts), copts);
    if (!run.complete)
        return 3; // partial: journals checkpointed, nothing merged
    std::printf("campaign_checksum 0x%016llx\n",
                static_cast<unsigned long long>(
                    campaignChecksum(run.result)));
    return 0;
}

int
workerMain(const Options &opts)
{
    opts.check({"connect", "name", "heartbeat", "connect-timeout",
                "die-after-results"});
    WorkerOptions wopts;
    wopts.connectAddr = opts.get("connect", "");
    fatal_if(wopts.connectAddr.empty(), "worker needs --connect\n",
             kUsage);
    wopts.name = opts.get("name", "worker");
    wopts.heartbeatSec = opts.getDouble("heartbeat", 5.0, 0.1, 1e6);
    wopts.connectTimeoutSec =
        opts.getDouble("connect-timeout", 20.0, 0.1, 1e6);
    wopts.dieAfterResults = static_cast<std::uint64_t>(
        opts.getInt("die-after-results", 0, 0, 1LL << 40));
    return runServiceWorker(wopts);
}

int
daemonMain(const Options &opts)
{
    opts.check({"listen", "workers", "max-queue", "drr-quantum",
                "state-dir", "checkpoint-every", "max-requests",
                "recv-deadline", "send-deadline"});
    DaemonOptions dopts;
    dopts.listenAddr = opts.get("listen", "");
    fatal_if(dopts.listenAddr.empty(), "daemon needs --listen\n",
             kUsage);
    dopts.maxConcurrent =
        static_cast<int>(opts.getInt("workers", 2, 1, 1024));
    dopts.maxQueue =
        static_cast<int>(opts.getInt("max-queue", 32, 1, 1 << 20));
    dopts.drrQuantum = static_cast<int>(
        opts.getInt("drr-quantum", 256, 1, 1 << 30));
    dopts.stateDir = opts.get("state-dir", "");
    dopts.checkpointEverySec =
        opts.getDouble("checkpoint-every", 5.0, 0.0, 1e6);
    dopts.maxRequests = static_cast<std::uint64_t>(
        opts.getInt("max-requests", 0, 0, 1LL << 40));
    dopts.recvDeadlineSec =
        opts.getDouble("recv-deadline", 30.0, 0.1, 1e6);
    dopts.sendDeadlineSec =
        opts.getDouble("send-deadline", 30.0, 0.1, 1e6);
    return runServiceDaemon(dopts);
}

int
submitMain(const Options &opts, bool drain)
{
    opts.check({"connect", "request", "tenant"});
    const std::string addr = opts.get("connect", "");
    fatal_if(addr.empty(), (drain ? "drain" : "submit"),
             " needs --connect\n", kUsage);
    std::string request = opts.get("request", "");
    const std::string tenant = opts.get("tenant", "");
    if (!drain && (request.empty() || !tenant.empty())) {
        // Route through the typed request so --tenant stamps the
        // scheduling label without the caller hand-editing JSON.
        ServiceRequest req;
        std::string err;
        if (!request.empty())
            fatal_if(!tryParseServiceRequest(request, req, err),
                     "bad --request: ", err);
        if (!tenant.empty())
            req.tenant = tenant;
        request = serviceRequestJson(req);
    }
    std::string response, err;
    if (!submitServiceRequest(addr, request, drain, response, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s\n", response.c_str());
    return 0;
}

int
statusMain(const Options &opts)
{
    opts.check({"connect"});
    const std::string addr = opts.get("connect", "");
    fatal_if(addr.empty(), "status needs --connect\n", kUsage);
    std::string response, err;
    if (!queryServiceStatus(addr, response, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::printf("%s\n", response.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cout << kUsage;
        return 2;
    }
    const std::string cmd = argv[1];
    Options opts{argc, argv};
    if (cmd == "coordinate")
        return coordinateMain(opts);
    if (cmd == "worker")
        return workerMain(opts);
    if (cmd == "daemon")
        return daemonMain(opts);
    if (cmd == "submit")
        return submitMain(opts, /*drain=*/false);
    if (cmd == "status")
        return statusMain(opts);
    if (cmd == "drain")
        return submitMain(opts, /*drain=*/true);
    if (cmd == "-h" || cmd == "--help") {
        std::cout << kUsage;
        return 0;
    }
    fatal("unknown subcommand '", cmd, "'\n", kUsage);
}
