/**
 * @file
 * perfbench — the repository's end-to-end benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --git-sha SHA --source-digest HEX [--smoke]
 *             [--reference-seed-offset K]
 *
 * Workloads: fixed-resnet-fp16, adaptive-mobilenet-fp16,
 * fixed-transformer-fp16 (in-process campaigns) and served-int8 (a
 * fidelity_service daemon under closed-loop load).  With --trace 0 the
 * last stdout line carries the end-to-end metrics; with --trace 1 it
 * carries the per-layer metrics, and the spans are written to
 * .bench_build/runs/<workload>-seed<N>.spans.json.  Every run is
 * checked against the current build's reference and appended, tagged
 * with its host, to .bench_build/runs/results.jsonl.  Exits 1 when any check fails.  perfbench/run.py
 * builds this binary and supplies the run identity.
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "probes.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "simd/simd.hh"

using namespace perfbench;

namespace
{

const char *kUsage =
    "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
    "--git-sha SHA --source-digest HEX [--smoke] "
    "[--reference-seed-offset K]\n";

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        fatal_if(i + 1 >= argc, "missing value for ", a, "\n", kUsage);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(
                fidelity::parseIntArg("--seed", v, 0, 1LL << 62));
        else if (a == "--seconds")
            o.seconds = fidelity::parseDoubleArg("--seconds", v, 0.01, 3600);
        else if (a == "--trace") {
            o.trace = fidelity::parseIntArg("--trace", v, 0, 1) == 1;
            have_trace = true;
        } else if (a == "--reference-seed-offset")
            o.referenceSeedOffset = static_cast<std::uint64_t>(
                fidelity::parseIntArg(a, v, 0, 1LL << 62));
        else if (a == "--git-sha")
            o.gitSha = v;
        else if (a == "--source-digest")
            o.sourceDigest = v;
        else
            fatal("unknown option ", a, "\n", kUsage);
    }
    fatal_if(o.workload.empty() || o.seconds <= 0.0 || !have_trace,
             "--workload, --seconds and --trace are required\n", kUsage);
    fatal_if(o.gitSha.empty() || o.sourceDigest.empty(),
             "--git-sha and --source-digest are required: every result "
             "is tagged with the code it measured\n", kUsage);
    return o;
}

/** The CPU model line of /proc/cpuinfo (x86 "model name", Arm
 *  "Hardware" or implementer/part). */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line, implementer, part;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string key = line.substr(0, colon);
        while (!key.empty() && (key.back() == ' ' || key.back() == '\t'))
            key.pop_back();
        std::string value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ')
            value.erase(0, 1);
        if (key == "model name" || key == "Hardware")
            return value;
        if (key == "CPU implementer")
            implementer = value;
        if (key == "CPU part")
            part = value;
    }
    if (!implementer.empty())
        return "arm implementer " + implementer + " part " + part;
    return "";
}

/** A JsonLineBuilder row without its indentation. */
std::string
oneLine(const fidelity::JsonLineBuilder &b)
{
    std::string s = b.str();
    s.erase(0, s.find('{'));
    return s;
}

std::string
metricsObject(const RunResult &r)
{
    std::string s = "{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        fatal_if(!std::isfinite(m.value), "metric ", m.def.name,
                 " is not a finite number");
        s.append(i ? ", \"" : "\"")
            .append(fidelity::jsonEscape(m.def.name))
            .append("\": {\"value\": ")
            .append(fidelity::jsonNumber(m.value))
            .append(", \"unit\": \"")
            .append(fidelity::jsonEscape(m.def.unit))
            .append("\"}");
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    // The host tag comes first: a run that cannot name its host does
    // not measure anything.
    const std::string cpu = cpuModel();
    const int nproc = hostCpus();
    fatal_if(cpu.empty() || nproc <= 0,
             "cannot identify the host (CPU model or CPU count)");
    std::filesystem::create_directories(opt.outDir);

    Tracer tracer(opt.trace);
    RunResult r;
    if (opt.workload == "served-int8")
        r = runServedWorkload(opt, tracer);
    else
        r = runInProcessWorkload(opt, tracer);
    const bool correct = r.failed == 0 && r.attempted > 0;

    fidelity::JsonLineBuilder row;
    row.field("cpu_model", cpu)
        .field("nproc", nproc)
        .field("simd_backend", fidelity::simd::backendName())
        .field("simd_dispatch", fidelity::simd::dispatchMode())
        .field("build_type", PERFBENCH_BUILD_TYPE)
        .field("git_sha", opt.gitSha)
        .field("source_digest", opt.sourceDigest)
        .field("workload", opt.workload)
        .field("seed", opt.seed)
        .field("seconds", opt.seconds)
        .field("trace", opt.trace)
        .field("smoke", opt.smoke);
    for (const auto &[k, n] : r.threads)
        row.field("threads." + k, n);
    const std::string tag = oneLine(row);

    std::cout << "host " << tag << "\n";
    for (const Metric &m : r.metrics)
        std::cout << "  " << m.def.name << " = " << m.value << " "
                  << m.def.unit << " (" << m.def.better
                  << " is better)\n";
    for (const std::string &n : r.notes)
        std::cout << "  " << n << "\n";
    std::cout << "  error_frac = "
              << (r.attempted ? static_cast<double>(r.failed) / r.attempted
                              : 1.0)
              << " fraction (lower is better; " << r.failed << " of "
              << r.attempted
              << " operations failed or mismatched the reference)\n";

    if (opt.trace)
        tracer.write(opt.outDir + "/" + opt.workload + "-seed" +
                     std::to_string(opt.seed) + ".spans.json");
    row.field("correct", correct)
        .field("attempted", r.attempted)
        .field("failed", r.failed)
        .rawField("metrics", metricsObject(r));
    std::ofstream(opt.outDir + "/results.jsonl", std::ios::app)
        << oneLine(row) << "\n";

    fidelity::JsonLineBuilder last;
    last.field("correct", correct)
        .field("attempted", r.attempted)
        .field("failed", r.failed)
        .rawField("metrics", metricsObject(r));
    std::cout << oneLine(last) << std::endl;
    return correct ? 0 : 1;
}
