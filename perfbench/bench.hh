/**
 * @file
 * Shared pieces of the perfbench binary: options, the metric sink,
 * order statistics, the in-memory span recorder, and a small JSON
 * reader for run manifests and daemon responses.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;

    /** Tiny campaigns and few repetitions (the smoke test). */
    bool smoke = false;

    /** Added to the reference campaign's seed; non-zero makes the
     *  reference deliberately wrong so the correctness check must
     *  fire. */
    std::uint64_t referenceSeedOffset = 0;

    /** Run identity recorded next to every result. */
    std::string gitSha;
    std::string sourceDigest;

    /** Where spans, manifests, and result rows go, relative to the
     *  checkout root (the daemon's unix socket lives here too, so the
     *  path must stay short). */
    std::string outDir = ".bench_build/runs";
};

/** A metric's name, unit and direction ("lower" or "higher" is
 *  better), as listed in BENCHMARK.json. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;
};

/** The end-to-end metrics, emitted by every workload with --trace 0. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics, emitted by every workload with --trace 1. */
const std::vector<MetricDef> &perLayerMetrics();

/** One reported metric. */
struct Metric
{
    MetricDef def;
    double value = 0.0;
};

/** What one workload run produced. */
struct RunResult
{
    /** Operations (campaigns or requests) checked against the
     *  reference, and those that failed, were refused, or
     *  mismatched. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    std::vector<Metric> metrics;

    /** Human-only lines: workload-specific metrics
     *  (with their direction) that are not part of the bounded set. */
    std::vector<std::string> notes;

    /** Thread counts of the run, for the run tag. */
    std::map<std::string, int> threads;

    /** Record a value of a metric listed in endToEndMetrics() or
     *  perLayerMetrics(). */
    void add(const std::string &name, double value);
};

/** CPUs this process may run on (what `nproc` prints). */
int hostCpus();

// ----- Order statistics --------------------------------------------

double median(std::vector<double> v);

/**
 * The highest percentile with at least ten samples beyond it: the
 * value at sorted index n - 11.  With ten samples or fewer there is no
 * such percentile and the maximum is returned; `beyond` receives the
 * number of samples above the returned rank.
 */
double tail(std::vector<double> v, std::size_t &beyond);

// ----- Clock and spans ---------------------------------------------

inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span: a call into a layer, timed from the outside. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 for a root span
    std::uint64_t request = 0; //!< shared by the spans of one request
    std::string name;
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span recorder.  Disabled recorders cost one branch per
 * span; enabled ones append under a lock and write everything out once
 * at the end of the run.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(const std::string &name, std::uint64_t parent = 0,
                       std::uint64_t request = 0);
    void close(std::uint64_t id);

    /** Write the spans as a JSON array, with each span's self time
     *  (duration minus the part its children cover). */
    void write(const std::string &path) const;

  private:
    const bool enabled_;
    mutable std::mutex m_;
    std::vector<Span> spans_; //!< guarded by m_; id = index + 1
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const std::string &name, std::uint64_t parent = 0,
               std::uint64_t request = 0)
        : t_(t), id_(t.open(name, parent, request))
    {
    }
    ~ScopedSpan() { t_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    std::uint64_t id_;
};

// ----- JSON reader -------------------------------------------------

/** A parsed JSON value (manifests, daemon responses, status). */
struct Json
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    /** Member `key`, or nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Numeric member, `fallback` when absent or not a number. */
    double num(const std::string &key, double fallback = 0.0) const;

    /** String member, "" when absent. */
    std::string str(const std::string &key) const;
};

/** Parse a complete JSON document; false (with `err`) on bad input. */
bool parseJson(const std::string &text, Json &out, std::string &err);

std::string readFile(const std::string &path);

// ----- Workloads ---------------------------------------------------

RunResult runInProcessWorkload(const Options &opt, Tracer &tracer);
RunResult runServedWorkload(const Options &opt, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
