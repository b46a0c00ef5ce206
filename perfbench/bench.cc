#include "bench.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sched.h>

#include "core/fault_models.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> list = {
        {"setup_s", "s", "lower"},
        {"inj_per_s", "1/s", "higher"},
        {"time_to_target_s", "s", "lower"},
        {"request_tail_s", "s", "lower"},
        {"injections", "count", "lower"},
        {"fit_rel_halfwidth", "fraction", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return list;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> list = [] {
        std::vector<MetricDef> l = {
            {"workloads.build_s", "s", "lower"},
            {"nn.calibrate_s", "s", "lower"},
            {"injector.golden_s", "s", "lower"},
        };
        for (const char *k : {"conv", "fc", "matmul", "pool", "activation",
                              "elementwise", "other"})
            l.push_back({std::string("nn.forward.") + k + "_s", "s",
                         "lower"});
        for (fidelity::FFCategory c : fidelity::allFFCategories())
            l.push_back({std::string("fault_models.apply_us.") +
                             fidelity::ffCategoryName(c),
                         "us", "lower"});
        const std::vector<MetricDef> rest = {
            {"fault_models.apply_share", "fraction", "lower"},
            {"injector.inject_dense_us", "us", "lower"},
            {"injector.inject_incremental_us", "us", "lower"},
            {"injector.inject_batched_us", "us", "lower"},
            {"incremental.dense_layer_frac", "fraction", "lower"},
            {"incremental.early_exit_frac", "fraction", "higher"},
            {"incremental.elements_per_inj", "count", "lower"},
            {"batched.occupancy", "lanes", "higher"},
            {"batched.lane_fallback_frac", "fraction", "lower"},
            {"batched.early_retire_frac", "fraction", "higher"},
            {"result_cache.hit_rate", "fraction", "higher"},
            {"result_cache.probes", "count", "lower"},
            {"campaign.plan_s", "s", "lower"},
            {"campaign.inject_s", "s", "lower"},
            {"campaign.merge_s", "s", "lower"},
            {"campaign.fit_s", "s", "lower"},
            {"thread_pool.imbalance", "ratio", "lower"},
            {"service.rtt_s", "s", "lower"},
            {"service.queue_wait_s", "s", "lower"},
            {"service.campaign_s", "s", "lower"},
            {"service.overhead_s", "s", "lower"},
            {"service.dedup_joined", "count", "higher"},
            {"service.busy_rejects", "count", "lower"},
            {"service.requests_per_s", "1/s", "higher"},
            {"service.teardown_s", "s", "lower"},
            {"trace.overhead_inj_per_s", "1/s", "higher"},
            {"trace.overhead_time_to_target_s", "s", "lower"},
        };
        l.insert(l.end(), rest.begin(), rest.end());
        return l;
    }();
    return list;
}

void
RunResult::add(const std::string &name, double value)
{
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *list)
            if (d.name == name) {
                metrics.push_back({d, value});
                return;
            }
    fatal("metric ", name, " is not listed");
}

int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tail(std::vector<double> v, std::size_t &beyond)
{
    beyond = 0;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 10)
        return v.back();
    beyond = 10;
    return v[n - 11];
}

// ----- Tracer ------------------------------------------------------

std::uint64_t
Tracer::open(const std::string &name, std::uint64_t parent,
             std::uint64_t request)
{
    if (!enabled_)
        return 0;
    Span s;
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start = nowSec();
    std::lock_guard<std::mutex> lock(m_);
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const double t = nowSec();
    std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].end = t;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(m_);
    // Self time: a span's duration minus the union of its children's
    // intervals (children of one parent may overlap when they ran on
    // different client threads).
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0)
            kids[s.parent - 1].push_back({s.start, s.end});
    fidelity::JsonWriter w;
    w.beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        w.beginObject();
        w.field("id", s.id);
        w.field("parent", s.parent);
        w.field("request", s.request);
        w.field("name", s.name);
        w.field("start_s", s.start);
        w.field("end_s", s.end);
        w.field("self_s", (s.end - s.start) - covered);
        w.endObject();
    }
    w.endArray();
    fidelity::atomicWriteFile(path, w.str());
}

// ----- JSON reader -------------------------------------------------

const Json *
Json::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : fields)
        if (k == key)
            return &v;
    return nullptr;
}

double
Json::num(const std::string &key, double fallback) const
{
    const Json *v = find(key);
    return v && v->kind == Kind::Number ? v->number : fallback;
}

std::string
Json::str(const std::string &key) const
{
    const Json *v = find(key);
    return v && v->kind == Kind::String ? v->text : std::string();
}

namespace
{

struct Parser
{
    const std::string &s;
    std::size_t i = 0;
    std::string err;

    void
    ws()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t'))
            ++i;
    }

    bool
    fail(const char *what)
    {
        if (err.empty())
            err = std::string(what) + " at offset " + std::to_string(i);
        return false;
    }

    bool
    string(std::string &out)
    {
        if (i >= s.size() || s[i] != '"')
            return fail("expected string");
        ++i;
        while (i < s.size() && s[i] != '"') {
            char c = s[i++];
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (i >= s.size())
                return fail("bad escape");
            c = s[i++];
            switch (c) {
              case 'n': out.push_back('\n'); break;
              case 't': out.push_back('\t'); break;
              case 'r': out.push_back('\r'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'u':
                // Metric and manifest text is ASCII; keep the code
                // point as '?' rather than decoding UTF-16.
                if (i + 4 > s.size())
                    return fail("bad \\u escape");
                i += 4;
                out.push_back('?');
                break;
              default: out.push_back(c); break;
            }
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i;
        return true;
    }

    bool
    value(Json &v, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        ws();
        if (i >= s.size())
            return fail("unexpected end");
        const char c = s[i];
        if (c == '{') {
            v.kind = Json::Kind::Object;
            ++i;
            ws();
            if (i < s.size() && s[i] == '}') {
                ++i;
                return true;
            }
            for (;;) {
                ws();
                std::string key;
                if (!string(key))
                    return false;
                ws();
                if (i >= s.size() || s[i] != ':')
                    return fail("expected ':'");
                ++i;
                v.fields.emplace_back(std::move(key), Json{});
                if (!value(v.fields.back().second, depth + 1))
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                if (i < s.size() && s[i] == '}') {
                    ++i;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            v.kind = Json::Kind::Array;
            ++i;
            ws();
            if (i < s.size() && s[i] == ']') {
                ++i;
                return true;
            }
            for (;;) {
                v.items.emplace_back();
                if (!value(v.items.back(), depth + 1))
                    return false;
                ws();
                if (i < s.size() && s[i] == ',') {
                    ++i;
                    continue;
                }
                if (i < s.size() && s[i] == ']') {
                    ++i;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            v.kind = Json::Kind::String;
            return string(v.text);
        }
        for (const char *lit : {"true", "false", "null"}) {
            const std::string l(lit);
            if (s.compare(i, l.size(), l) == 0) {
                i += l.size();
                v.kind = l == "null" ? Json::Kind::Null : Json::Kind::Bool;
                v.boolean = l == "true";
                return true;
            }
        }
        const char *begin = s.c_str() + i;
        char *end = nullptr;
        v.number = std::strtod(begin, &end);
        if (end == begin)
            return fail("bad value");
        v.kind = Json::Kind::Number;
        i += static_cast<std::size_t>(end - begin);
        return true;
    }
};

} // namespace

bool
parseJson(const std::string &text, Json &out, std::string &err)
{
    Parser p{text, 0, {}};
    out = Json{};
    if (!p.value(out, 0)) {
        err = p.err;
        return false;
    }
    p.ws();
    if (p.i != text.size()) {
        err = "trailing bytes at offset " + std::to_string(p.i);
        return false;
    }
    return true;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace perfbench
