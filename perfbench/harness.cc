#include "harness.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "bench_common.hh"
#include "common/random.hh"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

bool
parseArgs(int argc, char **argv, Args &out, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            error = flag + " needs a value";
            return false;
        }
        const std::string value = argv[++i];
        try {
            std::size_t used = 0;
            if (flag == "--workload") {
                out.workload = value;
            } else if (flag == "--seed") {
                out.seed = std::stoull(value, &used);
            } else if (flag == "--seconds") {
                out.seconds = std::stod(value, &used);
            } else if (flag == "--trace") {
                out.trace = std::stoi(value, &used) != 0;
            } else if (flag == "--out-dir") {
                out.out_dir = value;
            } else {
                error = "unknown flag " + flag;
                return false;
            }
            if (used != 0 && used != value.size())
                throw std::invalid_argument(value);
        } catch (const std::exception &) {
            error = "bad value for " + flag + ": " + value;
            return false;
        }
    }
    if (out.workload.empty()) {
        error = "--workload is required";
        return false;
    }
    if (!(out.seconds > 0.0)) {
        error = "--seconds must be positive";
        return false;
    }
    return true;
}

std::uint64_t
subSeed(std::uint64_t seed, const std::string &purpose)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    for (const char c : purpose)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    std::uint64_t z = seed + h + 0x9e3779b97f4a7c15ull; // splitmix64
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Percentile
percentile(std::vector<double> samples, double p)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    const std::size_t n = samples.size();
    const double exact = std::ceil(p * static_cast<double>(n));
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(exact), 1, n);
    std::nth_element(samples.begin(),
                     samples.begin() +
                         static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    out.value = samples[rank - 1];
    out.beyond = n - rank;
    return out;
}

bool
supported(const Percentile &pct, std::size_t min_beyond)
{
    return pct.samples > 0 && pct.beyond >= min_beyond;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5).value;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double rate_per_s,
                double duration_s, unsigned streams)
{
    std::vector<Arrival> schedule;
    if (!(rate_per_s > 0.0) || !(duration_s > 0.0) || streams == 0)
        return schedule;
    // A Poisson process conditioned on its count is that many
    // uniform arrival times: the run offers exactly rate x duration
    // requests whatever the seed, so throughput does not follow the
    // draw.
    const auto count = static_cast<std::size_t>(
        std::llround(rate_per_s * duration_s));
    eie::Rng rng(seed);
    std::vector<double> due(count);
    for (double &at : due)
        at = rng.uniformReal(0.0, duration_s);
    std::sort(due.begin(), due.end());
    schedule.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        schedule.push_back({due[i], static_cast<unsigned>(i % streams)});
    return schedule;
}

void
RateWindows::count(Clock::time_point at)
{
    std::lock_guard<std::mutex> lock(mutex_);
    last_ = at;
    // The first completion opens the first window.
    if (in_window_++ == 0) {
        window_start_ = at;
        return;
    }
    if (in_window_ <= per_window_)
        return;
    rates_.push_back(static_cast<double>(per_window_) /
                     (microsBetween(window_start_, at) * 1e-6));
    window_start_ = at;
    in_window_ = 1;
}

std::vector<double>
RateWindows::rates() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // A run too short for one full window reports its partial one.
    if (rates_.empty() && in_window_ > 1)
        return {static_cast<double>(in_window_ - 1) /
                (microsBetween(window_start_, last_) * 1e-6)};
    return rates_;
}

double
rssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

namespace {

using Interval = std::pair<double, double>;

/** Total length of the union of @p intervals clipped to [lo, hi]. */
double
unionLength(std::vector<Interval> intervals, double lo, double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double reach = lo;
    for (const auto &[begin, end] : intervals) {
        const double from = std::max(begin, reach);
        const double to = std::min(end, hi);
        if (to > from) {
            total += to - from;
            reach = to;
        }
    }
    return total;
}

} // namespace

Attribution
attribute(const std::vector<RequestSpan> &requests,
          const std::vector<eie::obs::Span> &spans,
          const std::map<std::string, unsigned> &expected_spans)
{
    std::unordered_map<std::uint64_t,
                       std::vector<const eie::obs::Span *>>
        by_id;
    for (const eie::obs::Span &span : spans)
        if (span.trace_id != 0)
            by_id[span.trace_id].push_back(&span);

    // Each batcher thread runs one sweep at a time: its busy
    // intervals are [kernel_run start, reply end], one per batch
    // (every request of a batch carries the same two timestamps).
    std::map<std::uint64_t, std::map<double, double>> busy;
    for (const auto &[id, own] : by_id) {
        const eie::obs::Span *kernel = nullptr;
        const eie::obs::Span *reply = nullptr;
        for (const eie::obs::Span *span : own) {
            if (span->name == "kernel_run")
                kernel = span;
            else if (span->name == "reply")
                reply = span;
        }
        if (kernel != nullptr && reply != nullptr)
            busy[kernel->tid][kernel->start_us] =
                reply->start_us + reply->dur_us;
    }

    Attribution out;
    for (const RequestSpan &request : requests) {
        const double e2e = request.end_us - request.start_us;
        std::vector<Interval> program;
        const eie::obs::Span *form = nullptr;
        double cluster_begin = -1.0;
        double reply_end = -1.0;
        std::size_t found = 0;
        if (const auto it = by_id.find(request.trace_id);
            request.trace_id != 0 && it != by_id.end()) {
            found = it->second.size();
            for (const eie::obs::Span *span : it->second) {
                program.emplace_back(span->start_us,
                                     span->start_us + span->dur_us);
                if (span->name == "batch_form") {
                    form = span;
                } else if (span->name == "kernel_run") {
                    out.sweep_us.push_back(span->dur_us);
                } else if (span->name == "reply") {
                    out.reply_us.push_back(span->dur_us);
                    reply_end = span->start_us + span->dur_us;
                } else if (span->name == "shard_submit") {
                    cluster_begin = span->start_us;
                }
            }
        }
        const auto expected = expected_spans.find(request.kind);
        if (expected != expected_spans.end() &&
            found < expected->second)
            out.spans_lost += expected->second - found;

        const double covered =
            unionLength(program, request.start_us, request.end_us);
        out.local_us[request.kind].push_back(
            std::max(0.0, e2e - covered));
        program.emplace_back(request.submit_start_us,
                             request.submit_start_us +
                                 request.submit_us);
        out.unattributed_us[request.kind].push_back(std::max(
            0.0, e2e - unionLength(program, request.start_us,
                                   request.end_us)));
        if (cluster_begin >= 0.0 && reply_end >= cluster_begin)
            out.cluster_us.push_back(reply_end - cluster_begin);

        if (form == nullptr)
            continue;
        // Split the wait before the sweep: time the batcher spent
        // on earlier sweeps is queueing, the rest is the window.
        const double begin = form->start_us;
        const double end = form->start_us + form->dur_us;
        double queued = 0.0;
        if (const auto it = busy.find(form->tid); it != busy.end()) {
            const std::map<double, double> &sweeps = it->second;
            auto sweep = sweeps.upper_bound(begin);
            if (sweep != sweeps.begin())
                --sweep;
            for (; sweep != sweeps.end() && sweep->first < end;
                 ++sweep)
                queued += std::max(
                    0.0, std::min(end, sweep->second) -
                             std::max(begin, sweep->first));
        }
        out.queue_us.push_back(queued);
        out.form_us.push_back(std::max(0.0, form->dur_us - queued));
    }
    return out;
}

void
writeChromeTrace(const std::string &path,
                 const std::vector<RequestSpan> &requests,
                 std::vector<eie::obs::Span> spans)
{
    for (const RequestSpan &request : requests) {
        eie::obs::Span span;
        span.trace_id = request.trace_id;
        span.name = "request";
        span.cat = "perfbench";
        span.start_us = request.start_us;
        span.dur_us = request.end_us - request.start_us;
        span.arg = request.kind;
        spans.push_back(std::move(span));
    }
    // One row per request: chrome://tracing nests complete events by
    // time containment within a row.
    for (eie::obs::Span &span : spans)
        if (span.trace_id != 0)
            span.tid = span.trace_id;
    std::ofstream file(path);
    file << eie::obs::renderChromeTrace(spans) << "\n";
}

void
Result::add(std::string name, std::string unit, double value,
            std::size_t samples)
{
    metrics.push_back(
        {std::move(name), std::move(unit), value, samples});
}

void
Result::note(std::string line)
{
    notes.push_back(std::move(line));
}

namespace {

/** Shortest round-trip rendering of @p value (JSON has no NaN or
 *  infinity; callers guarantee finite values). */
std::string
number(double value)
{
    char buffer[64];
    const auto end =
        std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
    return std::string(buffer, end);
}

} // namespace

void
printResult(std::ostream &os, const Args &args, const Result &result)
{
    for (const std::string &line : result.notes)
        os << line << "\n";
    for (const Metric &metric : result.metrics)
        os << "metric " << metric.name << " = " << number(metric.value)
           << " " << metric.unit << " (samples " << metric.samples
           << ")\n";

    os << "failed_share = "
       << number(result.attempted
                     ? static_cast<double>(result.failed) /
                           static_cast<double>(result.attempted)
                     : 1.0)
       << " (" << result.failed << " failed, refused, shed, dropped or "
       << "mismatched of " << result.attempted << " attempted)\n";

    os << "{\"machine\": {\"hardware_threads\": "
       << std::thread::hardware_concurrency() << ", \"compiler\": \""
       << __VERSION__ << "\", \"march\": \""
       << eie::bench::compileMarch() << "\", \"kernel_simd\": \""
       << eie::core::kernel::simdIsaName() << "\"}, \"workload\": \""
       << args.workload << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << number(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0) << "}\n";

    os << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &metric = result.metrics[i];
        os << (i ? ", " : "") << "\"" << metric.name
           << "\": {\"value\": " << number(metric.value)
           << ", \"unit\": \"" << metric.unit << "\"}";
    }
    os << "}}" << std::endl;
}

} // namespace perfbench
