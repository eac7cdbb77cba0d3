/**
 * @file
 * Shared plumbing of the serving benchmark: command-line arguments,
 * percentiles with their sample counts, the seeded open-loop arrival
 * schedule, the benchmark's own request spans and their attribution
 * against the program's span ring, and the result report.
 *
 * Everything here measures the program from outside: it times calls
 * into public functions and reads what the program already exports
 * (Client::stats, RunReport::dispatch, the obs span ring).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/** Microseconds from @p from to @p to (negative when @p to is
 *  earlier). */
double microsBetween(Clock::time_point from, Clock::time_point to);

/** Parsed command line: `--workload NAME --seed N --seconds S
 *  --trace 0|1`. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its chrome://tracing file. */
    std::string out_dir = ".";
};

/** Parse @p argv; returns false with @p error set on bad input. */
bool parseArgs(int argc, char **argv, Args &out, std::string &error);

/**
 * Derive an independent seed for one purpose ("weights/NT-We",
 * "frames/alex7", "arrivals"...) from the workload seed, so adding a
 * consumer never shifts the inputs of another.
 */
std::uint64_t subSeed(std::uint64_t seed, const std::string &purpose);

/** A nearest-rank percentile and how well the sample supports it. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0; ///< sample count it was taken from
    std::size_t beyond = 0;  ///< samples ranked above it
};

/**
 * Nearest-rank percentile @p p (0 < p <= 1) of @p samples: the value
 * at 1-based rank ceil(p * n). An empty sample gives value 0 with 0
 * samples.
 */
Percentile percentile(std::vector<double> samples, double p);

/** Whether @p pct has at least @p min_beyond samples above it — the
 *  bar a reported tail percentile must clear. */
bool supported(const Percentile &pct, std::size_t min_beyond = 10);

/** Median (the p50 of percentile()); 0 for an empty sample. */
double median(std::vector<double> samples);

/** Geometric mean of positive values; 0 for an empty list. */
double geomean(const std::vector<double> &values);

/** One scheduled open-loop arrival. */
struct Arrival
{
    double due_s = 0.0;  ///< offset from the start of the run
    unsigned stream = 0; ///< which request stream (model) it feeds
};

/**
 * Poisson arrivals at @p rate_per_s total over @p duration_s seconds,
 * conditioned on their count: exactly round(rate x duration)
 * arrivals at sorted uniform times, dealt round-robin to @p streams
 * streams so they split evenly. The schedule is a pure function of
 * its arguments.
 */
std::vector<Arrival> poissonSchedule(std::uint64_t seed,
                                     double rate_per_s,
                                     double duration_s,
                                     unsigned streams);

/**
 * Throughput in windows of a fixed number of completions: each window
 * is `per_window` replies over the time they took, so a batched
 * server's bursts do not quantize it, and the median window is a
 * rate that a short slow stretch of a shared machine cannot drag.
 * count() is safe from several threads.
 */
class RateWindows
{
  public:
    explicit RateWindows(std::uint64_t per_window)
        : per_window_(per_window)
    {
    }

    void count(Clock::time_point at);

    /** Completions per second of every full window so far (of the
     *  partial first window when none is full). */
    std::vector<double> rates() const;

  private:
    mutable std::mutex mutex_;
    std::uint64_t per_window_;
    std::uint64_t in_window_ = 0;
    Clock::time_point window_start_;
    Clock::time_point last_;
    std::vector<double> rates_;
};

/** VmRSS of this process in MiB (0 when /proc is unreadable). */
double rssMiB();

/** One request as the benchmark saw it: its span from submit (or,
 *  open loop, from when it was due) to ready. */
struct RequestSpan
{
    std::uint64_t trace_id = 0; ///< id Client::submit returned
    std::string kind;           ///< request type ("nt-head", "tcp")
    double start_us = 0.0;      ///< trace-epoch microseconds
    double end_us = 0.0;
    double submit_start_us = 0.0; ///< when submit() was entered
    double submit_us = 0.0;       ///< time blocked inside submit()
};

/** What the program's spans say about a set of requests. */
struct Attribution
{
    /** Per request type: end-to-end minus the union of the program's
     *  spans of that request (the client-local share). */
    std::map<std::string, std::vector<double>> local_us;
    /** Per request type: end-to-end minus the client's blocked
     *  submit time and the program's spans — what no span explains. */
    std::map<std::string, std::vector<double>> unattributed_us;
    std::vector<double> queue_us; ///< waiting behind earlier sweeps
    std::vector<double> form_us;  ///< waiting in the forming window
    std::vector<double> sweep_us; ///< kernel_run spans
    std::vector<double> reply_us; ///< reply spans
    /** From the cluster's shard_submit to the engine's reply. */
    std::vector<double> cluster_us;
    /** Expected engine spans that never reached the benchmark. */
    std::uint64_t spans_lost = 0;
};

/**
 * Attribute @p requests against the program's @p spans. A request
 * with a nonzero trace id is expected to own @p expected_spans spans
 * in @p spans; each missing one counts as lost. Requests whose ids
 * the program never saw (trace id 0) count wholly as unattributed.
 */
Attribution attribute(const std::vector<RequestSpan> &requests,
                      const std::vector<eie::obs::Span> &spans,
                      const std::map<std::string, unsigned>
                          &expected_spans);

/**
 * Write @p requests and @p spans as one chrome://tracing document
 * through obs::renderChromeTrace. Spans of one request share its
 * trace id and are drawn on one row keyed by it, so the program's
 * spans nest under the benchmark's request span.
 */
void writeChromeTrace(const std::string &path,
                      const std::vector<RequestSpan> &requests,
                      std::vector<eie::obs::Span> spans);

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 1;
};

/** Everything one run reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< failed + refused + shed + mismatched
    std::vector<Metric> metrics;
    /** Free-form detail lines printed above the result. */
    std::vector<std::string> notes;

    void add(std::string name, std::string unit, double value,
             std::size_t samples = 1);
    void note(std::string line);
};

/**
 * Print @p result: one human-readable line per metric with its unit
 * and sample count, a machine-stamp JSON line, and — last — the one
 * result object.
 */
void printResult(std::ostream &os, const Args &args,
                 const Result &result);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
