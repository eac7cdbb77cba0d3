/**
 * @file
 * What the three workloads share: model and input generation, set-up
 * timing, the `local:` endpoint both in-process workloads serve from,
 * the phase record, the traced half-run and the per-layer metric set.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hh"
#include "compress/compressed_layer.hh"
#include "core/config.hh"
#include "core/kernel/compiled_layer.hh"
#include "core/plan.hh"
#include "harness.hh"
#include "nn/sparse.hh"

namespace perfbench {

using Frame = std::vector<std::int64_t>;

/** Synthetic pruned weights for a Table III layer (seeded; not part
 *  of any timed set-up). */
eie::nn::SparseMatrix suiteWeights(const std::string &layer,
                                   std::uint64_t seed);

/** Pruned rows x cols weights at @p density (seeded). */
eie::nn::SparseMatrix randomWeights(std::size_t rows, std::size_t cols,
                                    double density, std::uint64_t seed);

/** @p count distinct quantized input frames of length @p size with
 *  @p act_density nonzeros (seeded). */
std::vector<Frame> makeFrames(const eie::core::EieConfig &config,
                              std::size_t count, std::size_t size,
                              double act_density, std::uint64_t seed);

/**
 * An empty buffer whose @p capacity elements are already resident, so
 * filling it during a run does not count toward the program's RSS
 * growth. Built before the RSS baseline is read.
 */
template <typename T>
std::vector<T>
residentBuffer(std::size_t capacity)
{
    std::vector<T> buffer(capacity); // value-initialized: pages touched
    buffer.clear();                  // keeps the capacity
    return buffer;
}

/** A compressed and planned layer, with the time each step took. */
struct PlannedLayer
{
    std::unique_ptr<eie::compress::CompressedLayer> compressed;
    eie::core::LayerPlan plan;
    double encode_s = 0.0; ///< CompressedLayer::compress
    double plan_s = 0.0;   ///< planLayer
};

/** Compress and plan @p weights as layer @p name (timed). */
PlannedLayer compressAndPlan(const eie::core::EieConfig &config,
                             const std::string &name,
                             const eie::nn::SparseMatrix &weights);

/** Oracle outputs of @p frames through @p plans on the scalar
 *  backend. */
std::vector<Frame>
scalarOracle(const eie::core::EieConfig &config,
             const std::vector<const eie::core::LayerPlan *> &plans,
             const std::vector<Frame> &frames);

/** The set-up times of one endpoint or daemon. */
struct SetupTimes
{
    double setup_s = 0.0;    ///< compressed weights to first replies
    double encode_s = 0.0;   ///< CompressedLayer::compress
    double plan_s = 0.0;     ///< planLayer or ModelRegistry::load
    double registry_s = 0.0; ///< ModelRegistry publish and load
    double compile_s = 0.0;  ///< connect to first replies
    double rss_before_mib = 0.0; ///< VmRSS before it was built
};

/** Every set-up of a run; each reported figure is a median. */
struct SetupLog
{
    std::vector<double> setup_s, encode_s, plan_s, registry_s,
        compile_s;

    void record(const SetupTimes &times);
    std::size_t count() const { return setup_s.size(); }
};

/** A model a `local:` endpoint serves: its name and its layers, as
 *  indices into the endpoint's layer list. */
struct LocalModelSpec
{
    std::string name;
    std::vector<std::size_t> layers;
};

/** One set-up of a `local:` endpoint over in-memory models. */
struct LocalEndpoint
{
    std::vector<PlannedLayer> layers;
    /** Declared after the plans it serves, so it closes first. */
    std::unique_ptr<eie::client::Client> client;
    std::vector<Frame> first_replies; ///< one per model
    bool ok = true;
    SetupTimes times;

    std::vector<const eie::core::LayerPlan *>
    plans(const LocalModelSpec &model) const;
};

/**
 * Compress and plan @p weights (named @p names), connect @p endpoint
 * serving @p models, and wait for each model's reply to its
 * @p first_frames entry — the timed set-up.
 */
std::unique_ptr<LocalEndpoint>
setUpLocal(const eie::core::EieConfig &config,
           const std::string &endpoint,
           const eie::engine::ServerOptions &server,
           const std::vector<std::string> &names,
           const std::vector<eie::nn::SparseMatrix> &weights,
           const std::vector<LocalModelSpec> &models,
           const std::vector<Frame> &first_frames);

/** One layer's kernel numbers from standalone runBatch calls. */
struct KernelProbe
{
    double call_us = 0.0;   ///< median runBatch time
    double decode_us = 0.0; ///< median RunReport::dispatch decode time
    std::uint64_t resident_bytes = 0; ///< residentStreamBytes()
    /** resident_bytes / call time — computed, not measured traffic:
     *  it assumes each call streams the resident form once. */
    double gbps = 0.0;
    std::size_t samples = 0;
};

/**
 * Time CompiledBackend::runBatch over the one-layer stack @p plan at
 * batch frames.size() with @p threads workers and @p residency, for
 * about @p budget_s seconds after a warm-up.
 */
KernelProbe probeKernel(const eie::core::EieConfig &config,
                        const eie::core::LayerPlan &plan,
                        unsigned threads,
                        eie::core::kernel::Residency residency,
                        const std::vector<Frame> &frames,
                        double budget_s);

/**
 * Every per-layer number of a traced run. A layer that is not on a
 * workload's request path reads 0 there (no time spent, nothing
 * counted), except serve.shard_skew, which reads 1 for one server.
 */
struct LayerMetrics
{
    double compress_encode_s = 0.0;
    double core_plan_s = 0.0;
    double kernel_compile_s = 0.0;
    std::map<std::string, KernelProbe> kernels;

    Attribution attribution;
    double engine_mean_batch = 0.0;
    double engine_max_queue_depth = 0.0;
    double engine_shed = 0.0;
    double engine_dropped = 0.0;
    std::vector<double> submit_us;

    double serve_registry_load_s = 0.0;
    std::vector<double> serve_tcp_rtt_us;
    std::vector<double> serve_step_rtt_us;
    double serve_shard_skew = 1.0;

    std::vector<double> gateway_rtt_us;
    double gateway_refused = 0.0;

    double untraced_p50_us = 0.0;
    double traced_p50_us = 0.0;

    std::vector<double> loadgen_lag_us;
    std::uint64_t loadgen_sent = 0;
};

/**
 * Read a local endpoint's engine counters into @p layers. Sheds and
 * deadline drops count as failed requests; with @p note the kernel
 * variant and resident form of every layer become note lines.
 */
void readLocalStats(eie::client::Client &client, LayerMetrics &layers,
                    Result &result, bool note);

/** Append every per-layer metric to @p result, in the order
 *  BENCHMARK.json lists them. */
void addLayerMetrics(Result &result, const SetupLog &setups,
                     LayerMetrics layers);

/** What one load phase observed. Fields a workload does not use stay
 *  empty. */
struct Phase
{
    /** Latency per request class, microseconds. */
    std::map<std::string, std::vector<double>> latency_us;
    std::vector<RequestSpan> requests; ///< traced phases only
    std::vector<double> submit_us;     ///< traced phases only
    std::vector<double> lag_us;        ///< open loop, traced only
    std::vector<double> rates;         ///< closed loop: RateWindows
    std::vector<std::size_t> step_inputs;   ///< session x per step
    std::vector<std::uint64_t> step_hashes; ///< session h per step
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;
    double seconds = 0.0;
    /** Where each class's samples of every closed segment end. */
    std::map<std::string, std::vector<std::size_t>> segment_ends;

    /** Close a measured segment (one endpoint's share of the run). */
    void endSegment();
};

/**
 * Percentile @p p of one request class of @p phase: the median over
 * segments of each segment's percentile when every segment has the
 * samples to support it, so one stalled segment does not set it;
 * otherwise the percentile of the pooled samples. The sample count is
 * the pooled one.
 */
Percentile classPercentile(const Phase &phase, const std::string &kind,
                           double p);

/** Geometric mean over request classes of each class's median. */
double classP50(const Phase &phase);

/**
 * Run @p run while a helper thread drains the program's span ring
 * every 100 ms, so the bounded ring does not wrap; returns the spans
 * recorded meanwhile.
 */
template <typename Run>
std::vector<eie::obs::Span>
drainWhile(Run &&run)
{
    eie::obs::SpanRing &ring = eie::obs::processTraceRing();
    ring.clear();
    std::vector<eie::obs::Span> spans;
    const auto take = [&] {
        std::vector<eie::obs::Span> taken = ring.snapshot();
        ring.clear();
        spans.insert(spans.end(), taken.begin(), taken.end());
    };
    std::atomic<bool> stop{false};
    std::thread drainer([&] {
        while (!stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            take();
        }
    });
    try {
        run();
    } catch (...) {
        stop.store(true);
        drainer.join();
        throw;
    }
    stop.store(true);
    drainer.join();
    take();
    return spans;
}

/**
 * The load of a traced run: half of it untraced, then half with the
 * span ring drained, so the difference is the tracing overhead.
 * @p run(seconds, buffers, detail) runs one phase. The traced phase's
 * requests are attributed against the program's spans (a request
 * class owes @p expected spans) and written as a chrome://tracing
 * file; returns the traced phase.
 */
template <typename Run>
Phase
runTraced(const Args &args, Run &&run,
          const std::map<std::string, unsigned> &expected,
          LayerMetrics &layers, Result &result)
{
    const double half = args.seconds / 2.0;
    const Phase untraced = run(half, Phase{}, false);
    result.attempted += untraced.sent;
    result.failed += untraced.failed;
    layers.untraced_p50_us = classP50(untraced);

    Phase traced;
    const std::vector<eie::obs::Span> spans =
        drainWhile([&] { traced = run(half, Phase{}, true); });
    layers.traced_p50_us = classP50(traced);
    layers.attribution = attribute(traced.requests, spans, expected);
    layers.submit_us = traced.submit_us;
    layers.loadgen_lag_us = traced.lag_us;
    layers.loadgen_sent = traced.sent;
    writeChromeTrace(args.out_dir + "/trace-" + args.workload + ".json",
                     traced.requests, spans);
    return traced;
}

/**
 * Report a finished run: per-class latency notes (flagging any class
 * short of @p min_samples), then the end-to-end metrics (untraced) or
 * the per-layer ones (traced). @p throughput_fps is the workload's
 * own throughput figure.
 */
void finishResult(Result &result, const Args &args,
                  const SetupLog &setups, const Phase &measured,
                  double rss_mb, double throughput_fps,
                  std::size_t throughput_samples,
                  const LayerMetrics &layers, std::size_t min_samples);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
