#include "common.hh"

#include <algorithm>
#include <sstream>

#include "common/random.hh"
#include "core/functional.hh"
#include "engine/backends.hh"
#include "nn/generate.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace eie;

nn::SparseMatrix
suiteWeights(const std::string &layer, std::uint64_t seed)
{
    const workloads::Benchmark &bench = workloads::findBenchmark(layer);
    return randomWeights(bench.output, bench.input,
                         bench.weight_density,
                         subSeed(seed, "weights/" + layer));
}

nn::SparseMatrix
randomWeights(std::size_t rows, std::size_t cols, double density,
              std::uint64_t seed)
{
    Rng rng(seed);
    nn::WeightGenOptions options;
    options.density = density;
    return nn::makeSparseWeights(rows, cols, options, rng);
}

std::vector<Frame>
makeFrames(const core::EieConfig &config, std::size_t count,
           std::size_t size, double act_density, std::uint64_t seed)
{
    const core::FunctionalModel functional(config);
    Rng rng(seed);
    std::vector<Frame> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        frames.push_back(functional.quantizeInput(
            nn::makeActivations(size, act_density, rng)));
    return frames;
}

PlannedLayer
compressAndPlan(const core::EieConfig &config, const std::string &name,
                const nn::SparseMatrix &weights)
{
    PlannedLayer out;
    compress::CompressionOptions options;
    options.interleave.n_pe = config.n_pe;
    const auto start = Clock::now();
    out.compressed = std::make_unique<compress::CompressedLayer>(
        compress::CompressedLayer::compress(name, weights, options));
    const auto compressed = Clock::now();
    out.plan = core::planLayer(*out.compressed, nn::Nonlinearity::ReLU,
                               config);
    out.encode_s = microsBetween(start, compressed) * 1e-6;
    out.plan_s = secondsSince(compressed);
    return out;
}

std::vector<Frame>
scalarOracle(const core::EieConfig &config,
             const std::vector<const core::LayerPlan *> &plans,
             const std::vector<Frame> &frames)
{
    const auto backend = engine::makeBackend("scalar", config, plans);
    return backend->runBatch(frames).outputs;
}

void
SetupLog::record(const SetupTimes &times)
{
    setup_s.push_back(times.setup_s);
    encode_s.push_back(times.encode_s);
    plan_s.push_back(times.plan_s);
    registry_s.push_back(times.registry_s);
    compile_s.push_back(times.compile_s);
}

std::vector<const core::LayerPlan *>
LocalEndpoint::plans(const LocalModelSpec &model) const
{
    std::vector<const core::LayerPlan *> out;
    for (const std::size_t layer : model.layers)
        out.push_back(&layers[layer].plan);
    return out;
}

std::unique_ptr<LocalEndpoint>
setUpLocal(const core::EieConfig &config, const std::string &endpoint,
           const engine::ServerOptions &server,
           const std::vector<std::string> &names,
           const std::vector<nn::SparseMatrix> &weights,
           const std::vector<LocalModelSpec> &models,
           const std::vector<Frame> &first_frames)
{
    auto local = std::make_unique<LocalEndpoint>();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < weights.size(); ++i) {
        local->layers.push_back(
            compressAndPlan(config, names[i], weights[i]));
        local->times.encode_s += local->layers.back().encode_s;
        local->times.plan_s += local->layers.back().plan_s;
    }
    client::ClientOptions options;
    options.config = config;
    options.server = server;
    for (const LocalModelSpec &model : models)
        options.models.push_back({model.name, local->plans(model)});

    local->times.rss_before_mib = rssMiB();
    const auto connect = Clock::now();
    client::Status status;
    local->client = client::Client::connect(endpoint, options, status);
    if (!local->client) {
        local->ok = false;
        return local;
    }
    // The endpoint compiles each model on its first request.
    for (std::size_t m = 0; m < models.size(); ++m) {
        const client::InferenceResult reply =
            local->client->inferRaw(models[m].name, first_frames[m]);
        local->ok = local->ok && reply.ok();
        local->first_replies.push_back(reply.ok() ? reply.outputs[0]
                                                  : Frame{});
    }
    local->times.compile_s = secondsSince(connect);
    local->times.setup_s = secondsSince(start);
    return local;
}

KernelProbe
probeKernel(const core::EieConfig &config, const core::LayerPlan &plan,
            unsigned threads, core::kernel::Residency residency,
            const std::vector<Frame> &frames, double budget_s)
{
    const std::vector<const core::LayerPlan *> plans = {&plan};
    const auto stack = engine::compileLayerStack(
        config, plans,
        engine::compiledStackOptions(
            threads, core::kernel::KernelVariant::Auto, residency));
    const engine::CompiledBackend backend(
        plans, stack, threads, core::kernel::KernelVariant::Auto);

    for (int i = 0; i < 2; ++i) // warm caches and the worker pool
        (void)backend.runBatch(frames);
    std::vector<double> call_us;
    std::vector<double> decode_us;
    const auto start = Clock::now();
    while (call_us.size() < 5 ||
           (secondsSince(start) < budget_s && call_us.size() < 400)) {
        const auto before = Clock::now();
        const engine::RunReport report = backend.runBatch(frames);
        call_us.push_back(microsBetween(before, Clock::now()));
        decode_us.push_back(
            report.dispatch.empty() ? 0.0
                                    : report.dispatch[0].decode_us);
    }

    KernelProbe probe;
    probe.samples = call_us.size();
    probe.call_us = median(call_us);
    probe.decode_us = median(decode_us);
    probe.resident_bytes = stack->front().residentStreamBytes();
    probe.gbps = static_cast<double>(probe.resident_bytes) /
        (probe.call_us * 1e3);
    return probe;
}

void
readLocalStats(client::Client &client, LayerMetrics &layers,
               Result &result, bool note)
{
    client::EndpointStats stats;
    if (!client.stats(stats).ok()) {
        ++result.failed;
        return;
    }
    layers.engine_mean_batch = stats.mean_batch;
    layers.engine_max_queue_depth =
        static_cast<double>(stats.max_queue_depth);
    layers.engine_shed = static_cast<double>(stats.requests_shed);
    layers.engine_dropped = static_cast<double>(stats.dropped_deadline);
    result.failed += stats.requests_shed + stats.dropped_deadline;
    if (note)
        for (const client::LayerKernelStats &layer : stats.layers)
            result.note("dispatch " + layer.model + "/" + layer.layer +
                        ": kernel " + layer.kernel + ", residency " +
                        layer.residency);
}

namespace {

/** The layers whose kernel numbers the traced run reports. */
const std::vector<std::string> kKernelLayers = {
    "NT-We", "NT-Wd", "Alex-6", "Alex-7", "Alex-8"};

std::vector<double>
pooled(const std::map<std::string, std::vector<double>> &by_class)
{
    std::vector<double> all;
    for (const auto &[kind, values] : by_class)
        all.insert(all.end(), values.begin(), values.end());
    return all;
}

/** Median and sample count of @p values (0 from none). */
void
addMedian(Result &result, const std::string &name,
          const std::string &unit, const std::vector<double> &values)
{
    result.add(name, unit, median(values),
               std::max<std::size_t>(values.size(), 1));
}

} // namespace

void
addLayerMetrics(Result &result, const SetupLog &setups,
                LayerMetrics layers)
{
    result.add("compress.encode_s", "s", median(setups.encode_s),
               setups.count());
    result.add("core.plan_s", "s", median(setups.plan_s),
               setups.count());
    result.add("kernel.compile_s", "s", median(setups.compile_s),
               setups.count());
    for (const std::string &layer : kKernelLayers) {
        const KernelProbe &probe = layers.kernels[layer];
        const std::string prefix = "kernel." + layer + ".";
        const std::size_t n = std::max<std::size_t>(probe.samples, 1);
        result.add(prefix + "call_us", "us", probe.call_us, n);
        result.add(prefix + "decode_us", "us", probe.decode_us, n);
        result.add(prefix + "resident_bytes", "bytes",
                   static_cast<double>(probe.resident_bytes));
        result.add(prefix + "gbps", "GB/s", probe.gbps, n);
    }

    const Attribution &a = layers.attribution;
    addMedian(result, "engine.queue_us", "us", a.queue_us);
    addMedian(result, "engine.form_us", "us", a.form_us);
    addMedian(result, "engine.sweep_us", "us", a.sweep_us);
    addMedian(result, "engine.reply_us", "us", a.reply_us);
    result.add("engine.mean_batch", "frames", layers.engine_mean_batch);
    result.add("engine.max_queue_depth", "count",
               layers.engine_max_queue_depth);
    result.add("engine.shed", "count", layers.engine_shed);
    result.add("engine.dropped", "count", layers.engine_dropped);

    addMedian(result, "client.local_us", "us", pooled(a.local_us));
    addMedian(result, "client.submit_us", "us", layers.submit_us);

    result.add("serve.registry_load_s", "s", median(setups.registry_s),
               setups.count());
    addMedian(result, "serve.tcp_rtt_us", "us",
              layers.serve_tcp_rtt_us);
    addMedian(result, "serve.step_rtt_us", "us",
              layers.serve_step_rtt_us);
    addMedian(result, "serve.gather_us", "us", a.cluster_us);
    result.add("serve.shard_skew", "ratio", layers.serve_shard_skew);

    addMedian(result, "gateway.rtt_us", "us", layers.gateway_rtt_us);
    result.add("gateway.overhead_us", "us",
               layers.gateway_rtt_us.empty()
                   ? 0.0
                   : median(layers.gateway_rtt_us) -
                       median(layers.serve_tcp_rtt_us));
    result.add("gateway.refused", "count", layers.gateway_refused);

    addMedian(result, "trace.unattributed_us", "us",
              pooled(a.unattributed_us));
    result.add("trace.overhead_pct", "%",
               layers.untraced_p50_us > 0.0
                   ? 100.0 * (layers.traced_p50_us /
                                  layers.untraced_p50_us -
                              1.0)
                   : 0.0);
    result.add("trace.spans_lost", "count",
               static_cast<double>(a.spans_lost));
    const Percentile lag = percentile(layers.loadgen_lag_us, 0.99);
    result.add("loadgen.lag_p99_us", "us", lag.value,
               std::max<std::size_t>(lag.samples, 1));
    result.add("loadgen.sent", "count",
               static_cast<double>(layers.loadgen_sent));

    // Per request type detail behind the pooled figures.
    for (const auto &[kind, values] : a.unattributed_us) {
        std::ostringstream line;
        line << "trace " << kind << ": unattributed p50 "
             << median(values) << " us, client-local p50 "
             << median(a.local_us.at(kind)) << " us (samples "
             << values.size() << ")";
        result.note(line.str());
    }
}

void
Phase::endSegment()
{
    for (const auto &[kind, values] : latency_us)
        segment_ends[kind].push_back(values.size());
}

Percentile
classPercentile(const Phase &phase, const std::string &kind, double p)
{
    const std::vector<double> &values = phase.latency_us.at(kind);
    Percentile pooled = percentile(values, p);
    const auto ends = phase.segment_ends.find(kind);
    if (ends == phase.segment_ends.end() || ends->second.size() < 2)
        return pooled;
    std::vector<double> per_segment;
    std::size_t begin = 0;
    for (const std::size_t end : ends->second) {
        const Percentile segment = percentile(
            {values.begin() + static_cast<std::ptrdiff_t>(begin),
             values.begin() + static_cast<std::ptrdiff_t>(end)},
            p);
        if (!supported(segment))
            return pooled;
        per_segment.push_back(segment.value);
        begin = end;
    }
    pooled.value = median(per_segment);
    return pooled;
}

double
classP50(const Phase &phase)
{
    std::vector<double> p50s;
    for (const auto &[kind, values] : phase.latency_us)
        p50s.push_back(classPercentile(phase, kind, 0.50).value);
    return geomean(p50s);
}

void
finishResult(Result &result, const Args &args, const SetupLog &setups,
             const Phase &measured, double rss_mb, double throughput_fps,
             std::size_t throughput_samples, const LayerMetrics &layers,
             std::size_t min_samples)
{
    // p50_us and p99_us are geometric means over request classes of
    // each class's percentile, so every class weighs the same
    // whatever its rate; their sample count is the smallest class's.
    std::vector<double> p50s;
    std::vector<double> p99s;
    std::size_t fewest = 0;
    for (const auto &[kind, values] : measured.latency_us) {
        const Percentile p50 = classPercentile(measured, kind, 0.50);
        const Percentile p99 = classPercentile(measured, kind, 0.99);
        std::ostringstream line;
        line << args.workload << " " << kind << ": p50 " << p50.value
             << " us, p99 " << p99.value << " us (samples "
             << values.size() << ", " << p99.beyond << " beyond p99)";
        result.note(line.str());
        if (!args.trace && (values.size() < min_samples ||
                            !supported(p99)))
            result.note(args.workload + " " + kind + ": fewer than " +
                        std::to_string(min_samples) +
                        " samples, so its p99 is not supported");
        fewest = p50s.empty() ? values.size()
                              : std::min(fewest, values.size());
        p50s.push_back(p50.value);
        p99s.push_back(p99.value);
    }
    const auto [fastest, slowest] =
        std::minmax_element(setups.setup_s.begin(), setups.setup_s.end());
    result.note(args.workload + ": " + std::to_string(setups.count()) +
                " set-ups, fastest " + std::to_string(*fastest) +
                " s, slowest " + std::to_string(*slowest) + " s");

    if (!args.trace) {
        result.add("setup_s", "s", median(setups.setup_s),
                   setups.count());
        result.add("rss_mb", "MiB", rss_mb);
        result.add("throughput_fps", "frames/s", throughput_fps,
                   throughput_samples);
        result.add("p50_us", "us", geomean(p50s), fewest);
        result.add("p99_us", "us", geomean(p99s), fewest);
    } else {
        addLayerMetrics(result, setups, layers);
    }
    result.correct = result.correct && result.failed == 0;
}

} // namespace perfbench
