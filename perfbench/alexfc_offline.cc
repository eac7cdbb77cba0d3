/**
 * @file
 * Workload `alexfc-offline`: the paper's headline AlexNet
 * FC6→FC7→FC8 stack served for throughput. One `local:` endpoint at
 * threads=4 with decoded residency and max_batch=64; one closed-loop
 * thread keeps a fixed window of single-frame requests in flight, so
 * the micro-batcher forms full batches and the vector MAC loop does
 * the work.
 */

#include <deque>
#include <future>

#include "common.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace eie;

constexpr std::size_t kMaxBatch = 64;
/** Requests in flight: one batch sweeping and two queued behind it,
 *  so every sweep finds a full batch waiting. With only one queued,
 *  refills that arrive after a sweep starts leave ragged batches and
 *  a tail latency that flips between two modes from run to run. */
constexpr std::size_t kWindow = 3 * kMaxBatch;
/** Sample capacity reserved per second of run: well above the rate
 *  a 4-core host reaches (about 700), so the buffer does not grow
 *  mid-run. */
constexpr double kMaxFramesPerS = 4000.0;
/** Replies per throughput window: ten full batches, about 1 s. */
constexpr std::uint64_t kRateWindow = 10 * kMaxBatch;
constexpr std::size_t kDistinctFrames = 64;
constexpr unsigned kSetups = 3;
constexpr unsigned kSegments = 3; ///< fresh endpoints per untraced run
constexpr char kEndpoint[] = "local:compiled,threads=4";
constexpr unsigned kThreads = 4;
constexpr char kModel[] = "alexfc";

const std::vector<std::string> kLayers = {"Alex-6", "Alex-7", "Alex-8"};
const std::vector<double> kActDensity = {0.351, 0.353, 0.375};
const std::vector<LocalModelSpec> kModels = {{kModel, {0, 1, 2}}};

/**
 * Closed loop for @p seconds: keep kWindow requests in flight,
 * replacing each as the oldest completes and checking every reply
 * against @p oracle. The requests still in flight at the end are
 * drained and checked but not timed. Latencies go into @p phase's
 * buffer; with @p detail the request spans and submit times are kept
 * too.
 */
Phase
runWindow(client::Client &client, double seconds,
          const std::vector<Frame> &frames,
          const std::vector<Frame> &oracle, std::size_t &next_frame,
          Phase phase, bool detail)
{
    struct Pending
    {
        std::future<client::InferenceResult> future;
        Clock::time_point sent;
        double submit_us = 0.0;
        std::size_t frame = 0;
    };
    std::deque<Pending> in_flight;
    std::vector<double> &latency_us = phase.latency_us[kModel];
    RateWindows rates(kRateWindow);
    const auto finish = [&](Pending &pending, bool timed) {
        const client::InferenceResult result = pending.future.get();
        const auto ready = Clock::now();
        if (!result.ok() ||
            result.outputs[0] != oracle[pending.frame]) {
            ++phase.failed;
            return;
        }
        if (!timed)
            return;
        rates.count(ready);
        latency_us.push_back(microsBetween(pending.sent, ready));
        if (!detail)
            return;
        RequestSpan span;
        span.trace_id = result.trace_ids[0];
        span.kind = kModel;
        span.start_us = obs::traceTimeUs(pending.sent);
        span.end_us = obs::traceTimeUs(ready);
        span.submit_start_us = span.start_us;
        span.submit_us = pending.submit_us;
        phase.requests.push_back(std::move(span));
    };

    const auto end = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
        while (in_flight.size() < kWindow) {
            Pending pending;
            pending.frame = next_frame++ % frames.size();
            client::InferenceRequest request;
            request.model = kModel;
            request.fixed.push_back(frames[pending.frame]);
            pending.sent = Clock::now();
            pending.future = client.submit(std::move(request));
            pending.submit_us =
                microsBetween(pending.sent, Clock::now());
            if (detail)
                phase.submit_us.push_back(pending.submit_us);
            ++phase.sent;
            in_flight.push_back(std::move(pending));
        }
        finish(in_flight.front(), true);
        in_flight.pop_front();
    }
    for (Pending &pending : in_flight)
        finish(pending, false);
    const std::vector<double> window_rates = rates.rates();
    phase.rates.insert(phase.rates.end(), window_rates.begin(),
                       window_rates.end());
    return phase;
}

} // namespace

Result
runAlexfcOffline(const Args &args)
{
    Result result;
    const core::EieConfig config;
    std::vector<nn::SparseMatrix> weights;
    for (const std::string &layer : kLayers)
        weights.push_back(suiteWeights(layer, args.seed));
    const std::vector<Frame> frames =
        makeFrames(config, kDistinctFrames, 9216, kActDensity[0],
                   subSeed(args.seed, "frames/alexfc"));

    // Untraced runs measure on kSegments fresh endpoints in turn, so
    // one endpoint's thread placement does not set the whole result.
    const unsigned segments = args.trace ? 1 : kSegments;
    const double segment_s = args.seconds / segments;

    // The measured latency buffer is resident before the RSS
    // baseline, so the samples do not count as program memory.
    Phase measured;
    measured.latency_us[kModel] = residentBuffer<double>(
        static_cast<std::size_t>(kMaxFramesPerS * args.seconds));

    engine::ServerOptions server;
    server.max_batch = kMaxBatch;
    SetupLog setups;
    std::vector<Frame> oracle;
    LayerMetrics layers;
    double rss_mb = 0.0;
    std::size_t next_frame = 0;
    for (unsigned s = 0; s < segments; ++s) {
        const std::unique_ptr<LocalEndpoint> endpoint =
            setUpLocal(config, kEndpoint, server, kLayers, weights,
                       kModels, {frames[0]});
        if (!endpoint->ok) {
            result.correct = false;
            result.note("alexfc-offline: endpoint set-up failed");
            return result;
        }
        setups.record(endpoint->times);
        if (oracle.empty())
            oracle = scalarOracle(config, endpoint->plans(kModels[0]),
                                  frames);
        ++result.attempted;
        if (endpoint->first_replies[0] != oracle[0])
            ++result.failed;

        client::Client &client = *endpoint->client;
        // Warm-up: let the adaptive forming window settle at full
        // batches before anything is timed.
        const Phase warmup = runWindow(client, 0.5, frames, oracle,
                                       next_frame, {}, false);
        result.attempted += warmup.sent;
        result.failed += warmup.failed;

        const auto run = [&](double seconds, Phase buffers,
                             bool detail) {
            return runWindow(client, seconds, frames, oracle,
                             next_frame, std::move(buffers), detail);
        };
        if (!args.trace) {
            measured = run(segment_s, std::move(measured), false);
            measured.endSegment();
        } else
            measured =
                runTraced(args, run, {{kModel, 4}}, layers, result);

        readLocalStats(client, layers, result, s == 0);
        // Growth of the first endpoint, built in a fresh process.
        if (s == 0)
            rss_mb = rssMiB() - endpoint->times.rss_before_mib;
        client.close();

        if (args.trace)
            for (std::size_t i = 0; i < kLayers.size(); ++i) {
                const core::LayerPlan &plan = endpoint->layers[i].plan;
                layers.kernels[kLayers[i]] = probeKernel(
                    config, plan, kThreads,
                    core::kernel::Residency::Decoded,
                    makeFrames(config, kMaxBatch, plan.input_size,
                               kActDensity[i],
                               subSeed(args.seed, "probe")),
                    0.5);
            }
    }
    result.attempted += measured.sent;
    result.failed += measured.failed;

    while (setups.count() < kSetups) {
        const std::unique_ptr<LocalEndpoint> endpoint =
            setUpLocal(config, kEndpoint, server, kLayers, weights,
                       kModels, {frames[0]});
        if (!endpoint->ok) {
            result.correct = false;
            return result;
        }
        setups.record(endpoint->times);
    }

    result.note("alexfc-offline: mean batch " +
                std::to_string(layers.engine_mean_batch));
    // The median rate over windows of kRateWindow replies.
    finishResult(result, args, setups, measured, rss_mb,
                 median(measured.rates), measured.rates.size(), layers,
                 0);
    return result;
}

} // namespace perfbench
