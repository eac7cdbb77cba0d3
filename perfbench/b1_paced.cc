/**
 * @file
 * Workload `b1-paced`: latency-bound single-frame serving, the
 * paper's batch-1 case. One `local:` endpoint at threads=4 with auto
 * residency serves NT-We→NT-Wd ("nt-head", kept decoded) and Alex-7
 * ("alex7", kept compressed) to seeded open-loop Poisson arrivals,
 * split evenly between the two models. Each request is timed from
 * when it was due, so a stalled generator shows up as latency.
 */

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "common.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace eie;

/** Total arrival rate: at about 1 frame per batch the batch-1 kernel
 *  paths do the work, and 2 x 1000 samples fit in a 25 s run. */
constexpr double kRatePerS = 90.0;
constexpr std::size_t kDistinctFrames = 64;
constexpr std::size_t kWarmupPerModel = 20;
constexpr unsigned kSetups = 5;
constexpr unsigned kSegments = 3; ///< fresh endpoints per untraced run
constexpr char kEndpoint[] = "local:compiled,threads=4,residency=auto";
constexpr unsigned kThreads = 4;

const std::vector<std::string> kLayers = {"NT-We", "NT-Wd", "Alex-7"};
const std::vector<double> kActDensity = {1.0, 1.0, 0.353};
const std::vector<LocalModelSpec> kModels = {{"nt-head", {0, 1}},
                                             {"alex7", {2}}};

/** One request stream's in-flight replies, collected in order. */
struct Stream
{
    struct Pending
    {
        std::future<client::InferenceResult> future;
        Clock::time_point due;
        double submit_start_us = 0.0;
        double submit_us = 0.0;
        std::size_t frame = 0;
    };

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool done = false;
};

/**
 * Drive the arrivals of @p schedule due before @p seconds open loop:
 * the calling thread sends, one collector thread per model waits for
 * replies (each model's server answers in order) and checks them
 * against @p oracle. Latencies go into @p phase's buffers; with
 * @p detail the request spans, lags and submit times are kept too.
 */
Phase
runPaced(client::Client &client, const std::vector<Arrival> &schedule,
         double seconds, const std::vector<std::vector<Frame>> &frames,
         const std::vector<std::vector<Frame>> &oracle, Phase phase,
         bool detail)
{
    std::vector<Stream> streams(kModels.size());
    std::mutex result_mutex;

    const auto collect = [&](std::size_t m) {
        Stream &stream = streams[m];
        for (;;) {
            Stream::Pending pending;
            {
                std::unique_lock<std::mutex> lock(stream.mutex);
                stream.cv.wait(lock, [&] {
                    return stream.done || !stream.pending.empty();
                });
                if (stream.pending.empty())
                    return;
                pending = std::move(stream.pending.front());
                stream.pending.pop_front();
            }
            const client::InferenceResult result =
                pending.future.get();
            const auto ready = Clock::now();
            const bool good = result.ok() &&
                result.outputs[0] == oracle[m][pending.frame];
            std::lock_guard<std::mutex> lock(result_mutex);
            if (!good) {
                ++phase.failed;
                continue;
            }
            phase.latency_us[kModels[m].name].push_back(
                microsBetween(pending.due, ready));
            if (!detail)
                continue;
            RequestSpan span;
            span.trace_id = result.trace_ids[0];
            span.kind = kModels[m].name;
            span.start_us = obs::traceTimeUs(pending.due);
            span.end_us = obs::traceTimeUs(ready);
            span.submit_start_us = pending.submit_start_us;
            span.submit_us = pending.submit_us;
            phase.requests.push_back(std::move(span));
        }
    };
    std::vector<std::thread> collectors;
    for (std::size_t m = 0; m < kModels.size(); ++m)
        collectors.emplace_back(collect, m);

    std::vector<std::size_t> next_frame(kModels.size(), 0);
    const auto start = Clock::now();
    for (const Arrival &arrival : schedule) {
        if (arrival.due_s >= seconds)
            break;
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrival.due_s));
        std::this_thread::sleep_until(due);
        const unsigned m = arrival.stream;
        Stream::Pending pending;
        pending.due = due;
        pending.frame = next_frame[m]++ % frames[m].size();
        client::InferenceRequest request;
        request.model = kModels[m].name;
        request.fixed.push_back(frames[m][pending.frame]);
        const auto sent = Clock::now();
        pending.future = client.submit(std::move(request));
        const auto submitted = Clock::now();
        pending.submit_start_us = obs::traceTimeUs(sent);
        pending.submit_us = microsBetween(sent, submitted);
        if (detail) {
            phase.lag_us.push_back(microsBetween(due, sent));
            phase.submit_us.push_back(pending.submit_us);
        }
        ++phase.sent;
        {
            std::lock_guard<std::mutex> lock(streams[m].mutex);
            streams[m].pending.push_back(std::move(pending));
        }
        streams[m].cv.notify_one();
    }
    for (Stream &stream : streams) {
        {
            std::lock_guard<std::mutex> lock(stream.mutex);
            stream.done = true;
        }
        stream.cv.notify_one();
    }
    for (std::thread &collector : collectors)
        collector.join();
    phase.seconds += secondsSince(start);
    return phase;
}

} // namespace

Result
runB1Paced(const Args &args)
{
    Result result;
    const core::EieConfig config;
    std::vector<nn::SparseMatrix> weights;
    for (const std::string &layer : kLayers)
        weights.push_back(suiteWeights(layer, args.seed));
    std::vector<std::vector<Frame>> frames;
    for (const LocalModelSpec &model : kModels)
        frames.push_back(makeFrames(
            config, kDistinctFrames, 4096,
            kActDensity[model.layers.front()],
            subSeed(args.seed, "frames/" + model.name)));
    const std::vector<Frame> first_frames = {frames[0][0],
                                             frames[1][0]};

    // Untraced runs measure on kSegments fresh endpoints in turn, so
    // one endpoint's thread placement does not set the whole result.
    const unsigned segments = args.trace ? 1 : kSegments;
    const double segment_s = args.seconds / segments;
    std::vector<std::vector<Arrival>> schedules;
    std::size_t arrivals = 0;
    for (unsigned s = 0; s < segments; ++s) {
        schedules.push_back(poissonSchedule(
            subSeed(args.seed, "arrivals/" + std::to_string(s)),
            kRatePerS, segment_s,
            static_cast<unsigned>(kModels.size())));
        arrivals += schedules.back().size();
    }

    // The measured latency buffers are resident before the RSS
    // baseline, so the samples do not count as program memory.
    Phase measured;
    for (const LocalModelSpec &model : kModels)
        measured.latency_us[model.name] =
            residentBuffer<double>(arrivals / kModels.size() + 1);

    SetupLog setups;
    std::vector<std::vector<Frame>> oracle;
    LayerMetrics layers;
    double rss_mb = 0.0;
    for (unsigned s = 0; s < segments; ++s) {
        const std::unique_ptr<LocalEndpoint> endpoint =
            setUpLocal(config, kEndpoint, {}, kLayers, weights, kModels,
                       first_frames);
        if (!endpoint->ok) {
            result.correct = false;
            result.note("b1-paced: endpoint set-up failed");
            return result;
        }
        setups.record(endpoint->times);

        // Oracle outputs of every distinct frame, outside any timing.
        if (oracle.empty())
            for (std::size_t m = 0; m < kModels.size(); ++m)
                oracle.push_back(scalarOracle(
                    config, endpoint->plans(kModels[m]), frames[m]));
        client::Client &client = *endpoint->client;
        for (std::size_t m = 0; m < kModels.size(); ++m) {
            ++result.attempted;
            if (endpoint->first_replies[m] != oracle[m][0])
                ++result.failed;
            for (std::size_t i = 0; i < kWarmupPerModel; ++i) {
                const std::size_t f = i % frames[m].size();
                const client::InferenceResult reply =
                    client.inferRaw(kModels[m].name, frames[m][f]);
                ++result.attempted;
                if (!reply.ok() || reply.outputs[0] != oracle[m][f])
                    ++result.failed;
            }
        }

        const auto run = [&](double seconds, Phase buffers,
                             bool detail) {
            return runPaced(client, schedules[s], seconds, frames,
                            oracle, std::move(buffers), detail);
        };
        if (!args.trace) {
            measured = run(segment_s, std::move(measured), false);
            measured.endSegment();
        } else
            measured = runTraced(args, run,
                                 {{"nt-head", 4}, {"alex7", 4}},
                                 layers, result);

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
                    core::kernel::Residency::Auto,
                    makeFrames(config, 1, plan.input_size,
                               kActDensity[i],
                               subSeed(args.seed, "probe")),
                    0.5);
            }
    }
    result.attempted += measured.sent;
    result.failed += measured.failed;

    while (setups.count() < kSetups) {
        const std::unique_ptr<LocalEndpoint> endpoint =
            setUpLocal(config, kEndpoint, {}, kLayers, weights, kModels,
                       first_frames);
        if (!endpoint->ok) {
            result.correct = false;
            return result;
        }
        setups.record(endpoint->times);
    }

    // Open loop: the achieved rate tracks the offered one while the
    // endpoint keeps up, and falls behind when it does not.
    finishResult(result, args, setups, measured, rss_mb,
                 static_cast<double>(measured.sent - measured.failed) /
                     measured.seconds,
                 measured.sent, layers, 1000);
    return result;
}

} // namespace perfbench
