/**
 * @file
 * Workload `remote-mix`: the network front doors. An in-process
 * TcpServer serves a replicated 2-shard cluster (one worker thread
 * per shard) and an HttpGateway with one bearer-token tenant, whose
 * limits never refuse, sits in front of it. The models are small, so
 * wire, JSON, listener, gateway and session handling do the work.
 * Three closed-loop users share the daemon: `tcp://` infer, `http://`
 * infer, and an `http://` LSTM session stepping sequentially.
 */

#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include <unistd.h>

#include "common.hh"
#include "common/random.hh"
#include "engine/backend.hh"
#include "engine/lstm_session.hh"
#include "gateway/gateway.hh"
#include "gateway/http.hh"
#include "nn/generate.hh"
#include "obs/json.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace eie;
namespace fs = std::filesystem;

constexpr std::size_t kFcSize = 512;
constexpr double kFcDensity = 0.09;
constexpr std::size_t kX = 64; ///< LSTM per-step input
constexpr std::size_t kH = 64; ///< LSTM hidden state
constexpr double kLstmDensity = 0.25;
constexpr std::size_t kDistinctFrames = 64;
constexpr unsigned kSetups = 9;
constexpr unsigned kSegments = 3; ///< fresh daemons per untraced run
constexpr std::size_t kProbes = 300;
/** Sample capacity reserved per user per second of run: well above
 *  the rates a 4-core host reaches (below 10000), so no buffer
 *  grows mid-run. */
constexpr double kMaxRequestsPerS = 40000.0;
/** Replies of all users per throughput window, about 1 s. */
constexpr std::uint64_t kRateWindow = 5000;
constexpr char kToken[] = "perfbench-token";
constexpr char kFc[] = "fc512";
constexpr char kLstm[] = "lstm64";
const char *const kKinds[] = {"tcp", "http", "session"};

/** The daemon stack and its clients, from compressed weights on. */
struct Daemon
{
    std::string dir;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::shared_ptr<const serve::LoadedModel> fc;
    std::shared_ptr<const serve::LoadedModel> lstm;
    std::unique_ptr<serve::ServingDirectory> directory;
    std::unique_ptr<serve::TcpServer> server;
    std::unique_ptr<gateway::HttpGateway> gateway;
    std::unique_ptr<client::Client> tcp;
    std::unique_ptr<client::Client> http;
    std::unique_ptr<client::Session> session; ///< via http

    Frame first_tcp, first_http;
    nn::Vector first_h;
    bool ok = true;
    SetupTimes times;

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon()
    {
        if (session)
            session->close();
        if (tcp)
            tcp->close();
        if (http)
            http->close();
        if (gateway)
            gateway->stop();
        if (server)
            server->stop();
        if (directory)
            directory->stopAll();
        std::error_code ignored;
        fs::remove_all(dir, ignored);
    }

    std::string
    tcpEndpoint() const
    {
        return "tcp://127.0.0.1:" + std::to_string(server->port());
    }
};

std::unique_ptr<Daemon>
setUp(const core::EieConfig &config, const std::string &dir,
      const nn::SparseMatrix &fc_weights,
      const nn::SparseMatrix &lstm_weights, const Frame &first_frame,
      const nn::Vector &first_x)
{
    auto daemon = std::make_unique<Daemon>();
    daemon->dir = dir;
    SetupTimes &times = daemon->times;
    const auto start = Clock::now();
    compress::CompressionOptions options;
    options.interleave.n_pe = config.n_pe;
    const auto fc = compress::CompressedLayer::compress(kFc, fc_weights,
                                                        options);
    const auto lstm = compress::CompressedLayer::compress(
        kLstm, lstm_weights, options);
    const auto compressed = Clock::now();
    times.encode_s = microsBetween(start, compressed) * 1e-6;

    daemon->registry =
        std::make_unique<serve::ModelRegistry>(dir, config);
    daemon->registry->publish(kFc, 1, fc.storage());
    daemon->registry->publish(kLstm, 1, lstm.storage());
    const auto published = Clock::now();
    daemon->fc = daemon->registry->load(kFc);
    daemon->lstm =
        daemon->registry->load(kLstm, 0, nn::Nonlinearity::None);
    times.plan_s = secondsSince(published);
    times.registry_s = secondsSince(compressed);
    if (!daemon->fc || !daemon->lstm) {
        daemon->ok = false;
        return daemon;
    }

    times.rss_before_mib = rssMiB();
    const auto build = Clock::now();
    serve::ClusterOptions cluster;
    cluster.shards = 2;
    cluster.placement = serve::Placement::Replicated;
    cluster.threads_per_shard = 1;
    daemon->directory = std::make_unique<serve::ServingDirectory>(
        *daemon->registry, cluster);
    daemon->server =
        std::make_unique<serve::TcpServer>(*daemon->directory);
    daemon->server->start();

    client::Status status;
    gateway::GatewayOptions gateway_options;
    gateway_options.client.config = config;
    daemon->gateway = gateway::HttpGateway::create(
        daemon->tcpEndpoint(), gateway_options, status);
    if (!daemon->gateway) {
        daemon->ok = false;
        return daemon;
    }
    daemon->gateway->tenants().load(gateway::loadTenantConfigs(
        std::string(R"({"tenants":[{"name":"bench","token":")") +
        kToken + R"("}]})"));

    client::ClientOptions client_options;
    client_options.config = config;
    daemon->tcp = client::Client::connect(daemon->tcpEndpoint(),
                                          client_options, status);
    daemon->http = client::Client::connect(
        "http://127.0.0.1:" + std::to_string(daemon->gateway->port()) +
            ",token=" + kToken,
        client_options, status);
    if (!daemon->tcp || !daemon->http) {
        daemon->ok = false;
        return daemon;
    }
    daemon->session = daemon->http->openSession(kLstm, 0, status);
    if (!daemon->session) {
        daemon->ok = false;
        return daemon;
    }
    // First replies build both clusters (load, plan, compile).
    const client::InferenceResult via_tcp =
        daemon->tcp->inferRaw(kFc, first_frame);
    const client::InferenceResult via_http =
        daemon->http->inferRaw(kFc, first_frame);
    const client::Session::StepResult step =
        daemon->session->step(first_x);
    daemon->ok = via_tcp.ok() && via_http.ok() && step.ok();
    if (daemon->ok) {
        daemon->first_tcp = via_tcp.outputs[0];
        daemon->first_http = via_http.outputs[0];
        daemon->first_h = step.h;
    }
    times.compile_s = secondsSince(build);
    times.setup_s = secondsSince(start);
    return daemon;
}

/** The bits of @p h, hashed: the replay compares it bit for bit
 *  without keeping every hidden state of the run. */
std::uint64_t
hashOf(const nn::Vector &h)
{
    std::uint64_t hash = 1469598103934665603ull; // FNV-1a
    for (const float value : h) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        for (int byte = 0; byte < 4; ++byte)
            hash = (hash ^ ((bits >> (8 * byte)) & 0xffu)) *
                1099511628211ull;
    }
    return hash;
}

/**
 * Run the three closed-loop users for @p seconds, checking every
 * infer reply against @p oracle. Latencies and the session's steps go
 * into @p phase's buffers; with @p detail the request spans and
 * submit times are kept too.
 */
Phase
runUsers(Daemon &daemon, double seconds, const std::vector<Frame> &frames,
         const std::vector<Frame> &oracle,
         const std::vector<nn::Vector> &xs, std::size_t &next_x,
         Phase phase, bool detail)
{
    struct User
    {
        std::vector<double> latency_us;
        std::vector<RequestSpan> requests;
        std::vector<double> submit_us;
        std::uint64_t sent = 0;
        std::uint64_t failed = 0;
    };
    User users[3];
    for (std::size_t u = 0; u < 3; ++u)
        users[u].latency_us = std::move(phase.latency_us[kKinds[u]]);
    RateWindows rates(kRateWindow);
    const auto end = Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

    const auto infer = [&](User &user, client::Client &client,
                           const char *kind, std::size_t offset) {
        for (std::size_t i = offset; Clock::now() < end; ++i) {
            const std::size_t f = i % frames.size();
            client::InferenceRequest request;
            request.model = kFc;
            request.fixed.push_back(frames[f]);
            const auto sent = Clock::now();
            auto future = client.submit(std::move(request));
            const auto submitted = Clock::now();
            const client::InferenceResult result = future.get();
            const auto ready = Clock::now();
            ++user.sent;
            if (!result.ok() || result.outputs[0] != oracle[f]) {
                ++user.failed;
                continue;
            }
            user.latency_us.push_back(microsBetween(sent, ready));
            rates.count(ready);
            if (!detail)
                continue;
            user.submit_us.push_back(microsBetween(sent, submitted));
            RequestSpan span;
            span.trace_id = result.trace_ids[0];
            span.kind = kind;
            span.start_us = obs::traceTimeUs(sent);
            span.end_us = obs::traceTimeUs(ready);
            span.submit_start_us = span.start_us;
            span.submit_us = user.submit_us.back();
            user.requests.push_back(std::move(span));
        }
    };
    std::thread tcp_user(
        [&] { infer(users[0], *daemon.tcp, kKinds[0], 0); });
    std::thread http_user([&] {
        infer(users[1], *daemon.http, kKinds[1], frames.size() / 2);
    });
    std::thread session_user([&] {
        User &user = users[2];
        while (Clock::now() < end) {
            const std::size_t x = next_x++ % xs.size();
            const auto sent = Clock::now();
            const client::Session::StepResult step =
                daemon.session->step(xs[x]);
            const auto ready = Clock::now();
            ++user.sent;
            if (!step.ok()) {
                // A failed step leaves the state unchanged; it is
                // counted and not replayed.
                ++user.failed;
                continue;
            }
            phase.step_inputs.push_back(x);
            phase.step_hashes.push_back(hashOf(step.h));
            user.latency_us.push_back(microsBetween(sent, ready));
            rates.count(ready);
            if (!detail)
                continue;
            RequestSpan span;
            span.trace_id = step.trace_id;
            span.kind = kKinds[2];
            span.start_us = obs::traceTimeUs(sent);
            span.end_us = obs::traceTimeUs(ready);
            span.submit_start_us = span.start_us;
            user.requests.push_back(std::move(span));
        }
    });
    tcp_user.join();
    http_user.join();
    session_user.join();

    const std::vector<double> window_rates = rates.rates();
    phase.rates.insert(phase.rates.end(), window_rates.begin(),
                       window_rates.end());
    for (std::size_t u = 0; u < 3; ++u) {
        User &user = users[u];
        phase.latency_us[kKinds[u]] = std::move(user.latency_us);
        phase.requests.insert(phase.requests.end(),
                              user.requests.begin(),
                              user.requests.end());
        phase.submit_us.insert(phase.submit_us.end(),
                               user.submit_us.begin(),
                               user.submit_us.end());
        phase.sent += user.sent;
        phase.failed += user.failed;
    }
    return phase;
}

/** The scalar-backend replay of one session's committed steps. */
class SessionReplay
{
  public:
    SessionReplay(const core::EieConfig &config,
                  const serve::LoadedModel &lstm)
        : scalar_(engine::makeBackend("scalar", config, {&lstm.plan()}))
    {
        std::string error;
        if (engine::LstmShape::derive(lstm.inputSize(),
                                      lstm.outputSize(), shape_, error))
            session_ = std::make_unique<engine::LstmSession>(config,
                                                             shape_);
    }

    /** Replay steps [from, inputs.size()) in order; returns how many
     *  hidden states differ from @p hashes. */
    std::uint64_t
    check(const std::vector<std::size_t> &inputs,
          const std::vector<std::uint64_t> &hashes, std::size_t from,
          const std::vector<nn::Vector> &xs)
    {
        if (!session_)
            return inputs.size() - from;
        std::uint64_t mismatched = 0;
        for (std::size_t i = from; i < inputs.size(); ++i) {
            const nn::Vector h =
                session_->step(xs[inputs[i]], [&](Frame packed) {
                    return scalar_->run(packed).outputs[0];
                });
            if (hashOf(h) != hashes[i])
                ++mismatched;
        }
        return mismatched;
    }

  private:
    std::unique_ptr<engine::ExecutionBackend> scalar_;
    engine::LstmShape shape_;
    std::unique_ptr<engine::LstmSession> session_;
};

/** Daemon-side numbers: every cluster's shards and the gateway.
 *  Sheds, drops and refusals count as failed requests. */
void
readDaemonStats(Daemon &daemon, LayerMetrics &layers, Result &result)
{
    double batched = 0.0;
    double requests = 0.0;
    double shed = 0.0;
    double dropped = 0.0;
    double deepest = 0.0;
    double skew = 1.0;
    for (const auto &snapshot : daemon.directory->statsSnapshot()) {
        const serve::ClusterStats &stats = snapshot.stats;
        batched += stats.mean_batch * static_cast<double>(stats.requests);
        requests += static_cast<double>(stats.requests);
        shed += static_cast<double>(stats.requests_shed);
        dropped += static_cast<double>(stats.dropped_deadline);
        double most = 0.0;
        double fewest = -1.0;
        for (const serve::ShardStats &shard : stats.shards) {
            const double served =
                static_cast<double>(shard.server.requests);
            deepest = std::max(
                deepest,
                static_cast<double>(shard.server.max_queue_depth));
            most = std::max(most, served);
            fewest = fewest < 0.0 ? served : std::min(fewest, served);
        }
        if (fewest > 0.0)
            skew = std::max(skew, most / fewest);
    }
    double refused = 0.0;
    try {
        const obs::JsonValue stats =
            obs::parseJson(daemon.gateway->statsJson());
        if (const obs::JsonValue *gw = stats.find("gateway"))
            refused = gw->numberOr("rejected", 0.0);
    } catch (const std::exception &) {
        ++result.failed;
        result.note("remote-mix: unreadable gateway stats");
    }
    layers.engine_mean_batch = requests > 0.0 ? batched / requests : 0.0;
    layers.engine_max_queue_depth = deepest;
    layers.engine_shed = shed;
    layers.engine_dropped = dropped;
    layers.serve_shard_skew = skew;
    layers.gateway_refused = refused;
    result.failed += static_cast<std::uint64_t>(shed + dropped + refused);
}

/** Sequential probes of one layer each on the idle daemon. */
void
probeDaemon(Daemon &daemon, const std::vector<Frame> &frames,
            const std::vector<Frame> &oracle,
            const std::vector<nn::Vector> &xs, LayerMetrics &layers,
            Result &result)
{
    try {
        serve::TcpClient tcp("127.0.0.1", daemon.server->port());
        for (std::size_t i = 0; i < kProbes; ++i) {
            const std::size_t f = i % frames.size();
            const auto start = Clock::now();
            const Frame output = tcp.infer(kFc, frames[f]);
            layers.serve_tcp_rtt_us.push_back(
                microsBetween(start, Clock::now()));
            ++result.attempted;
            if (output != oracle[f])
                ++result.failed;
        }
        const std::uint64_t session = tcp.nextSessionId();
        if (!tcp.openSession(session, kLstm).get().ok)
            throw std::runtime_error("probe session refused");
        for (std::size_t i = 0; i < kProbes; ++i) {
            const nn::Vector &x = xs[i % xs.size()];
            const auto start = Clock::now();
            const serve::wire::SessionState state =
                tcp.submitStep(session, std::vector<float>(x)).get();
            layers.serve_step_rtt_us.push_back(
                microsBetween(start, Clock::now()));
            ++result.attempted;
            if (!state.ok)
                ++result.failed;
        }
        tcp.closeSession(session);
        tcp.close();

        gateway::HttpClientConnection http("127.0.0.1",
                                           daemon.gateway->port());
        const std::vector<std::pair<std::string, std::string>> headers =
            {{"Authorization", std::string("Bearer ") + kToken},
             {"Content-Type", "application/json"}};
        for (std::size_t i = 0; i < kProbes; ++i) {
            obs::JsonWriter body;
            body.beginObject().field("model", std::string(kFc));
            body.key("frames").beginArray().beginArray();
            for (const std::int64_t value : frames[i % frames.size()])
                body.value(value);
            body.endArray().endArray().endObject();
            const std::string text = body.str();
            const auto start = Clock::now();
            const gateway::HttpParsedResponse response =
                http.roundTrip("POST", "/v1/infer", headers, text);
            layers.gateway_rtt_us.push_back(
                microsBetween(start, Clock::now()));
            ++result.attempted;
            if (response.status != 200)
                ++result.failed;
        }
    } catch (const std::exception &error) {
        ++result.failed;
        result.note(std::string("remote-mix: probe failed: ") +
                    error.what());
    }
}

} // namespace

Result
runRemoteMix(const Args &args)
{
    Result result;
    const core::EieConfig config;
    const nn::SparseMatrix fc_weights =
        randomWeights(kFcSize, kFcSize, kFcDensity,
                      subSeed(args.seed, "weights/fc512"));
    const nn::SparseMatrix lstm_weights =
        randomWeights(4 * kH, kX + kH + 1, kLstmDensity,
                      subSeed(args.seed, "weights/lstm64"));
    const std::vector<Frame> frames =
        makeFrames(config, kDistinctFrames, kFcSize, 0.35,
                   subSeed(args.seed, "frames/fc512"));
    std::vector<nn::Vector> xs;
    {
        Rng rng(subSeed(args.seed, "frames/lstm64"));
        for (std::size_t i = 0; i < kDistinctFrames; ++i)
            xs.push_back(nn::makeActivations(kX, 0.8, rng));
    }
    const std::string dir_prefix = args.out_dir + "/registry-" +
        std::to_string(::getpid()) + "-";

    // Untraced runs measure on kSegments fresh daemons in turn, so
    // one daemon's thread placement does not set the whole result.
    const unsigned segments = args.trace ? 1 : kSegments;
    const double segment_s = args.seconds / segments;

    // The measured sample buffers are resident before the RSS
    // baseline, so the samples do not count as program memory.
    const auto capacity =
        static_cast<std::size_t>(kMaxRequestsPerS * args.seconds);
    Phase measured;
    for (const char *kind : kKinds)
        measured.latency_us[kind] = residentBuffer<double>(capacity);
    measured.step_inputs = residentBuffer<std::size_t>(capacity);
    measured.step_hashes = residentBuffer<std::uint64_t>(capacity);

    SetupLog setups;
    std::vector<Frame> oracle;
    LayerMetrics layers;
    double rss_mb = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t mismatched = 0;
    for (unsigned s = 0; s < segments; ++s) {
        const std::unique_ptr<Daemon> daemon =
            setUp(config, dir_prefix + std::to_string(s), fc_weights,
                  lstm_weights, frames[0], xs[0]);
        if (!daemon->ok) {
            result.correct = false;
            result.note("remote-mix: daemon set-up failed");
            return result;
        }
        setups.record(daemon->times);
        if (oracle.empty())
            oracle = scalarOracle(config, {&daemon->fc->plan()}, frames);
        result.attempted += 3;
        if (daemon->first_tcp != oracle[0])
            ++result.failed;
        if (daemon->first_http != oracle[0])
            ++result.failed;

        // This daemon's session, replayed from its first step on.
        SessionReplay replay(config, *daemon->lstm);
        mismatched +=
            replay.check({0}, {hashOf(daemon->first_h)}, 0, xs);
        ++steps;
        std::size_t next_x = 1;
        const auto checkSteps = [&](const Phase &phase,
                                    std::size_t from) {
            mismatched += replay.check(phase.step_inputs,
                                       phase.step_hashes, from, xs);
            steps += phase.step_inputs.size() - from;
        };
        const auto run = [&](double seconds, Phase buffers,
                             bool detail) {
            const std::size_t from = buffers.step_inputs.size();
            Phase phase = runUsers(*daemon, seconds, frames, oracle, xs,
                                   next_x, std::move(buffers), detail);
            checkSteps(phase, from);
            return phase;
        };

        const Phase warmup = run(0.5, {}, false);
        result.attempted += warmup.sent;
        result.failed += warmup.failed;

        if (!args.trace) {
            measured = run(segment_s, std::move(measured), false);
            measured.endSegment();
        } else
            // tcp infers and session steps carry their trace id to
            // the daemon (shard_submit plus the four engine spans);
            // the http transport does not forward infer trace ids.
            measured = runTraced(
                args, run, {{"tcp", 5}, {"session", 5}, {"http", 0}},
                layers, result);

        readDaemonStats(*daemon, layers, result);
        // Growth of the first daemon, built in a fresh process.
        if (s == 0)
            rss_mb = rssMiB() - daemon->times.rss_before_mib;
        if (args.trace)
            probeDaemon(*daemon, frames, oracle, xs, layers, result);
    }
    result.attempted += measured.sent;
    result.failed += measured.failed + mismatched;
    result.note("remote-mix: " + std::to_string(steps) +
                " session steps replayed on the scalar backend, " +
                std::to_string(mismatched) + " mismatched");

    while (setups.count() < kSetups) {
        const std::unique_ptr<Daemon> daemon =
            setUp(config, dir_prefix + std::to_string(setups.count()),
                  fc_weights, lstm_weights, frames[0], xs[0]);
        if (!daemon->ok) {
            result.correct = false;
            return result;
        }
        setups.record(daemon->times);
    }

    // The median rate of all three users over windows of kRateWindow
    // replies.
    finishResult(result, args, setups, measured, rss_mb,
                 median(measured.rates), measured.rates.size(), layers,
                 1000);
    return result;
}

} // namespace perfbench
