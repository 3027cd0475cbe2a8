#include "shard_exchange.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "campaign/checkpoint.hh"
#include "obs/trace.hh"

namespace davf {

namespace {

constexpr double kHeartbeatIntervalMs = 200.0;

/** How long a worker's read waits before re-polling an idle link. */
constexpr double kIdlePollMs = 1000.0;

uint64_t
fnv1a(std::string_view text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Sends "hb" frames while a shard computes, so the dispatcher can tell
 * a slow shard from a dead worker. Frame writes from this thread and
 * the reply path share one mutex: frames must never interleave.
 */
class Heartbeat
{
  public:
    Heartbeat(FrameConn &the_conn, std::mutex &the_mutex)
        : conn(the_conn), writeMutex(the_mutex)
    {
        thread = std::thread([this] { run(); });
    }

    ~Heartbeat()
    {
        done.store(true, std::memory_order_relaxed);
        thread.join();
    }

  private:
    void
    run()
    {
        double last_beat = steadyNowMs();
        while (!done.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            if (steadyNowMs() - last_beat < kHeartbeatIntervalMs)
                continue;
            last_beat = steadyNowMs();
            try {
                const std::lock_guard<std::mutex> lock(writeMutex);
                conn.send("hb");
            } catch (const DavfError &) {
                return; // The dispatcher hung up; stop beating.
            }
        }
    }

    FrameConn &conn;
    std::mutex &writeMutex;
    std::atomic<bool> done{false};
    std::thread thread;
};

/** The " rss <kb> <user> <sys>" reply suffix: this process's rusage. */
std::string
selfRusageSuffix()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, " rss %ld %.3f %.3f",
                  ru.ru_maxrss,
                  static_cast<double>(ru.ru_utime.tv_sec)
                      + static_cast<double>(ru.ru_utime.tv_usec) * 1e-6,
                  static_cast<double>(ru.ru_stime.tv_sec)
                      + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6);
    return buffer;
}

/** Compute one shard into its reply frame, heartbeating meanwhile. */
std::string
computeReply(VulnerabilityEngine &engine, const Structure &structure,
             const ShardSpec &spec, FrameConn &conn,
             std::mutex &write_mutex)
{
    SamplingConfig sampling = spec.sampling;
    sampling.threads = 1;
    try {
        const Heartbeat heartbeat(conn, write_mutex);
        if (spec.kind == ShardSpec::Kind::Cycle) {
            const InjectionCycleOutcome out = engine.delayAvfCycle(
                structure, spec.delayFraction, spec.cycle, sampling,
                spec.wireBegin, spec.wireEnd, spec.quarantined);
            return "ok davf " + serializeOutcomeFields(out)
                + selfRusageSuffix();
        }
        const SavfResult out = engine.savf(structure, sampling);
        return "ok savf " + serializeSavfFields(out) + selfRusageSuffix();
    } catch (const std::bad_alloc &) {
        ::_exit(kOomExitCode);
    } catch (const DavfError &error) {
        return std::string("err ") + std::string(errorKindName(error.kind()))
            + " " + error.what();
    } catch (const std::exception &error) {
        return std::string("err exception ") + error.what();
    }
}

/**
 * True when @p a and @p b may share one engine delay sweep: the same
 * delay list under the same serialized sampling fields.
 */
bool
sameSweep(const ShardSpec &a, const ShardSpec &b)
{
    const SamplingConfig &x = a.sampling;
    const SamplingConfig &y = b.sampling;
    return a.sweep == b.sweep
        && std::tie(x.cycleFraction, x.maxInjectionCycles, x.maxWires,
                    x.maxFlops, x.seed, x.watchdogSlack,
                    x.injectionTimeoutMs, x.maxFailureRate, x.attribution)
        == std::tie(y.cycleFraction, y.maxInjectionCycles, y.maxWires,
                    y.maxFlops, y.seed, y.watchdogSlack,
                    y.injectionTimeoutMs, y.maxFailureRate, y.attribution);
}

} // namespace

DispatchMetrics::DispatchMetrics(const std::string &prefix)
    : dispatchSpan(prefix + ".dispatch"), backoffSpan(prefix + ".backoff"),
      dispatches(prefix + ".dispatches"), heartbeats(prefix + ".heartbeats"),
      backoffWaits(prefix + ".backoff_waits"),
      dispatchNs(prefix + ".time.dispatch_ns"),
      backoffNs(prefix + ".time.backoff_ns"),
      shardWallUs(prefix + ".shard_wall_us")
{}

bool
ShardAttempt::retryable() const
{
    return outcome == Outcome::Lost || outcome == Outcome::Timeout
        || outcome == Outcome::BadOutput || outcome == Outcome::Crash
        || outcome == Outcome::Oom;
}

const char *
ShardAttempt::outcomeName() const
{
    switch (outcome) {
    case Outcome::Ok: return "ok";
    case Outcome::Lost: return "lost";
    case Outcome::Timeout: return "timeout";
    case Outcome::BadOutput: return "bad-output";
    case Outcome::Error: return "error";
    case Outcome::Crash: return "crash";
    case Outcome::Oom: return "oom";
    case Outcome::Stopped: return "stopped";
    }
    return "?";
}

ShardAttempt
exchangeShard(FrameConn &conn, const ShardSpec &spec,
              const DispatchPolicy &policy,
              const DispatchMetrics &metrics)
{
    using Outcome = ShardAttempt::Outcome;
    const obs::Span span(metrics.dispatchSpan.c_str(), &metrics.dispatchNs);
    metrics.dispatches.add(1);

    ShardAttempt attempt;
    const double started = steadyNowMs();
    auto finish = [&](Outcome outcome, std::string detail) {
        attempt.outcome = outcome;
        attempt.detail = std::move(detail);
        attempt.wallMs = steadyNowMs() - started;
        metrics.shardWallUs.observe(
            static_cast<uint64_t>(attempt.wallMs * 1000.0));
        return attempt;
    };
    // No frame boundary to resume from: the connection is done.
    auto fail = [&](Outcome outcome, std::string detail) {
        conn.close();
        return finish(outcome, std::move(detail));
    };
    const double deadline = policy.shardTimeoutMs > 0.0
        ? started + policy.shardTimeoutMs
        : 0.0;
    auto over_budget = [&] {
        return "shard exceeded its " + std::to_string(policy.shardTimeoutMs)
            + " ms budget";
    };

    try {
        conn.send("shard " + serializeShardSpec(spec));
    } catch (const DavfError &error) {
        return fail(Outcome::Lost,
                    std::string("send failed: ") + error.what());
    }

    std::string frame;
    for (;;) {
        double budget = policy.heartbeatTimeoutMs;
        if (deadline > 0.0) {
            const double remaining = deadline - steadyNowMs();
            if (remaining <= 0.0)
                return fail(Outcome::Timeout, over_budget());
            budget = std::min(budget, remaining);
        }

        FrameConn::ReadStatus st;
        try {
            st = conn.read(frame, budget);
        } catch (const DavfError &error) {
            // A torn frame from a worker that hung up is a lost worker;
            // a corrupt prefix from one still talking is bad output.
            return fail(conn.peerClosed() ? Outcome::Lost
                                          : Outcome::BadOutput,
                        error.what());
        }
        if (st == FrameConn::ReadStatus::Eof)
            return fail(Outcome::Lost, "peer closed the connection mid-shard");
        if (st == FrameConn::ReadStatus::Timeout) {
            if (deadline > 0.0 && steadyNowMs() < deadline)
                continue; // With a shard deadline, only it ends the wait.
            return fail(Outcome::Timeout,
                        deadline > 0.0
                            ? over_budget()
                            : "no heartbeat within "
                                + std::to_string(policy.heartbeatTimeoutMs)
                                + " ms");
        }

        if (frame == "hb") {
            metrics.heartbeats.add(1);
            continue;
        }

        std::istringstream is(frame);
        std::string tag;
        is >> tag;
        if (tag == "err") {
            std::string kind;
            is >> kind;
            std::string message;
            std::getline(is, message);
            if (!message.empty() && message.front() == ' ')
                message.erase(0, 1);
            return finish(Outcome::Error, kind + ": " + message);
        }
        if (tag == "ok") {
            std::string what;
            is >> what;
            bool ok = false;
            if (what == "davf" && spec.kind == ShardSpec::Kind::Cycle)
                ok = parseOutcomeFields(is, attempt.cycleOutcome);
            else if (what == "savf" && spec.kind == ShardSpec::Kind::Savf)
                ok = parseSavfFields(is, attempt.savfOutcome);
            std::string rss_tag;
            if (ok && (is >> rss_tag) && rss_tag == "rss")
                is >> attempt.rssKb >> attempt.userSec >> attempt.sysSec;
            if (ok)
                return finish(Outcome::Ok, "");
        }
        // The frame arrived intact, so the stream is still in sync;
        // the payload is garbage.
        return finish(Outcome::BadOutput,
                      "unparseable reply: " + frame.substr(0, 120));
    }
}

double
retryBackoffMs(double base_ms, unsigned attempt, uint64_t seed,
               std::string_view key)
{
    if (base_ms <= 0.0)
        return 0.0;
    const double doubling = static_cast<double>(
        1u << std::min(attempt, kMaxBackoffDoublings));
    const uint64_t jitter = fnv1a(std::string(key) + ':'
                                  + std::to_string(attempt) + ':'
                                  + std::to_string(seed));
    return base_ms * doubling
        + static_cast<double>(jitter % 1000) / 1000.0 * base_ms;
}

std::string
backoffKey(const ShardSpec &spec)
{
    return spec.structure + ':' + std::to_string(spec.cycle);
}

void
backoffShard(const ShardSpec &spec, unsigned attempt,
             const DispatchPolicy &policy, const DispatchMetrics &metrics)
{
    if (policy.backoffBaseMs <= 0.0)
        return;
    const double delay_ms = retryBackoffMs(
        policy.backoffBaseMs, attempt, policy.seed, backoffKey(spec));
    metrics.backoffWaits.add(1);
    const obs::Span span(metrics.backoffSpan.c_str(), &metrics.backoffNs);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
}

void
drainUntilEof(FrameConn &conn, double budget_ms)
{
    const double deadline = steadyNowMs() + budget_ms;
    try {
        std::string frame;
        for (;;) {
            const double remaining = deadline - steadyNowMs();
            if (remaining <= 0.0
                || conn.read(frame, remaining)
                    != FrameConn::ReadStatus::Frame)
                return; // EOF (a clean exit), or a hung worker.
        }
    } catch (const DavfError &) {
        // A torn tail at shutdown is not worth reporting.
    }
}

ServeEnd
serveShards(VulnerabilityEngine &engine, const StructureRegistry &registry,
            FrameConn &conn, const ServeHooks &hooks)
{
    std::mutex write_mutex;
    auto send = [&](const std::string &payload) {
        const std::lock_guard<std::mutex> lock(write_mutex);
        conn.send(payload);
    };

    // Cross-delay reuse, as thread mode has it: cycle shards carrying
    // the campaign's sweep run inside one engine delay sweep, restarted
    // whenever the sweep or the sampling changes, and ended on exit.
    std::optional<ShardSpec> sweep_of; // The shard that began the sweep.
    struct SweepGuard {
        VulnerabilityEngine &engine;
        ~SweepGuard() { engine.endDelaySweep(); }
    } sweep_guard{engine};
    auto enter_sweep = [&](const ShardSpec &spec) {
        if (spec.kind != ShardSpec::Kind::Cycle
            || (sweep_of && sameSweep(*sweep_of, spec)))
            return;
        engine.endDelaySweep();
        sweep_of.reset();
        if (!spec.sweep.empty()) {
            engine.beginDelaySweep(spec.sweep);
            sweep_of = spec;
        }
    };

    std::string frame;
    for (;;) {
        const FrameConn::ReadStatus st = conn.read(frame, kIdlePollMs);
        if (st == FrameConn::ReadStatus::Timeout)
            continue; // Idle between shards.
        if (st == FrameConn::ReadStatus::Eof)
            return ServeEnd::PeerClosed;
        if (frame == "quit")
            return ServeEnd::Quit;
        if (frame.rfind("shard ", 0) != 0) {
            send("err bad-input unknown frame");
            continue;
        }
        Result<ShardSpec> parsed = parseShardSpec(frame.substr(6));
        if (!parsed) {
            send(std::string("err bad-input ") + parsed.error().what());
            continue;
        }
        const ShardSpec &spec = parsed.value();
        const Structure *structure = registry.find(spec.structure);
        if (!structure) {
            send("err not-found unknown structure '" + spec.structure
                 + "'");
            continue;
        }
        if (hooks.beforeShard && !hooks.beforeShard(spec))
            return ServeEnd::Abandoned;

        enter_sweep(spec);
        std::string reply =
            computeReply(engine, *structure, spec, conn, write_mutex);
        if (hooks.beforeReply && !hooks.beforeReply(reply))
            continue;
        send(reply);
    }
}

} // namespace davf
