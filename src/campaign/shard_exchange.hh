/**
 * @file
 * The shard exchange both campaign dispatchers share.
 *
 * A shard (core/shard.hh) travels over one framed connection
 * (util/frame_conn.hh) whether the worker is a supervised child
 * process (campaign/supervisor.hh, `--isolate process`) or a TCP node
 * (net/coordinator.hh, `--isolate net`). This file holds the mechanism
 * of that conversation once:
 *
 *  - dispatcher side: exchangeShard() sends one shard and waits out
 *    its reply under a heartbeat window and an optional shard deadline,
 *    classifying every way the exchange can end; backoffShard() sleeps
 *    the one retry backoff (retryBackoffMs()); drainUntilEof() is the
 *    quit-then-drain shutdown step;
 *  - worker side: serveShards() is the one serve loop — one shard at a
 *    time, "hb" heartbeats while computing, replies in the journal
 *    token grammar so results aggregate bit-identically;
 *  - the ShardDispatcher interface both dispatchers implement, through
 *    which the cell runner (campaign/cell_runner.hh) hands them cells.
 *
 * Each dispatcher keeps only its policy: what a lost connection means
 * (a crashed child to classify by exit status, or a lost node to
 * retire), when to retry, and where a shard goes when retries run out.
 * docs/ROBUSTNESS.md ("The shard exchange") documents the frames, the
 * outcome taxonomy, and the backoff formula.
 */

#ifndef DAVF_CAMPAIGN_SHARD_EXCHANGE_HH
#define DAVF_CAMPAIGN_SHARD_EXCHANGE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/shard.hh"
#include "core/vulnerability.hh"
#include "netlist/structure.hh"
#include "obs/metrics.hh"
#include "util/frame_conn.hh"

namespace davf {

/** Exit code of a worker whose shard hit std::bad_alloc (its memory
 *  cap): the supervisor reads it as "oom", distinct from a crash. */
inline constexpr int kOomExitCode = 86;

/** Retry backoff stops doubling after this many attempts. */
inline constexpr unsigned kMaxBackoffDoublings = 10;

/**
 * One dispatcher's metric handles, all named under @p prefix
 * ("supervisor" or "net"; docs/OBSERVABILITY.md). Lives as long as
 * the process: the span names are handed to the tracer by pointer.
 */
struct DispatchMetrics
{
    explicit DispatchMetrics(const std::string &prefix);

    std::string dispatchSpan; ///< "<prefix>.dispatch": one exchange.
    std::string backoffSpan;  ///< "<prefix>.backoff": one retry sleep.
    obs::Counter dispatches;
    obs::Counter heartbeats;
    obs::Counter backoffWaits;
    obs::Counter dispatchNs;
    obs::Counter backoffNs;
    obs::ValueHistogram shardWallUs;
};

/**
 * The retry and deadline knobs both dispatchers take (`--max-retries`,
 * `--backoff-ms`, `--shard-timeout-ms`); SupervisorOptions and
 * net::CoordinatorOptions extend it with their own policy.
 */
struct DispatchPolicy
{
    /** Re-dispatch attempts per shard beyond the first. */
    unsigned maxRetries = 2;

    /** Base of the exponential retry backoff (retryBackoffMs). */
    double backoffBaseMs = 50.0;

    /** Without a shard budget, a worker silent for this long is
     *  presumed dead or hung. */
    double heartbeatTimeoutMs = 10000.0;

    /** Wall-clock budget from send to reply; 0 = unlimited. Catches
     *  hangs that keep heartbeating. */
    double shardTimeoutMs = 0.0;

    /** Deterministic backoff jitter seed. */
    uint64_t seed = 1;

    /** Cooperative stop flag; checked between attempts. */
    const std::atomic<bool> *stopFlag = nullptr;

    bool
    stopRequested() const
    {
        return stopFlag && stopFlag->load(std::memory_order_relaxed);
    }
};

/** One shard attempt and its classified outcome. */
struct ShardAttempt
{
    enum class Outcome : uint8_t {
        Ok,        ///< A well-formed reply arrived.
        Lost,      ///< The worker hung up: send failure, EOF, torn frame.
        Timeout,   ///< Heartbeat silence or the shard deadline expired.
        BadOutput, ///< An unparseable reply or a corrupt length prefix.
        Error,     ///< The worker reported a deterministic DavfError.
        Crash,     ///< A lost child process died (signal, nonzero exit).
        Oom,       ///< A lost child process exited with kOomExitCode.
        Stopped,   ///< The cooperative stop flag interrupted dispatch.
    };

    Outcome outcome = Outcome::Error;
    std::string detail;
    InjectionCycleOutcome cycleOutcome; ///< Valid for Ok cycle shards.
    SavfResult savfOutcome;             ///< Valid for Ok sAVF shards.
    double wallMs = 0.0; ///< Send to classification.
    long rssKb = 0;      ///< The worker's peak RSS and CPU seconds
    double userSec = 0.0; ///< (reply "rss" suffix, or the reaped
    double sysSec = 0.0;  ///< child's rusage).

    /** Another attempt may succeed (infrastructure, not the shard). */
    bool retryable() const;

    /** Stable lower-case name: "ok", "lost", "bad-output", ... */
    const char *outcomeName() const;
};

/**
 * Send @p spec as one "shard" frame on @p conn and wait out the reply.
 * Without a shard deadline every frame rearms @p policy's heartbeat
 * window; with one, the deadline (measured from the send) alone bounds
 * the wait. Every way the exchange ends is classified
 * into Ok, Lost, Timeout, BadOutput, or Error, and counted and timed
 * in @p metrics. On return conn.open() tells whether the connection
 * can carry another shard: Lost, Timeout, and a corrupt stream close
 * it; Ok, Error, and an intact but unparseable reply leave it open.
 */
ShardAttempt exchangeShard(FrameConn &conn, const ShardSpec &spec,
                           const DispatchPolicy &policy,
                           const DispatchMetrics &metrics);

/**
 * The one retry backoff, shared by both dispatchers and by TCP
 * connect retries: @p base_ms * 2^min(@p attempt, kMaxBackoffDoublings)
 * plus a deterministic jitter in [0, @p base_ms) hashed from
 * (@p key, @p attempt, @p seed) — no clock or RNG state, yet distinct
 * keys desynchronize their retries. 0 when @p base_ms <= 0.
 */
double retryBackoffMs(double base_ms, unsigned attempt, uint64_t seed,
                      std::string_view key);

/** The backoff key of a shard: "<structure>:<cycle>". */
std::string backoffKey(const ShardSpec &spec);

/**
 * Sleep retryBackoffMs(policy.backoffBaseMs, @p attempt, policy.seed,
 * backoffKey(@p spec)), counted and timed in @p metrics.
 */
void backoffShard(const ShardSpec &spec, unsigned attempt,
                  const DispatchPolicy &policy,
                  const DispatchMetrics &metrics);

/**
 * Discard frames on @p conn until EOF, @p budget_ms, or a stream
 * error — the step after sending "quit": a reply racing the quit is
 * consumed instead of being misread as a failure, and a worker blocked
 * writing it can finish and exit cleanly.
 */
void drainUntilEof(FrameConn &conn, double budget_ms);

/**
 * Where the cell runner (campaign/cell_runner.hh) sends the cycles it
 * cannot take from the result store: worker processes (Supervisor) or
 * TCP worker nodes (net::Coordinator).
 */
class ShardDispatcher
{
  public:
    /** One dispatched cell's outcome. */
    struct CellResult
    {
        bool failed = false; ///< A shard failed beyond repair.
        std::string failReason;
        bool stopped = false; ///< The stop flag interrupted the cell.
    };

    virtual ~ShardDispatcher() = default;

    /**
     * Compute the given injection cycles of one (structure, delay)
     * cell; each outcome goes to @p on_cycle_done (serialized; any
     * thread). @p sweep, shipped in every cycle shard, lets workers
     * reuse cross-delay work (empty = no sweep).
     */
    virtual CellResult runDavfCell(
        const std::string &structure, double delay_fraction,
        const std::vector<uint64_t> &cycles,
        const SamplingConfig &sampling,
        const std::function<void(const InjectionCycleOutcome &)>
            &on_cycle_done,
        const std::vector<double> &sweep) = 0;

    /** Compute one sAVF cell; @p out on success. */
    virtual CellResult runSavfCell(const std::string &structure,
                                   const SamplingConfig &sampling,
                                   SavfResult &out) = 0;
};

/** Test hooks a worker wraps around each shard (net/netfault.hh). */
struct ServeHooks
{
    /** Before computing a parsed shard; false abandons the connection. */
    std::function<bool(const ShardSpec &)> beforeShard;

    /** Last say over a computed reply; false drops it unsent. */
    std::function<bool(std::string &reply)> beforeReply;
};

/** How serveShards() ended. */
enum class ServeEnd : uint8_t {
    Quit,       ///< The dispatcher sent "quit".
    PeerClosed, ///< The dispatcher closed the connection.
    Abandoned,  ///< A beforeShard hook gave the connection up.
};

/**
 * The worker serve loop: answer "shard <spec>" frames on @p conn until
 * "quit", EOF, or an abandoning hook. One shard at a time, with
 * sampling.threads forced to 1 (inner threading would multiply workers
 * times threads); "hb" every 200 ms while computing; the reply is
 * "ok davf|savf <journal fields> rss <kb> <user> <sys>" or
 * "err <kind> <message>". std::bad_alloc exits the process with
 * kOomExitCode. Cycle shards that carry a sweep (ShardSpec::sweep) run
 * inside an engine delay sweep (VulnerabilityEngine::beginDelaySweep),
 * begun afresh whenever the sweep list or the sampling fields differ
 * from the previous cycle shard's; shards without one run with none;
 * the sweep ends when the loop returns. Throws DavfError if the
 * connection itself fails.
 */
ServeEnd serveShards(VulnerabilityEngine &engine,
                     const StructureRegistry &registry, FrameConn &conn,
                     const ServeHooks &hooks = {});

} // namespace davf

#endif // DAVF_CAMPAIGN_SHARD_EXCHANGE_HH
