#include "supervisor.hh"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/metrics.hh"
#include "util/atomic_file.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"

namespace davf {

namespace {

constexpr double kQuitGraceMs = 2000.0;
constexpr double kKillGraceMs = 500.0;

std::string
hexDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

bool
textToDouble(const std::string &text, double &out)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    out = std::strtod(begin, &end);
    return end == begin + text.size() && !text.empty();
}

uint64_t
fnv1a(const std::string &text, uint64_t hash = 0xcbf29ce484222325ull)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Supervisor metric handles (docs/OBSERVABILITY.md). In `--isolate
 * process` mode the engine's own counters live in the worker processes;
 * these cover the parent's view of shard lifecycle, retries, and
 * recovery churn.
 */
struct SupervisorMetrics
{
    DispatchMetrics dispatch{"supervisor"};
    obs::Counter workersSpawned{"supervisor.workers_spawned"};
    obs::Counter workersRetired{"supervisor.workers_retired"};
    obs::Counter retries{"supervisor.retries"};
    obs::Counter bisectProbes{"supervisor.bisect_probes"};
    obs::Counter quarantines{"supervisor.quarantines"};
    obs::Counter quarantineWriteFailures{
        "supervisor.quarantine_write_failures"};
    obs::Counter quarantineSkippedRecords{
        "supervisor.quarantine_skipped_records"};
};

SupervisorMetrics &
supervisorMetrics()
{
    static SupervisorMetrics *const metrics = new SupervisorMetrics();
    return *metrics;
}

} // namespace

std::string
serializeQuarantineRecord(const QuarantineRecord &record)
{
    std::ostringstream os;
    os << "davf-quarantine v1 " << record.configHash << ' '
       << record.benchmark << ' ' << record.structure << ' '
       << hexDouble(record.delayFraction) << ' ' << record.cycle << ' '
       << record.wireIndex << ' ' << record.wire << ' ' << record.seed
       << ' ' << record.reason;
    return os.str();
}

Result<QuarantineRecord>
parseQuarantineRecord(const std::string &text)
{
    using R = Result<QuarantineRecord>;
    std::istringstream is(text);
    std::string magic, version, delay;
    QuarantineRecord record;
    if (!(is >> magic >> version) || magic != "davf-quarantine"
        || version != "v1") {
        return R::Err(ErrorKind::BadInput,
                      "quarantine record: bad header: " + text);
    }
    if (!(is >> record.configHash >> record.benchmark >> record.structure
             >> delay >> record.cycle >> record.wireIndex >> record.wire
             >> record.seed)
        || !textToDouble(delay, record.delayFraction)) {
        return R::Err(ErrorKind::BadInput,
                      "quarantine record: bad fields: " + text);
    }
    std::getline(is, record.reason);
    if (!record.reason.empty() && record.reason.front() == ' ')
        record.reason.erase(0, 1);
    return R::Ok(std::move(record));
}

void
saveQuarantineRecord(const std::string &dir,
                     const QuarantineRecord &record)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        davf_throw(ErrorKind::Io, "cannot create quarantine dir '", dir,
                   "': ", ec.message());
    }
    // A deterministic name keeps reruns from piling up duplicates; the
    // delay lives in the hash so every (cell, injection) gets its own
    // file.
    std::ostringstream name;
    name << "q-" << record.structure << "-c" << record.cycle << "-w"
         << record.wireIndex << "-" << std::hex
         << fnv1a(record.configHash + ':' + record.benchmark + ':'
                  + hexDouble(record.delayFraction))
         << ".qr";
    const std::filesystem::path path =
        std::filesystem::path(dir) / name.str();
    static const crashpoint::CrashPoint save_point("quarantine.save");
    save_point.fire();
    writeFileAtomic(path.string(),
                    serializeQuarantineRecord(record) + "\n");
}

std::vector<QuarantineRecord>
loadQuarantineRecords(const std::string &dir)
{
    std::vector<QuarantineRecord> records;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return records;
    for (const std::filesystem::directory_entry &entry : it) {
        if (!entry.is_regular_file(ec))
            continue;
        // Resume must never die on quarantine damage: an unreadable,
        // empty, torn, or garbled record is skipped with a warning and
        // a counter — the worst consequence is re-bisecting (and
        // re-quarantining) the injection it described.
        std::ifstream file(entry.path(), std::ios::binary);
        std::string line;
        if (!file || !std::getline(file, line)) {
            supervisorMetrics().quarantineSkippedRecords.add(1);
            davf_warn("skipping unreadable or empty quarantine record "
                      "'", entry.path().string(), "'");
            continue;
        }
        Result<QuarantineRecord> parsed = parseQuarantineRecord(line);
        if (!parsed) {
            supervisorMetrics().quarantineSkippedRecords.add(1);
            davf_warn("skipping torn or garbled quarantine record '",
                      entry.path().string(),
                      "': ", parsed.error().what());
            continue;
        }
        records.push_back(std::move(parsed.value()));
    }
    std::sort(records.begin(), records.end(),
              [](const QuarantineRecord &a, const QuarantineRecord &b) {
                  return std::tie(a.structure, a.delayFraction, a.cycle,
                                  a.wireIndex)
                      < std::tie(b.structure, b.delayFraction, b.cycle,
                                 b.wireIndex);
              });
    return records;
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

struct Supervisor::Slot
{
    unsigned index = 0; ///< Position in the pool (the CSV's worker).
    std::unique_ptr<Subprocess> proc;
    bool ready = false; ///< The worker said hello and is idle.
};

struct Supervisor::CellState
{
    std::mutex mutex;
    std::vector<QuarantineRecord> quarantined;
    bool failed = false;
    std::string failReason;
    bool stopped = false;
};

Supervisor::Supervisor(SupervisorOptions the_options,
                       const VulnerabilityEngine &the_engine,
                       const StructureRegistry &the_registry)
    : options(std::move(the_options)), engine(&the_engine),
      registry(&the_registry)
{
    davf_assert(!options.workerArgv.empty(),
                "supervisor needs a worker command line");
    if (options.workers == 0)
        options.workers = 1;
    // A dead worker surfaces as EPIPE on write, not a process-fatal
    // SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);
    for (unsigned i = 0; i < options.workers; ++i) {
        slots.push_back(std::make_unique<Slot>());
        slots.back()->index = i;
    }
    // Known-bad injections from earlier runs keep their exclusions, so
    // a resumed campaign converges instead of re-crashing on the same
    // cell. Records from other configurations are ignored.
    if (!options.quarantineDir.empty()) {
        for (QuarantineRecord &record :
             loadQuarantineRecords(options.quarantineDir)) {
            if (record.configHash == options.configHash)
                known.push_back(std::move(record));
        }
    }
}

Supervisor::~Supervisor()
{
    try {
        shutdown();
    } catch (...) {
        // Destructors stay silent; Subprocess cleans up regardless.
    }
}

ExitStatus
Supervisor::retireWorker(Slot &slot, double grace_ms)
{
    if (!slot.proc)
        return {};
    supervisorMetrics().workersRetired.add(1);
    const ExitStatus status = slot.proc->terminate(grace_ms);
    slot.proc.reset();
    slot.ready = false;
    return status;
}

void
Supervisor::ensureWorker(Slot &slot)
{
    if (slot.proc && slot.proc->running() && slot.ready)
        return;
    retireWorker(slot, 0.0);

    slot.proc = std::make_unique<Subprocess>();
    SpawnOptions spawn;
    spawn.memLimitMb = options.workerMemMb;
    slot.proc->spawn(options.workerArgv, spawn);
    supervisorMetrics().workersSpawned.add(1);

    // The hello covers the worker's whole engine build, golden capture
    // included. That capture fans its timed replays out over every
    // core, so workers spawned together contend for the machine; the
    // hello therefore gets its own generous budget.
    std::string frame;
    FrameConn::ReadStatus st;
    try {
        st = slot.proc->conn().read(frame, options.startTimeoutMs);
    } catch (const DavfError &) {
        retireWorker(slot, kKillGraceMs);
        throw;
    }
    if (st != FrameConn::ReadStatus::Frame || frame != "hello") {
        const std::string detail = st == FrameConn::ReadStatus::Timeout
            ? "no hello within " + std::to_string(options.startTimeoutMs)
                + " ms"
            : st == FrameConn::ReadStatus::Eof
            ? slot.proc->wait().describe()
            : "unexpected first frame '" + frame + "'";
        retireWorker(slot, kKillGraceMs);
        davf_throw(ErrorKind::Io, "campaign worker failed to start (",
                   detail, "); command: ", options.workerArgv[0]);
    }
    slot.ready = true;
}

Supervisor::Attempt
Supervisor::dispatchOnce(Slot &slot, const ShardSpec &spec)
{
    Attempt attempt;
    try {
        ensureWorker(slot);
    } catch (const DavfError &error) {
        // A worker that cannot even start is indistinguishable from a
        // startup crash; the retry path respawns it.
        attempt.outcome = Attempt::Outcome::Crash;
        attempt.detail = error.what();
        return attempt;
    }

    attempt = exchangeShard(slot.proc->conn(), spec, options,
                            supervisorMetrics().dispatch);
    if (attempt.outcome == Attempt::Outcome::Ok
        || attempt.outcome == Attempt::Outcome::Error)
        return attempt;

    // Any other outcome retires the worker, so the retry starts from a
    // clean process. A worker that hung up (even mid-frame) is
    // classified by its exit status: the OOM exit code, or a crash.
    const ExitStatus status = retireWorker(slot, kKillGraceMs);
    attempt.rssKb = status.maxRssKb;
    attempt.userSec = status.userSec;
    attempt.sysSec = status.sysSec;
    if (attempt.outcome == Attempt::Outcome::Lost) {
        attempt.outcome = status.exited && status.code == kOomExitCode
            ? Attempt::Outcome::Oom
            : Attempt::Outcome::Crash;
        attempt.detail = status.describe();
    }
    return attempt;
}

void
Supervisor::recordMetrics(const Slot &slot, const ShardSpec &spec,
                          unsigned attempt, const Attempt &outcome)
{
    obs::Counter(std::string("supervisor.outcome.") + outcome.outcomeName())
        .add(1);
    if (options.metricsCsvPath.empty())
        return;
    const std::lock_guard<std::mutex> lock(metricsMutex);
    const bool fresh = !std::filesystem::exists(options.metricsCsvPath);
    std::ofstream file(options.metricsCsvPath, std::ios::app);
    if (!file)
        return;
    if (fresh) {
        file << "structure,kind,cycle,wire_begin,wire_end,attempt,"
                "outcome,wall_ms,max_rss_kb,user_s,sys_s,worker\n";
    }
    char wall[32], user[32], sys[32];
    std::snprintf(wall, sizeof wall, "%.3f", outcome.wallMs);
    std::snprintf(user, sizeof user, "%.3f", outcome.userSec);
    std::snprintf(sys, sizeof sys, "%.3f", outcome.sysSec);
    file << spec.structure << ','
         << (spec.kind == ShardSpec::Kind::Cycle ? "davf" : "savf")
         << ',' << spec.cycle << ',' << spec.wireBegin << ','
         << (spec.wireEnd == SIZE_MAX ? std::string("-")
                                      : std::to_string(spec.wireEnd))
         << ',' << attempt << ',' << outcome.outcomeName() << ','
         << wall << ',' << outcome.rssKb << ',' << user << ',' << sys
         << ',' << slot.index << '\n';
}

Supervisor::Attempt
Supervisor::dispatchWithRetries(Slot &slot, const ShardSpec &spec)
{
    Attempt attempt;
    for (unsigned n = 0;; ++n) {
        if (options.stopRequested()) {
            attempt.outcome = Attempt::Outcome::Stopped;
            attempt.detail = "stop requested";
            return attempt;
        }
        attempt = dispatchOnce(slot, spec);
        recordMetrics(slot, spec, n, attempt);
        if (!attempt.retryable() || n >= options.maxRetries)
            return attempt;
        supervisorMetrics().retries.add(1);
        davf_warn("shard ", spec.structure, " cycle ", spec.cycle,
                  " attempt ", n, " failed (", attempt.detail,
                  "); retrying");
        backoffShard(spec, n, options, supervisorMetrics().dispatch);
    }
}

Supervisor::Attempt
Supervisor::bisectAndQuarantine(Slot &slot, ShardSpec spec,
                                const std::vector<WireId> &wires,
                                CellState &cell)
{
    // Probe one wire-index sub-range with a single attempt; bisection
    // only needs a fails/passes signal, and probe outcomes are always
    // discarded (per-cycle memoization makes sub-range counters
    // non-additive).
    auto probe_fails = [&](size_t begin, size_t end,
                           Attempt &last) -> bool {
        ShardSpec probe = spec;
        probe.wireBegin = begin;
        probe.wireEnd = end;
        supervisorMetrics().bisectProbes.add(1);
        last = dispatchOnce(slot, probe);
        recordMetrics(slot, probe, 0, last);
        return last.retryable();
    };

    Attempt last;
    for (;;) {
        if (options.stopRequested()) {
            last.outcome = Attempt::Outcome::Stopped;
            last.detail = "stop requested";
            return last;
        }
        {
            const std::lock_guard<std::mutex> lock(cell.mutex);
            if (cell.quarantined.size() >= options.maxQuarantinePerCell) {
                last.outcome = Attempt::Outcome::Crash;
                last.detail = "quarantine budget ("
                    + std::to_string(options.maxQuarantinePerCell)
                    + " per cell) exhausted";
                return last;
            }
        }

        // Binary descent: keep the failing half. The full range is
        // known to fail, so if the left half passes the culprit is on
        // the right.
        size_t lo = 0;
        size_t hi = wires.size();
        while (hi - lo > 1) {
            const size_t mid = lo + (hi - lo) / 2;
            if (probe_fails(lo, mid, last))
                hi = mid;
            else
                lo = mid;
            if (options.stopRequested()) {
                last.outcome = Attempt::Outcome::Stopped;
                last.detail = "stop requested";
                return last;
            }
        }

        if (hi - lo != 1 || !probe_fails(lo, hi, last)) {
            // The failure does not reproduce on any single injection —
            // flaky hardware, or a crash that needs cross-wire state.
            last.outcome = Attempt::Outcome::Crash;
            last.detail = "crash did not bisect to a single injection";
            return last;
        }

        QuarantineRecord record;
        record.configHash = options.configHash;
        record.benchmark = options.benchmark;
        record.structure = spec.structure;
        record.delayFraction = spec.delayFraction;
        record.cycle = spec.cycle;
        record.wireIndex = lo;
        record.wire = lo < wires.size() ? wires[lo] : 0;
        record.seed = spec.sampling.seed;
        record.reason = last.detail;
        if (!options.quarantineDir.empty()) {
            // A quarantine record is an optimization (it pre-excludes
            // the injection on the next run); failing to persist one —
            // full disk, armed crash point — must not kill the
            // campaign that just survived the crash it describes.
            try {
                saveQuarantineRecord(options.quarantineDir, record);
            } catch (const DavfError &error) {
                supervisorMetrics().quarantineWriteFailures.add(1);
                davf_warn("cannot persist quarantine record (campaign "
                          "continues): ",
                          error.what());
            }
        }
        supervisorMetrics().quarantines.add(1);
        {
            const std::lock_guard<std::mutex> lock(cell.mutex);
            cell.quarantined.push_back(record);
        }
        davf_warn("quarantined injection: structure ", spec.structure,
                  " cycle ", spec.cycle, " wire index ", lo, " (",
                  last.detail, ")");

        spec.quarantined.push_back(lo);
        std::sort(spec.quarantined.begin(), spec.quarantined.end());

        // Re-run the whole cycle with the exclusion; more culprits send
        // us around the loop (budget permitting).
        last = dispatchWithRetries(slot, spec);
        if (!last.retryable())
            return last;
    }
}

Supervisor::CellResult
Supervisor::runDavfCell(
    const std::string &structure, double delay_fraction,
    const std::vector<uint64_t> &cycles, const SamplingConfig &sampling,
    const std::function<void(const InjectionCycleOutcome &)>
        &on_cycle_done,
    const std::vector<double> &sweep)
{
    CellResult result;
    if (cycles.empty())
        return result;

    // The sampled-wire order quarantine indices refer to.
    const Structure *resolved = registry->find(structure);
    davf_assert(resolved != nullptr, "supervisor: unknown structure '",
                structure, "'");
    const std::vector<WireId> wires =
        engine->sampledWires(*resolved, sampling);

    // Exclusions apply per cycle: a quarantined injection names one
    // (cycle, wire index) pair.
    std::vector<std::vector<size_t>> exclusions(cycles.size());
    for (const QuarantineRecord &record : known) {
        if (record.structure != structure
            || record.delayFraction != delay_fraction)
            continue;
        for (size_t i = 0; i < cycles.size(); ++i) {
            if (cycles[i] == record.cycle)
                exclusions[i].push_back(record.wireIndex);
        }
    }
    for (std::vector<size_t> &list : exclusions)
        std::sort(list.begin(), list.end());

    // Strict ownership: job j runs on slot j mod pool, so a worker sees
    // every delay of the cycles it owns and its sweep caches hit as
    // thread mode's do. An idle slot never steals another's job: that
    // would split a cycle's delays over two workers.
    const size_t pool =
        std::min<size_t>(options.workers, cycles.size());
    CellState cell;
    auto drain = [&](Slot &slot) {
        for (size_t job = slot.index; job < cycles.size(); job += pool) {
            {
                const std::lock_guard<std::mutex> lock(cell.mutex);
                if (cell.failed || cell.stopped)
                    return;
            }
            if (options.stopRequested()) {
                const std::lock_guard<std::mutex> lock(cell.mutex);
                cell.stopped = true;
                return;
            }

            ShardSpec spec;
            spec.kind = ShardSpec::Kind::Cycle;
            spec.structure = structure;
            spec.delayFraction = delay_fraction;
            spec.cycle = cycles[job];
            spec.quarantined = exclusions[job];
            spec.sampling = sampling;
            spec.sweep = sweep;

            Attempt attempt = dispatchWithRetries(slot, spec);
            if (attempt.retryable())
                attempt = bisectAndQuarantine(slot, spec, wires, cell);

            const std::lock_guard<std::mutex> lock(cell.mutex);
            if (attempt.outcome == Attempt::Outcome::Ok) {
                if (on_cycle_done)
                    on_cycle_done(attempt.cycleOutcome);
            } else if (attempt.outcome == Attempt::Outcome::Stopped) {
                cell.stopped = true;
            } else if (!cell.failed) {
                cell.failed = true;
                cell.failReason = "cycle "
                    + std::to_string(cycles[job]) + ": "
                    + std::string(attempt.outcomeName()) + " ("
                    + attempt.detail + ")";
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (size_t i = 1; i < pool; ++i)
        threads.emplace_back([&, i] { drain(*slots[i]); });
    drain(*slots[0]);
    for (std::thread &thread : threads)
        thread.join();

    written.insert(written.end(), cell.quarantined.begin(),
                   cell.quarantined.end());
    result.failed = cell.failed;
    result.failReason = std::move(cell.failReason);
    result.stopped = cell.stopped;
    return result;
}

Supervisor::CellResult
Supervisor::runSavfCell(const std::string &structure,
                        const SamplingConfig &sampling, SavfResult &out)
{
    CellResult result;
    ShardSpec spec;
    spec.kind = ShardSpec::Kind::Savf;
    spec.structure = structure;
    spec.sampling = sampling;

    const Attempt attempt = dispatchWithRetries(*slots[0], spec);
    if (attempt.outcome == Attempt::Outcome::Ok) {
        out = attempt.savfOutcome;
    } else if (attempt.outcome == Attempt::Outcome::Stopped) {
        result.stopped = true;
    } else {
        result.failed = true;
        result.failReason = std::string(attempt.outcomeName())
            + " (" + attempt.detail + ")";
    }
    return result;
}

void
Supervisor::shutdown()
{
    for (const std::unique_ptr<Slot> &slot : slots) {
        if (!slot->proc || !slot->proc->running())
            continue;
        try {
            slot->proc->conn().send("quit");
            slot->proc->closeWrite();
        } catch (const DavfError &) {
            // Already dead; terminate() below reaps it.
        }
    }
    // Drain every worker within one shared grace window before
    // terminating (drainUntilEof).
    const double deadline = steadyNowMs() + kQuitGraceMs;
    for (const std::unique_ptr<Slot> &slot : slots) {
        if (slot->proc && slot->proc->running())
            drainUntilEof(slot->proc->conn(), deadline - steadyNowMs());
    }
    for (const std::unique_ptr<Slot> &slot : slots) {
        if (slot->proc && slot->proc->running())
            slot->proc->terminate(kQuitGraceMs);
        slot->proc.reset();
        slot->ready = false;
    }
}

int
runCampaignWorker(VulnerabilityEngine &engine,
                  const StructureRegistry &registry)
{
    ::signal(SIGPIPE, SIG_IGN);
    // The supervisor's socketpair end is both stdin and stdout.
    FrameConn conn(STDIN_FILENO);
    try {
        conn.send("hello");
        serveShards(engine, registry, conn);
    } catch (const DavfError &error) {
        std::fprintf(stderr, "campaign worker: fatal: %s\n",
                     error.what());
        return 1;
    }
    return 0;
}

} // namespace davf
