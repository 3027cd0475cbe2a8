#include "cell_runner.hh"

#include <algorithm>
#include <sstream>

#include "campaign/checkpoint.hh"
#include "service/result_store.hh"
#include "util/logging.hh"

namespace davf {

namespace {

/** Parse a whole payload with @p parse; damage or trailing junk fails. */
template <typename T, typename Parse>
std::optional<T>
parsePayload(const std::optional<std::string> &payload, Parse parse)
{
    if (!payload)
        return std::nullopt;
    std::istringstream is(*payload);
    T value;
    std::string trailing;
    if (!parse(is, value) || (is >> trailing)) {
        davf_warn("stored shard payload unparseable; recomputing");
        return std::nullopt;
    }
    return value;
}

ShardSpec
shardOf(const CellJob &job, ShardSpec::Kind kind)
{
    ShardSpec spec;
    spec.kind = kind;
    spec.structure = job.structure->name;
    if (kind == ShardSpec::Kind::Cycle)
        spec.delayFraction = job.delay;
    spec.sampling = job.sampling;
    return spec;
}

/** The injection cycles of @p job that @p completed lacks. */
std::vector<uint64_t>
missingCycles(const CellJob &job,
              const std::vector<InjectionCycleOutcome> &completed)
{
    std::vector<uint64_t> missing;
    for (uint64_t cycle : job.engine->injectionCycles(job.sampling)) {
        if (std::none_of(completed.begin(), completed.end(),
                         [&](const InjectionCycleOutcome &out) {
                             return out.cycle == cycle;
                         }))
            missing.push_back(cycle);
    }
    return missing;
}

} // namespace

std::string
shardStoreKey(const std::string &fingerprint, const ShardSpec &spec)
{
    // The sweep is a worker speed hint, not part of what the shard
    // computes: with it or without, the same shard hits the same record.
    ShardSpec keyed = spec;
    keyed.sweep.clear();
    return fingerprint + " " + serializeShardSpec(keyed);
}

std::optional<InjectionCycleOutcome>
ShardStore::findCycle(const ShardSpec &spec, bool recheck)
{
    return parsePayload<InjectionCycleOutcome>(
        recheck ? results->recheck(key(spec)) : results->lookup(key(spec)),
        parseOutcomeFields);
}

std::optional<SavfResult>
ShardStore::findSavf(const ShardSpec &spec, bool recheck)
{
    return parsePayload<SavfResult>(
        recheck ? results->recheck(key(spec)) : results->lookup(key(spec)),
        parseSavfFields);
}

void
ShardStore::put(const ShardSpec &spec, const InjectionCycleOutcome &outcome)
{
    // Attribution-bearing payloads carry the v3 grammar extension;
    // plain outcomes keep writing v2 so old readers stay compatible.
    results->store(key(spec), serializeOutcomeFields(outcome),
                   outcome.attr.valid ? 3 : 2);
}

void
ShardStore::put(const ShardSpec &spec, const SavfResult &result)
{
    results->store(key(spec), serializeSavfFields(result));
}

uint64_t
adoptStoredCycles(const CellJob &job,
                  std::vector<InjectionCycleOutcome> &completed)
{
    if (!job.store)
        return 0;
    ShardSpec spec = shardOf(job, ShardSpec::Kind::Cycle);
    uint64_t adopted = 0;
    for (uint64_t cycle : missingCycles(job, completed)) {
        spec.cycle = cycle;
        if (auto outcome = job.store->findCycle(spec, job.recheck)) {
            completed.push_back(std::move(*outcome));
            ++adopted;
        }
    }
    return adopted;
}

std::optional<SavfResult>
storedSavf(const CellJob &job)
{
    if (!job.store)
        return std::nullopt;
    return job.store->findSavf(shardOf(job, ShardSpec::Kind::Savf),
                               job.recheck);
}

CellRun
runDavfCell(const CellJob &job, DelayAvfProgress progress)
{
    CellRun run;
    std::vector<InjectionCycleOutcome> &completed = progress.completed;
    run.storeHits = adoptStoredCycles(job, completed);

    // Store first, so whatever the caller records (a journal line) the
    // store has too. Calls are serialized by the engine or dispatcher.
    ShardSpec spec = shardOf(job, ShardSpec::Kind::Cycle);
    auto report = std::move(progress.onCycleDone);
    progress.onCycleDone = [&](const InjectionCycleOutcome &outcome) {
        if (job.store) {
            spec.cycle = outcome.cycle;
            job.store->put(spec, outcome);
        }
        if (report)
            report(outcome);
    };

    const std::vector<uint64_t> missing = job.dispatcher
        ? missingCycles(job, completed)
        : std::vector<uint64_t>{};
    if (!missing.empty()) {
        const ShardDispatcher::CellResult shard = job.dispatcher->runDavfCell(
            job.structure->name, job.delay, missing, job.sampling,
            [&](const InjectionCycleOutcome &outcome) {
                progress.onCycleDone(outcome);
                completed.push_back(outcome);
            },
            job.sweep);
        run.stopped = shard.stopped;
        run.failed = shard.failed;
        run.failReason = shard.failReason;
        if (run.stopped || run.failed)
            return run;
    }

    // The one engine call: it simulates only the cycles still absent
    // from progress.completed (none after a dispatch) and aggregates
    // all of them — the checkpoint-resume path, bit-identical to a
    // cold run at any thread, worker, or node count.
    try {
        run.davf = job.engine->delayAvf(*job.structure, job.delay,
                                        job.sampling, &progress);
    } catch (const DavfError &error) {
        if (error.kind() != ErrorKind::ExcessiveFailures)
            throw;
        run.failed = true;
        run.failKind = error.kind();
        run.failReason = error.what();
        return run;
    }
    run.stopped = run.davf.stopped;
    return run;
}

CellRun
runSavfCell(const CellJob &job)
{
    CellRun run;
    if (std::optional<SavfResult> hit = storedSavf(job)) {
        run.savf = std::move(*hit);
        run.storeHits = 1;
        return run;
    }
    if (job.dispatcher) {
        const ShardDispatcher::CellResult shard =
            job.dispatcher->runSavfCell(job.structure->name, job.sampling,
                                        run.savf);
        run.stopped = shard.stopped;
        run.failed = shard.failed;
        run.failReason = shard.failReason;
    } else {
        run.savf = job.engine->savf(*job.structure, job.sampling);
        run.stopped = run.savf.stopped;
    }
    if (job.store && !run.stopped && !run.failed)
        job.store->put(shardOf(job, ShardSpec::Kind::Savf), run.savf);
    return run;
}

} // namespace davf
