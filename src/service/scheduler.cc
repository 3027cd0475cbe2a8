#include "scheduler.hh"

#include <chrono>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace davf::service {

namespace {

using Clock = std::chrono::steady_clock;

/** Scheduler metric handles, mirroring SchedulerStats. */
struct SchedulerMetrics
{
    obs::Counter queries{"service.queries"};
    obs::Counter shardHits{"service.shard_hits"};
    obs::Counter inFlightHits{"service.in_flight_hits"};
    obs::Counter shardsComputed{"service.shards_computed"};
    obs::Counter cancelled{"service.cancelled"};
    obs::Counter queryNs{"service.time.query_ns"};
};

SchedulerMetrics &
schedulerMetrics()
{
    static SchedulerMetrics *const metrics = new SchedulerMetrics();
    return *metrics;
}

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
}

std::string
histogramJson(const Histogram &h)
{
    std::ostringstream os;
    os << "{\"count\":" << h.count() << ",\"bins\":[";
    bool first = true;
    for (size_t i = 0; i < h.bins().size(); ++i) {
        if (h.bins()[i] == 0)
            continue;
        if (!first)
            os << ',';
        first = false;
        os << "{\"lo\":" << h.binLo(i) << ",\"hi\":" << h.binHi(i)
           << ",\"n\":" << h.bins()[i] << '}';
    }
    os << "]}";
    return os.str();
}

} // namespace

QueryScheduler::QueryScheduler(VulnerabilityEngine &the_engine,
                               const StructureRegistry &the_registry,
                               std::string fingerprint,
                               ResultStore &the_store, Options the_options)
    : engine(&the_engine), registry(&the_registry), store(&the_store),
      tier(the_store, std::move(fingerprint)),
      options(std::move(the_options)), lookupMs(0.0, 50.0, 25),
      computeMs(0.0, 5000.0, 25), aggregateMs(0.0, 50.0, 25)
{}

std::string
QueryScheduler::shardKey(const ShardSpec &spec) const
{
    return tier.key(spec);
}

void
QueryScheduler::countHits(uint64_t hits, bool recheck, QueryReply &reply)
{
    reply.storeHits += hits;
    (recheck ? schedulerMetrics().inFlightHits
             : schedulerMetrics().shardHits)
        .add(hits);
    const std::lock_guard<std::mutex> stats_lock(statsMutex);
    (recheck ? counters.inFlightHits : counters.shardHits) += hits;
}

void
QueryScheduler::countComputed(QueryReply &reply)
{
    ++reply.storeMisses;
    schedulerMetrics().shardsComputed.add(1);
    const std::lock_guard<std::mutex> stats_lock(statsMutex);
    ++counters.shardsComputed;
}

Result<CellRun>
QueryScheduler::runCell(CellJob job, bool savf, QueryReply &reply)
{
    using R = Result<CellRun>;

    // The first look, without the compute lock: warm queries from many
    // clients resolve their shards in parallel.
    CellRun run;
    DelayAvfProgress progress;
    const Clock::time_point lookup_start = Clock::now();
    std::optional<SavfResult> savf_hit;
    if (savf)
        savf_hit = storedSavf(job);
    countHits(savf ? savf_hit.has_value()
                   : adoptStoredCycles(job, progress.completed),
              false, reply);
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        lookupMs.add(elapsedMs(lookup_start));
    }
    if (savf_hit) {
        run.savf = std::move(*savf_hit);
        return R::Ok(std::move(run));
    }
    const uint64_t computed_before = reply.storeMisses;
    progress.onCycleDone = [&](const InjectionCycleOutcome &) {
        countComputed(reply);
    };

    // The runner looks again under the compute lock: a concurrent
    // client may have computed (and stored) these shards while we
    // waited. This is the in-flight dedupe — identical concurrent
    // queries cost one simulation.
    const std::lock_guard<std::mutex> engine_lock(engineMutex);
    const Clock::time_point run_start = Clock::now();
    job.recheck = true;
    run = savf ? davf::runSavfCell(job)
               : davf::runDavfCell(job, std::move(progress));
    countHits(run.storeHits, true, reply);
    if (savf && run.storeHits == 0 && !run.stopped && !run.failed)
        countComputed(reply);
    {
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        (reply.storeMisses > computed_before ? computeMs : aggregateMs)
            .add(elapsedMs(run_start));
    }
    if (run.stopped) {
        schedulerMetrics().cancelled.add(1);
        const std::lock_guard<std::mutex> stats_lock(statsMutex);
        ++counters.cancelled;
        return R::Err(ErrorKind::Timeout, "query cancelled");
    }
    if (run.failed)
        return R::Err(run.failKind, run.failReason);
    return R::Ok(std::move(run));
}

Result<QueryScheduler::QueryReply>
QueryScheduler::run(const QuerySpec &query,
                    const std::atomic<bool> *cancel)
{
    using R = Result<QueryReply>;
    const obs::Span query_span("service.query",
                               &schedulerMetrics().queryNs);
    try {
        const Structure *structure = registry->find(query.structure);
        if (!structure) {
            return R::Err(ErrorKind::NotFound, "unknown structure '"
                                                   + query.structure
                                                   + "'");
        }

        // The query's sampling verbatim keys the shards (threads and
        // the stop flag are operational and not serialized), so every
        // process pointed at the same store derives the same keys.
        CellJob job;
        job.engine = engine;
        job.structure = structure;
        job.sampling = query.sampling;
        job.sampling.threads = options.threads;
        job.sampling.stopFlag = cancel;
        job.dispatcher = options.dispatcher;
        job.store = &tier;

        // One DelayAVF cell per delay, then the sAVF cell if asked for.
        QueryReply reply;
        std::vector<ReportRow> rows;
        for (size_t i = 0; i <= query.delays.size(); ++i) {
            const bool savf = i == query.delays.size();
            if (savf && !query.runSavf)
                break;
            job.delay = savf ? 0.0 : query.delays[i];
            Result<CellRun> cell = runCell(job, savf, reply);
            if (!cell)
                return R::Err(cell.error());
            ReportRow row;
            row.kind = savf ? "savf" : "davf";
            row.benchmark = options.benchmark;
            row.structure = query.structure + options.structureLabel;
            row.delayFraction = job.delay;
            row.davf = std::move(cell.value().davf);
            row.savf = std::move(cell.value().savf);
            rows.push_back(std::move(row));
        }

        reply.reportJson = reportJson(rows);
        schedulerMetrics().queries.add(1);
        {
            const std::lock_guard<std::mutex> lock(statsMutex);
            ++counters.queries;
        }
        return R::Ok(std::move(reply));
    } catch (const DavfError &error) {
        return R::Err(error);
    }
}

SchedulerStats
QueryScheduler::stats() const
{
    const std::lock_guard<std::mutex> lock(statsMutex);
    return counters;
}

std::string
QueryScheduler::statsJson() const
{
    const StoreStats store_stats = store->stats();
    const std::lock_guard<std::mutex> lock(statsMutex);
    std::ostringstream os;
    os << "{\"queries\":" << counters.queries
       << ",\"shard_hits\":" << counters.shardHits
       << ",\"in_flight_hits\":" << counters.inFlightHits
       << ",\"shards_computed\":" << counters.shardsComputed
       << ",\"cancelled\":" << counters.cancelled
       << ",\"store\":{\"memory_hits\":" << store_stats.memoryHits
       << ",\"disk_hits\":" << store_stats.diskHits
       << ",\"misses\":" << store_stats.misses
       << ",\"evictions\":" << store_stats.evictions
       << ",\"corrupt_records\":" << store_stats.corruptRecords
       << ",\"future_records\":" << store_stats.futureRecords
       << ",\"writes\":" << store_stats.writes
       << ",\"write_failures\":" << store_stats.writeFailures
       << ",\"lru_entries\":" << store_stats.lruEntries
       << ",\"lru_bytes\":" << store_stats.lruBytes;
    if (const auto index_stats = store->indexStats()) {
        os << ",\"index\":{\"lookups\":" << index_stats->lookups
           << ",\"hits\":" << index_stats->hits
           << ",\"corrupt_records\":" << index_stats->corrupt
           << ",\"future_records\":" << index_stats->future
           << ",\"collisions\":" << index_stats->collisions
           << ",\"appends\":" << index_stats->appends
           << ",\"replayed_frames\":" << index_stats->replayed
           << ",\"rebuilds\":" << index_stats->rebuilds
           << ",\"tail_repairs\":" << index_stats->tailRepairs
           << ",\"checkpoints\":" << index_stats->checkpoints
           << ",\"checkpoint_failures\":"
           << index_stats->checkpointFailures
           << ",\"keys\":" << index_stats->keys
           << ",\"buckets\":" << index_stats->buckets
           << ",\"depth\":" << index_stats->depth
           << ",\"splits\":" << index_stats->splits
           << ",\"segment_bytes\":" << index_stats->segmentBytes
           << '}';
    }
    os << "},\"latency_ms\":{\"lookup\":" << histogramJson(lookupMs)
       << ",\"compute\":" << histogramJson(computeMs)
       << ",\"aggregate\":" << histogramJson(aggregateMs)
       << "},\"registry\":"
       << obs::MetricsRegistry::instance().snapshot().toJson() << '}';
    return os.str();
}

} // namespace davf::service
