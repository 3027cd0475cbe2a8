/**
 * @file
 * The unit of work shipped to a process-isolated campaign worker.
 *
 * A shard names one independently computable slice of a campaign cell:
 * either a single DelayAVF injection cycle (optionally restricted to a
 * sampled-wire index range — the supervisor's crash bisection probes
 * use this) or a whole sAVF evaluation. The spec carries the effective
 * engine sampling knobs verbatim, so a worker reproduces the
 * supervisor's configuration exactly instead of re-deriving it;
 * operational fields (threads, stop flag, paths) are deliberately not
 * part of a shard.
 *
 * Serialization is the same space-separated text-token format as the
 * campaign journal, with doubles as C hexfloats for bit-exactness.
 */

#ifndef DAVF_CORE_SHARD_HH
#define DAVF_CORE_SHARD_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/vulnerability.hh"
#include "util/error.hh"

namespace davf {

/** One unit of process-isolated campaign work (see file comment). */
struct ShardSpec
{
    enum class Kind : uint8_t {
        Cycle, ///< One DelayAVF injection cycle of one (structure, d).
        Savf,  ///< A whole particle-strike sAVF evaluation.
    };

    Kind kind = Kind::Cycle;
    std::string structure;

    /** @name Cycle shards only */
    /// @{
    double delayFraction = 0.0;
    uint64_t cycle = 0;

    /** Half-open sampled-wire index range; the default covers all. */
    size_t wireBegin = 0;
    size_t wireEnd = std::numeric_limits<size_t>::max();

    /** Sampled-wire indices to skip as quarantined (tallied, not run). */
    std::vector<size_t> quarantined;
    /// @}

    /** Engine sampling knobs (threads/stopFlag are not serialized). */
    SamplingConfig sampling;

    /**
     * The campaign's whole delay sweep (cycle shards; empty = none): a
     * worker hands it to beginDelaySweep() so consecutive shards of one
     * cycle reuse the engine's cross-delay caches. A speed hint only —
     * results are identical with or without it, so store keys leave it
     * out (service::shardStoreKey).
     */
    std::vector<double> sweep;
};

/** One-line text form of @p spec. */
std::string serializeShardSpec(const ShardSpec &spec);

/** Parse a serializeShardSpec() line; malformed input is an Err. */
Result<ShardSpec> parseShardSpec(const std::string &text);

} // namespace davf

#endif // DAVF_CORE_SHARD_HH
