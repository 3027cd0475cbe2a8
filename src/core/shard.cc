#include "shard.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace davf {

namespace {

std::string
hexDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

bool
readDouble(std::istream &is, double &out)
{
    std::string text;
    if (!(is >> text))
        return false;
    const char *begin = text.c_str();
    char *end = nullptr;
    out = std::strtod(begin, &end);
    return end == begin + text.size() && !text.empty();
}

} // namespace

std::string
serializeShardSpec(const ShardSpec &spec)
{
    std::ostringstream os;
    os << (spec.kind == ShardSpec::Kind::Cycle ? "cycle" : "savf") << ' '
       << spec.structure;
    if (spec.kind == ShardSpec::Kind::Cycle) {
        os << ' ' << hexDouble(spec.delayFraction) << ' ' << spec.cycle
           << ' ' << spec.wireBegin << ' ' << spec.wireEnd;
        os << ' ' << spec.quarantined.size();
        for (size_t index : spec.quarantined)
            os << ' ' << index;
    }
    const SamplingConfig &sampling = spec.sampling;
    os << ' ' << hexDouble(sampling.cycleFraction) << ' '
       << sampling.maxInjectionCycles << ' ' << sampling.maxWires << ' '
       << sampling.maxFlops << ' ' << sampling.seed << ' '
       << sampling.watchdogSlack << ' '
       << hexDouble(sampling.injectionTimeoutMs) << ' '
       << hexDouble(sampling.maxFailureRate);
    // Append-only extensions, each written only when set: specs without
    // them — and thus store keys and worker frames — stay byte-equal to
    // releases that predate them.
    if (sampling.attribution)
        os << " attr";
    if (!spec.sweep.empty()) {
        os << " sweep " << spec.sweep.size();
        for (double d : spec.sweep)
            os << ' ' << hexDouble(d);
    }
    return os.str();
}

Result<ShardSpec>
parseShardSpec(const std::string &text)
{
    using R = Result<ShardSpec>;
    std::istringstream is(text);
    ShardSpec spec;

    std::string kind;
    if (!(is >> kind >> spec.structure))
        return R::Err(ErrorKind::BadInput,
                      "shard spec: missing kind/structure: " + text);
    if (kind == "cycle") {
        spec.kind = ShardSpec::Kind::Cycle;
        size_t quarantine_count = 0;
        if (!readDouble(is, spec.delayFraction)
            || !(is >> spec.cycle >> spec.wireBegin >> spec.wireEnd
                    >> quarantine_count)
            || quarantine_count > 1u << 20) {
            return R::Err(ErrorKind::BadInput,
                          "shard spec: bad cycle fields: " + text);
        }
        spec.quarantined.resize(quarantine_count);
        for (size_t &index : spec.quarantined) {
            if (!(is >> index))
                return R::Err(ErrorKind::BadInput,
                              "shard spec: bad quarantine list: " + text);
        }
    } else if (kind == "savf") {
        spec.kind = ShardSpec::Kind::Savf;
    } else {
        return R::Err(ErrorKind::BadInput,
                      "shard spec: unknown kind '" + kind + "'");
    }

    SamplingConfig &sampling = spec.sampling;
    if (!readDouble(is, sampling.cycleFraction)
        || !(is >> sampling.maxInjectionCycles >> sampling.maxWires
                >> sampling.maxFlops >> sampling.seed
                >> sampling.watchdogSlack)
        || !readDouble(is, sampling.injectionTimeoutMs)
        || !readDouble(is, sampling.maxFailureRate)) {
        return R::Err(ErrorKind::BadInput,
                      "shard spec: bad sampling fields: " + text);
    }
    // The extensions, in their serialized order, each at most once.
    std::string extension;
    bool have = static_cast<bool>(is >> extension);
    if (have && extension == "attr") {
        sampling.attribution = true;
        have = static_cast<bool>(is >> extension);
    }
    if (have && extension == "sweep") {
        size_t count = 0;
        if (!(is >> count) || count == 0 || count > 1u << 16)
            return R::Err(ErrorKind::BadInput,
                          "shard spec: bad sweep length: " + text);
        spec.sweep.resize(count);
        for (double &d : spec.sweep) {
            if (!readDouble(is, d))
                return R::Err(ErrorKind::BadInput,
                              "shard spec: bad sweep delay: " + text);
        }
        have = static_cast<bool>(is >> extension);
    }
    if (have)
        return R::Err(ErrorKind::BadInput,
                      "shard spec: trailing tokens: " + text);
    return R::Ok(std::move(spec));
}

} // namespace davf
