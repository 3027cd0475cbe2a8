/**
 * @file
 * The reference oracle for the engine's per-cycle pipeline.
 *
 * VulnerabilityEngine computes every injection cycle in lane batches:
 * timed cone re-simulations first, then the GroupACE and ORACE
 * continuations, resolved round by round. The oracle recomputes the
 * same results the plain way — one wire at a time, one continuation at
 * a time — from the engine's public single-injection primitives only:
 * sta(), sourceToggles(), dynamicErrors() and groupVerdict(). It has no
 * sweep cache, no metrics, no timeouts and no stop flag, and it shares
 * none of the batching code, so the differential suites in
 * test_engine.cc hold the production pipeline to independent
 * semantics.
 */

#ifndef DAVF_TESTS_ENGINE_ORACLE_HH
#define DAVF_TESTS_ENGINE_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/vulnerability.hh"
#include "netlist/netlist.hh"
#include "sim/cycle_sim.hh"
#include "util/logging.hh"

namespace davf::test {

/**
 * One injection cycle's InjectionCycleOutcome, wire by wire. Same
 * contract as VulnerabilityEngine::delayAvfCycle(): the sampled-wire
 * range [@p wire_begin, min(@p wire_end, size)), with @p quarantined
 * indices tallied as skipped. A wire's GroupACE verdict comes first,
 * then its ORACE disjunction, which stops at the first ACE element;
 * both memo spaces are per cycle and every memo miss is one
 * uniqueGroupSims.
 *
 * With @p failing_set, the continuation of exactly that error set is
 * taken to fail: every wire whose GroupACE verdict needs it is charged
 * as a skipped injection with reason "exception" instead.
 */
inline InjectionCycleOutcome
oracleCycle(VulnerabilityEngine &engine, const Structure &structure,
            double delay_fraction, uint64_t cycle,
            const SamplingConfig &config, size_t wire_begin = 0,
            size_t wire_end = SIZE_MAX,
            std::span<const size_t> quarantined = {},
            const std::vector<CycleSimulator::Force> *failing_set = nullptr)
{
    using Force = CycleSimulator::Force;
    const double period = engine.clockPeriod();
    const double delay = delay_fraction * period;
    const std::vector<WireId> wires =
        engine.sampledWires(structure, config);

    InjectionCycleOutcome out;
    out.cycle = cycle;
    out.wireDyn.assign(wires.size(), 0);
    out.wireAce.assign(wires.size(), 0);

    std::map<std::vector<Force>, FailureKind> group_memo;
    std::map<Force, FailureKind> ace_memo;
    auto verdict_of = [&](auto &memo, const auto &key,
                          std::span<const Force> forces) {
        auto it = memo.find(key);
        if (it == memo.end()) {
            ++out.uniqueGroupSims;
            it = memo.emplace(key, engine.groupVerdict(
                                       forces, cycle, config.watchdogSlack))
                     .first;
        }
        return it->second;
    };

    std::vector<StateElemId> static_set;
    const size_t end = std::min(wire_end, wires.size());
    for (size_t i = wire_begin; i < end; ++i) {
        ++out.injections;
        if (std::find(quarantined.begin(), quarantined.end(), i)
            != quarantined.end()) {
            ++out.skippedErrors;
            ++out.skipReasons["quarantined"];
            continue;
        }
        engine.sta().staticallyReachable(wires[i], delay, period,
                                         static_set);
        if (static_set.empty())
            continue;
        ++out.staticInjections;
        if (!engine.sourceToggles(wires[i], cycle)) {
            ++out.skippedNoToggle;
            continue;
        }
        const std::vector<Force> errors =
            engine.dynamicErrors(wires[i], cycle, delay);
        if (errors.empty())
            continue;
        ++out.errorInjections;
        out.wireDyn[i] = 1;
        if (errors.size() >= 2)
            ++out.multiBit;

        if (failing_set && errors == *failing_set) {
            if (group_memo.try_emplace(errors, FailureKind::None).second)
                ++out.uniqueGroupSims;
            ++out.skippedErrors;
            ++out.skipReasons["exception"];
            continue;
        }
        const FailureKind verdict = verdict_of(group_memo, errors, errors);
        if (verdict != FailureKind::None) {
            ++out.delayAce;
            out.wireAce[i] = 1;
            if (verdict == FailureKind::Sdc)
                ++out.sdc;
            else
                ++out.due;
        }

        bool or_ace = false;
        for (const Force &error : errors) {
            const Force single[] = {error};
            if (verdict_of(ace_memo, error, single) != FailureKind::None) {
                or_ace = true;
                break;
            }
        }
        if (or_ace)
            ++out.orAce;
        if (or_ace && verdict == FailureKind::None)
            ++out.interference;
        if (!or_ace && verdict != FailureKind::None)
            ++out.compounding;
    }
    return out;
}

/**
 * DelayAVF from oracle outcomes: every injection cycle is computed by
 * oracleCycle() and handed to delayAvf() as already completed, so the
 * engine only aggregates (its resume path simulates nothing).
 */
inline DelayAvfResult
oracleDelayAvf(VulnerabilityEngine &engine, const Structure &structure,
               double delay_fraction, const SamplingConfig &config)
{
    DelayAvfProgress progress;
    for (uint64_t cycle : engine.injectionCycles(config)) {
        progress.completed.push_back(
            oracleCycle(engine, structure, delay_fraction, cycle, config));
    }
    return engine.delayAvf(structure, delay_fraction, config, &progress);
}

/**
 * Particle-strike AVF, one flip at a time. Flipping a flop in the
 * state of golden cycle c equals forcing its inverted value at the
 * edge that enters c, so each flip is one groupVerdict() at c - 1.
 * Flips every flop of @p structure (the config must not subsample
 * them), and every injection cycle must be at least 2.
 */
inline SavfResult
oracleSavf(VulnerabilityEngine &engine, const Netlist &netlist,
           const Structure &structure, const SamplingConfig &config)
{
    davf_assert(config.maxFlops == 0
                    || config.maxFlops >= structure.flops.size(),
                "the sAVF oracle flips every flop");
    SavfResult result;
    CycleSimulator golden(netlist);
    for (uint64_t cycle : engine.injectionCycles(config)) {
        davf_assert(cycle >= 2, "sAVF oracle needs injection cycles >= 2");
        while (golden.cycle() < cycle)
            golden.step();
        for (StateElemId flop : structure.flops) {
            const NetId q =
                netlist.cell(netlist.stateElem(flop).cell).outputs[0];
            const CycleSimulator::Force flipped[] = {
                {flop, !golden.value(q)}};
            const FailureKind verdict = engine.groupVerdict(
                flipped, cycle - 1, config.watchdogSlack);
            ++result.injections;
            if (verdict != FailureKind::None) {
                ++result.aceInjections;
                if (verdict == FailureKind::Sdc)
                    ++result.sdc;
                else
                    ++result.due;
            }
        }
    }
    if (result.injections > 0) {
        result.savf = static_cast<double>(result.aceInjections)
            / static_cast<double>(result.injections);
    }
    return result;
}

} // namespace davf::test

#endif // DAVF_TESTS_ENGINE_ORACLE_HH
