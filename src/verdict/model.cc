#include "model.hh"

#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "core/attack_graph.hh"
#include "core/security_dependency.hh"

namespace specsec::verdict
{

using attacks::AttackOptions;
using core::AttackGraph;
using core::AttackVariant;
using core::DefenseStrategy;
using core::ModelJudgement;
using core::ModelVerdict;
using uarch::CpuConfig;

namespace
{

bool
oneOf(AttackVariant v, std::initializer_list<AttackVariant> set)
{
    for (const AttackVariant s : set) {
        if (v == s)
            return true;
    }
    return false;
}

/// Bounds-bypass family: the software LFENCE / address-masking
/// mitigations guard the bounds check these variants bypass.
bool
inBoundsFamily(AttackVariant v)
{
    return oneOf(v, {AttackVariant::SpectreV1, AttackVariant::SpectreV1_1,
                     AttackVariant::SpectreV1_2});
}

/// Conditional-branch prediction family: variants whose trigger is a
/// predicted branch the "disable branch prediction" knob stalls.
bool
inPredictionFamily(AttackVariant v)
{
    return inBoundsFamily(v) || v == AttackVariant::SpectreV2;
}

/// Cross-protection-domain predictor attacks: training happens in the
/// attacker's context, the trigger fires in the victim's, so
/// context-switch predictor flushes and domain partitioning bite.
bool
inCrossContextPredictorFamily(AttackVariant v)
{
    return oneOf(v, {AttackVariant::SpectreV2, AttackVariant::SpectreRsb});
}

/// MDS buffer-residue family (VERW clearing is the defense).
bool
inMdsFamily(AttackVariant v)
{
    return oneOf(v, {AttackVariant::Ridl, AttackVariant::ZombieLoad,
                     AttackVariant::Fallout, AttackVariant::Taa,
                     AttackVariant::Cacheout});
}

bool
inForeshadowFamily(AttackVariant v)
{
    return oneOf(v, {AttackVariant::Foreshadow, AttackVariant::ForeshadowOs,
                     AttackVariant::ForeshadowVmm});
}

} // anonymous namespace

namespace detail
{

const char *
requiredVulnPath(AttackVariant v, const uarch::VulnConfig &vuln,
                 bool &present)
{
    present = true;
    switch (v) {
      case AttackVariant::Meltdown:
        present = vuln.meltdown;
        return "meltdown";
      case AttackVariant::MeltdownV3a:
        present = vuln.msr;
        return "msr";
      case AttackVariant::Foreshadow:
      case AttackVariant::ForeshadowOs:
      case AttackVariant::ForeshadowVmm:
        present = vuln.l1tf;
        return "l1tf";
      case AttackVariant::LazyFp:
        present = vuln.lazyFp;
        return "lazyFp";
      case AttackVariant::SpectreV4:
        present = vuln.storeBypass;
        return "storeBypass";
      case AttackVariant::Ridl:
      case AttackVariant::ZombieLoad:
      case AttackVariant::Fallout:
      case AttackVariant::Cacheout:
        present = vuln.mds;
        return "mds";
      case AttackVariant::Taa:
        present = vuln.taa;
        return "taa";
      default:
        return nullptr;
    }
}

} // namespace detail

namespace
{

ModelJudgement
undecided(std::string why)
{
    ModelJudgement j;
    j.verdict = ModelVerdict::Undecided;
    j.evidence = std::move(why);
    return j;
}

} // anonymous namespace

namespace detail
{

/**
 * Timing gate: the attack graph orders operations but counts no
 * cycles, so any off-default timing quantity makes the cell's
 * outcome simulation-only.  Defense toggles, vulnerability ablations
 * and the covert-channel choice are structural, not timing, and are
 * never gated here.
 */
bool
timingKnobOffDefault(const CpuConfig &config,
                     const AttackOptions &options, std::string &knob)
{
    static const CpuConfig kDefaultConfig;
    static const AttackOptions kDefaultOptions;
    const auto check = [&](bool offDefault, const char *name) {
        if (offDefault && knob.empty())
            knob = name;
        return offDefault;
    };
    bool off = false;
    off |= check(config.robSize != kDefaultConfig.robSize, "robSize");
    off |= check(config.fetchWidth != kDefaultConfig.fetchWidth,
                 "fetchWidth");
    off |= check(config.commitWidth != kDefaultConfig.commitWidth,
                 "commitWidth");
    off |= check(config.permCheckLatency !=
                     kDefaultConfig.permCheckLatency,
                 "permCheckLatency");
    off |= check(config.branchResolveLatency !=
                     kDefaultConfig.branchResolveLatency,
                 "branchResolveLatency");
    off |= check(config.retResolveLatency !=
                     kDefaultConfig.retResolveLatency,
                 "retResolveLatency");
    off |= check(config.exceptionDeliveryLatency !=
                     kDefaultConfig.exceptionDeliveryLatency,
                 "exceptionDeliveryLatency");
    off |= check(config.txnAbortDetectLatency !=
                     kDefaultConfig.txnAbortDetectLatency,
                 "txnAbortDetectLatency");
    off |= check(config.partialAliasPenalty !=
                     kDefaultConfig.partialAliasPenalty,
                 "partialAliasPenalty");
    off |= check(config.physAliasPenalty !=
                     kDefaultConfig.physAliasPenalty,
                 "physAliasPenalty");
    off |= check(config.rsbDepth != kDefaultConfig.rsbDepth, "rsbDepth");
    off |= check(config.lfbEntries != kDefaultConfig.lfbEntries,
                 "lfbEntries");
    off |= check(config.cache.sets != kDefaultConfig.cache.sets,
                 "cache.sets");
    off |= check(config.cache.ways != kDefaultConfig.cache.ways,
                 "cache.ways");
    off |= check(config.cache.lineSize != kDefaultConfig.cache.lineSize,
                 "cache.lineSize");
    off |= check(config.cache.hitLatency !=
                     kDefaultConfig.cache.hitLatency,
                 "cache.hitLatency");
    off |= check(config.cache.missLatency !=
                     kDefaultConfig.cache.missLatency,
                 "cache.missLatency");
    off |= check(options.secretLen != kDefaultOptions.secretLen,
                 "secretLen");
    off |= check(options.trainingRounds != kDefaultOptions.trainingRounds,
                 "trainingRounds");
    off |= check(options.delayAuthorization !=
                     kDefaultOptions.delayAuthorization,
                 "delayAuthorization");
    return off;
}

} // namespace detail

namespace
{

/**
 * @p d's attack graph on @p channel, built once per process per
 * (variant, channel) and copied per use, the way every scenario
 * copies the one layout page table: graph builders are pure, and a
 * variant id names one attack for the life of the process.  Always
 * a copy, because a judgement edits its graph (applyDefense) and
 * even a const Tsg fills its successor cache; the shared graph is
 * only ever copied from.  Judgements run on worker threads (the
 * differential backend, the daemon), hence the lock.
 */
AttackGraph
attackGraph(AttackVariant variant, const core::AttackDescriptor &d,
            core::CovertChannelKind channel)
{
    static std::mutex mutex;
    static std::map<std::pair<AttackVariant, core::CovertChannelKind>,
                    const AttackGraph>
        built;
    const AttackGraph *graph = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = built.find({variant, channel});
        if (it == built.end())
            it = built.emplace(std::pair{variant, channel},
                               d.buildGraph(channel))
                     .first;
        graph = &it->second;
    }
    // A map node never moves and its graph is never written again,
    // so the copy can run outside the lock.
    return *graph;
}

/** One defense mechanism the model understands. */
struct MechanismRule
{
    /// Human label for evidence lines ("fenceSpeculativeLoads",
    /// "kpti", ...): the knob, not the marketing name.
    const char *label;

    /// Paper strategy the mechanism realizes.
    DefenseStrategy strategy;

    /// Is the knob set in this cell?
    bool (*active)(const CpuConfig &, const AttackOptions &);

    /// Does the mechanism's security dependency land in this
    /// variant's graph at all?  (kpti guards the kernel mapping only
    /// Meltdown uses; VERW clears buffers only MDS samples; ...)
    bool (*inScope)(AttackVariant);

    /// Known, deliberate model-vs-simulator gap for part of the
    /// scope; pinned in golden/differential-*.json.  Null for rules
    /// whose graph verdict matches the simulator everywhere.
    const char *(*divergence)(AttackVariant);
};

const char *
noBranchPredictionDivergence(AttackVariant v)
{
    if (v != AttackVariant::SpectreV2)
        return nullptr;
    return "graph model: stalling prediction cuts mistrain->trigger "
           "influence; simulator: the stall applies to conditional "
           "branches only, the poisoned indirect-branch target still "
           "steers the transient path";
}

constexpr MechanismRule kRules[] = {
    // HwDefenseConfig, field order.
    {"fenceSpeculativeLoads", DefenseStrategy::PreventAccess,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.fenceSpeculativeLoads;
     },
     [](AttackVariant) { return true; }, nullptr},
    {"blockSpeculativeForwarding", DefenseStrategy::PreventUse,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.blockSpeculativeForwarding;
     },
     [](AttackVariant) { return true; }, nullptr},
    {"blockTaintedTransmit", DefenseStrategy::PreventSend,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.blockTaintedTransmit;
     },
     [](AttackVariant) { return true; }, nullptr},
    {"invisibleSpeculation", DefenseStrategy::PreventSend,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.invisibleSpeculation;
     },
     [](AttackVariant) { return true; }, nullptr},
    {"cleanupSpec", DefenseStrategy::PreventSend,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.cleanupSpec;
     },
     [](AttackVariant) { return true; }, nullptr},
    {"conditionalSpeculation", DefenseStrategy::PreventSend,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.conditionalSpeculation;
     },
     [](AttackVariant) { return true; }, nullptr},
    // DAWG partitions the cache between protection domains: it cuts
    // the transmit only when sender and receiver sit in different
    // domains, i.e. the cross-context predictor attacks.
    {"partitionedCache", DefenseStrategy::PreventSend,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.partitionedCache;
     },
     inCrossContextPredictorFamily, nullptr},
    // IBPB-style flush kills training that crosses the context
    // switch; same-context mistraining (v1 family) retrains after.
    {"flushPredictorOnContextSwitch", DefenseStrategy::ClearPredictions,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.flushPredictorOnContextSwitch;
     },
     inCrossContextPredictorFamily, nullptr},
    {"noIndirectPrediction", DefenseStrategy::ClearPredictions,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.noIndirectPrediction;
     },
     inCrossContextPredictorFamily, nullptr},
    {"noBranchPrediction", DefenseStrategy::ClearPredictions,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.noBranchPrediction;
     },
     inPredictionFamily, noBranchPredictionDivergence},
    {"clearBuffersOnContextSwitch", DefenseStrategy::PreventAccess,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.clearBuffersOnContextSwitch;
     },
     inMdsFamily, nullptr},
    {"eagerFpuSwitch", DefenseStrategy::PreventAccess,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.eagerFpuSwitch;
     },
     [](AttackVariant v) { return v == AttackVariant::LazyFp; }, nullptr},
    {"safeStoreBypass", DefenseStrategy::PreventAccess,
     [](const CpuConfig &c, const AttackOptions &) {
         return c.defense.safeStoreBypass;
     },
     [](AttackVariant v) { return v == AttackVariant::SpectreV4; },
     nullptr},
    // Software mitigations (AttackOptions), declaration order.
    {"flushL1OnExit", DefenseStrategy::PreventAccess,
     [](const CpuConfig &, const AttackOptions &o) {
         return o.flushL1OnExit;
     },
     inForeshadowFamily, nullptr},
    {"kpti", DefenseStrategy::PreventAccess,
     [](const CpuConfig &, const AttackOptions &o) { return o.kpti; },
     [](AttackVariant v) { return v == AttackVariant::Meltdown; },
     nullptr},
    {"rsbStuffing", DefenseStrategy::ClearPredictions,
     [](const CpuConfig &, const AttackOptions &o) {
         return o.rsbStuffing;
     },
     [](AttackVariant v) { return v == AttackVariant::SpectreRsb; },
     nullptr},
    {"softwareLfence", DefenseStrategy::PreventAccess,
     [](const CpuConfig &, const AttackOptions &o) {
         return o.softwareLfence;
     },
     inBoundsFamily, nullptr},
    {"addressMasking", DefenseStrategy::PreventAccess,
     [](const CpuConfig &, const AttackOptions &o) {
         return o.addressMasking;
     },
     inBoundsFamily, nullptr},
};

} // anonymous namespace

ModelJudgement
modelJudgement(AttackVariant variant, const CpuConfig &config,
               const AttackOptions &options)
{
    // 1. Required-vulnerability gate (decidable whatever the timing
    //    knobs say: an ablated forwarding path never forwards).
    bool present = true;
    if (const char *path =
            detail::requiredVulnPath(variant, config.vuln, present);
        path && !present) {
        ModelJudgement j;
        j.verdict = ModelVerdict::Inapplicable;
        j.evidence = std::string("core ablates the '") + path +
                     "' forwarding path this attack transmits through";
        return j;
    }

    // 2. Timing gate.
    std::string knob;
    if (detail::timingKnobOffDefault(config, options, knob)) {
        return undecided("off-default timing knob '" + knob +
                         "'; the graph orders operations but counts "
                         "no cycles");
    }

    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(variant);
    if (!d || !d->buildGraph)
        return undecided("no attack graph registered for this variant");

    // 3. Mechanism rules: first active in-scope mechanism whose
    //    security dependencies kill every escaping flow wins.
    for (const MechanismRule &rule : kRules) {
        if (!rule.active(config, options) || !rule.inScope(variant))
            continue;
        AttackGraph g = attackGraph(variant, *d, options.channel);
        const std::vector<graph::Edge> inserted =
            core::applyDefense(g, rule.strategy);
        if (inserted.empty())
            continue; // strategy has no target in this graph
        if (g.isVulnerable())
            continue; // applied but insufficient
        ModelJudgement j;
        j.verdict = ModelVerdict::Blocked;
        if (rule.strategy == DefenseStrategy::ClearPredictions) {
            j.evidence = std::string("PredictorFlush spliced into every "
                                     "mistrain->trigger influence "
                                     "(strategy 4, ") +
                         rule.label + ")";
        } else {
            j.evidence =
                "security dependency " +
                core::describeEdge(g, inserted.front()) + " (strategy " +
                std::to_string(static_cast<int>(rule.strategy)) + ", " +
                rule.label + ") cuts every escaping flow";
        }
        if (rule.divergence) {
            if (const char *why = rule.divergence(variant))
                j.rationale = why;
        }
        return j;
    }

    // 4. Baseline analysis on the undefended graph.
    const AttackGraph g = attackGraph(variant, *d, options.channel);
    const core::VulnerabilityWitness w = core::analyzeVulnerability(g);
    ModelJudgement j;
    j.verdict = w.vulnerable ? ModelVerdict::Leak : ModelVerdict::Blocked;
    j.evidence = w.summary;
    return j;
}

ModelJudgement
judgeScenario(AttackVariant variant, const CpuConfig &config,
              const AttackOptions &options)
{
    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(variant);
    if (!d || !d->modelVerdict) {
        return undecided(
            "no model-verdict hook registered for this attack");
    }
    return d->modelVerdict(config, options);
}

core::ModelVerdictFn
builtinModelVerdict(AttackVariant variant)
{
    return [variant](const CpuConfig &config,
                     const AttackOptions &options) {
        return modelJudgement(variant, config, options);
    };
}

core::CanonicalOptionsFn
builtinCanonicalOptions(AttackVariant variant)
{
    return [variant](const AttackOptions &options) {
        AttackOptions canon; // defaults
        canon.channel = options.channel;
        canon.secretLen = options.secretLen;
        switch (variant) {
          case AttackVariant::SpectreV1:
            canon.softwareLfence = options.softwareLfence;
            canon.addressMasking = options.addressMasking;
            canon.trainingRounds = options.trainingRounds;
            canon.delayAuthorization = options.delayAuthorization;
            break;
          case AttackVariant::SpectreV1_1:
          case AttackVariant::SpectreV1_2:
            canon.softwareLfence = options.softwareLfence;
            canon.addressMasking = options.addressMasking;
            canon.trainingRounds = options.trainingRounds;
            break;
          case AttackVariant::SpectreV2:
            canon.trainingRounds = options.trainingRounds;
            break;
          case AttackVariant::SpectreRsb:
            canon.trainingRounds = options.trainingRounds;
            canon.rsbStuffing = options.rsbStuffing;
            break;
          case AttackVariant::Meltdown:
            canon.kpti = options.kpti;
            break;
          case AttackVariant::Foreshadow:
          case AttackVariant::ForeshadowOs:
          case AttackVariant::ForeshadowVmm:
            canon.flushL1OnExit = options.flushL1OnExit;
            break;
          default:
            // MeltdownV3a, LazyFp, SpectreV4, MDS family, Lvi: the
            // runner reads channel and secretLen only.
            break;
        }
        return canon;
    };
}

} // namespace specsec::verdict
