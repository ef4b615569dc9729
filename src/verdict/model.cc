#include "model.hh"

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/attack_graph.hh"
#include "core/security_dependency.hh"

namespace specsec::verdict
{

using attacks::AttackOptions;
using attacks::KnobKind;
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

/**
 * The forwarding path (VulnConfig flag) the attack transmits
 * through, or nullptr when it needs none that can be ablated.
 * Sets @p present to whether the core still has the path.
 */
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

} // anonymous namespace

ModelJudgement
detail::undecided(std::string why)
{
    ModelJudgement j;
    j.verdict = ModelVerdict::Undecided;
    j.evidence = std::move(why);
    return j;
}

std::optional<ModelJudgement>
detail::ablatedPathJudgement(AttackVariant variant,
                             const uarch::VulnConfig &vuln)
{
    bool present = true;
    const char *path = requiredVulnPath(variant, vuln, present);
    if (!path || present)
        return std::nullopt;
    ModelJudgement j;
    j.verdict = ModelVerdict::Inapplicable;
    j.evidence = std::string("core ablates the '") + path +
                 "' forwarding path this attack transmits through";
    return j;
}

namespace
{

/**
 * One defense mechanism the model understands, switched on by the
 * defense or mitigation knob of the same name.
 */
struct MechanismRule
{
    /// The attacks::forEachKnob name of the knob that switches the
    /// mechanism on ("fenceSpeculativeLoads", "kpti", ...), which
    /// evidence lines cite: the knob, not the marketing name.
    const char *knob;

    /// Paper strategy the mechanism realizes.
    DefenseStrategy strategy;

    /// Does the mechanism's security dependency land in this
    /// variant's graph at all?  (kpti guards the kernel mapping only
    /// Meltdown uses; VERW clears buffers only MDS samples; ...)
    bool (*inScope)(AttackVariant);

    /// Known, deliberate model-vs-simulator gap for part of the
    /// scope; pinned in golden/differential-*.json.  Null for rules
    /// whose graph verdict matches the simulator everywhere.
    const char *(*divergence)(AttackVariant);
};

bool
everyVariant(AttackVariant)
{
    return true;
}

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

/// The rules, one per knob they read; a judgement tries them in the
/// knobs' key order, whatever the order here.
constexpr MechanismRule kRules[] = {
    {"fenceSpeculativeLoads", DefenseStrategy::PreventAccess,
     everyVariant, nullptr},
    {"blockSpeculativeForwarding", DefenseStrategy::PreventUse,
     everyVariant, nullptr},
    {"blockTaintedTransmit", DefenseStrategy::PreventSend, everyVariant,
     nullptr},
    {"invisibleSpeculation", DefenseStrategy::PreventSend, everyVariant,
     nullptr},
    {"cleanupSpec", DefenseStrategy::PreventSend, everyVariant, nullptr},
    {"conditionalSpeculation", DefenseStrategy::PreventSend,
     everyVariant, nullptr},
    // DAWG partitions the cache between protection domains: it cuts
    // the transmit only when sender and receiver sit in different
    // domains, i.e. the cross-context predictor attacks.
    {"partitionedCache", DefenseStrategy::PreventSend,
     inCrossContextPredictorFamily, nullptr},
    // IBPB-style flush kills training that crosses the context
    // switch; same-context mistraining (v1 family) retrains after.
    {"flushPredictorOnContextSwitch", DefenseStrategy::ClearPredictions,
     inCrossContextPredictorFamily, nullptr},
    {"noIndirectPrediction", DefenseStrategy::ClearPredictions,
     inCrossContextPredictorFamily, nullptr},
    {"noBranchPrediction", DefenseStrategy::ClearPredictions,
     inPredictionFamily, noBranchPredictionDivergence},
    {"clearBuffersOnContextSwitch", DefenseStrategy::PreventAccess,
     inMdsFamily, nullptr},
    {"eagerFpuSwitch", DefenseStrategy::PreventAccess,
     [](AttackVariant v) { return v == AttackVariant::LazyFp; }, nullptr},
    {"safeStoreBypass", DefenseStrategy::PreventAccess,
     [](AttackVariant v) { return v == AttackVariant::SpectreV4; },
     nullptr},
    {"flushL1OnExit", DefenseStrategy::PreventAccess, inForeshadowFamily,
     nullptr},
    {"kpti", DefenseStrategy::PreventAccess,
     [](AttackVariant v) { return v == AttackVariant::Meltdown; },
     nullptr},
    {"rsbStuffing", DefenseStrategy::ClearPredictions,
     [](AttackVariant v) { return v == AttackVariant::SpectreRsb; },
     nullptr},
    {"softwareLfence", DefenseStrategy::PreventAccess, inBoundsFamily,
     nullptr},
    {"addressMasking", DefenseStrategy::PreventAccess, inBoundsFamily,
     nullptr},
};

/** One knob of attacks::forEachKnob, as the gates and rules read it. */
struct KnobSlot
{
    /// The knob's default value, as the scenario key writes it.
    std::uint64_t defaultValue;
    /// The rule the knob switches on, or null.
    const MechanismRule *rule;
};

/**
 * Every knob's slot, in key order, resolved once per process: a
 * judgement compares values by position and searches no names.
 */
const std::vector<KnobSlot> &
knobSlots()
{
    static const std::vector<KnobSlot> slots = [] {
        const CpuConfig config;
        const AttackOptions options;
        std::vector<KnobSlot> built;
        attacks::forEachKnob(
            config, options,
            [&built](const char *name, KnobKind, const auto &field) {
                const MechanismRule *rule = nullptr;
                for (const MechanismRule &r : kRules)
                    if (std::string_view(r.knob) == name)
                        rule = &r;
                built.push_back(
                    {static_cast<std::uint64_t>(field), rule});
            });
        return built;
    }();
    return slots;
}

/**
 * Apply @p rule's strategy to @p variant's graph: Blocked with the
 * inserted dependency as evidence when it kills every escaping
 * flow, nothing when the strategy has no target in the graph or
 * leaves a flow.
 */
std::optional<ModelJudgement>
ruleJudgement(const MechanismRule &rule, AttackVariant variant,
              const core::AttackDescriptor &d,
              core::CovertChannelKind channel)
{
    AttackGraph g = d.buildGraph(channel);
    const std::vector<graph::Edge> inserted =
        core::applyDefense(g, rule.strategy);
    if (inserted.empty() || g.isVulnerable())
        return std::nullopt;
    ModelJudgement j;
    j.verdict = ModelVerdict::Blocked;
    if (rule.strategy == DefenseStrategy::ClearPredictions) {
        j.evidence = std::string("PredictorFlush spliced into every "
                                 "mistrain->trigger influence "
                                 "(strategy 4, ") +
                     rule.knob + ")";
    } else {
        j.evidence =
            "security dependency " +
            core::describeEdge(g, inserted.front()) + " (strategy " +
            std::to_string(static_cast<int>(rule.strategy)) + ", " +
            rule.knob + ") cuts every escaping flow";
    }
    if (rule.divergence) {
        if (const char *why = rule.divergence(variant))
            j.rationale = why;
    }
    return j;
}

} // anonymous namespace

template <KnobKind Kind>
const char *
detail::firstOffDefaultKnob(const CpuConfig &config,
                            const AttackOptions &options)
{
    const std::vector<KnobSlot> &slots = knobSlots();
    const char *first = nullptr;
    std::size_t i = 0;
    attacks::forEachKnob(
        config, options,
        [&](const char *name, KnobKind kind, const auto &field) {
            if (!first && kind == Kind &&
                static_cast<std::uint64_t>(field) !=
                    slots[i].defaultValue)
                first = name;
            ++i;
        });
    return first;
}

template const char *detail::firstOffDefaultKnob<KnobKind::Timing>(
    const CpuConfig &, const AttackOptions &);
template const char *detail::firstOffDefaultKnob<KnobKind::HwDefense>(
    const CpuConfig &, const AttackOptions &);
template const char *
detail::firstOffDefaultKnob<KnobKind::OutOfProgramMitigation>(
    const CpuConfig &, const AttackOptions &);

ModelJudgement
modelJudgement(AttackVariant variant, const CpuConfig &config,
               const AttackOptions &options)
{
    // 1. Required-vulnerability gate (decidable whatever the timing
    //    knobs say: an ablated forwarding path never forwards).
    if (std::optional<ModelJudgement> j =
            detail::ablatedPathJudgement(variant, config.vuln))
        return std::move(*j);

    // 2. Timing gate.
    if (const char *knob = detail::firstOffDefaultKnob<KnobKind::Timing>(
            config, options)) {
        return detail::undecided(std::string("off-default timing knob '") +
                                 knob +
                                 "'; the graph orders operations but "
                                 "counts no cycles");
    }

    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(variant);
    if (!d || !d->buildGraph) {
        return detail::undecided(
            "no attack graph registered for this variant");
    }

    // Steps 3 and 4 read only the rule, the variant and the channel.
    static detail::Memo<std::tuple<std::size_t, AttackVariant,
                                   core::CovertChannelKind>,
                        std::optional<ModelJudgement>>
        ruleJudgements;
    static detail::Memo<std::pair<AttackVariant, core::CovertChannelKind>,
                        ModelJudgement>
        baselineJudgements;
    const core::CovertChannelKind channel = options.channel;

    // 3. Mechanism rules: the set knobs with a rule, in key order;
    //    the first in-scope rule whose security dependencies kill
    //    every escaping flow wins.
    const std::vector<KnobSlot> &slots = knobSlots();
    const ModelJudgement *blocked = nullptr;
    std::size_t i = 0;
    attacks::forEachKnob(
        config, options,
        [&](const char *, KnobKind, const auto &field) {
            const KnobSlot &slot = slots[i++];
            if (blocked == nullptr && slot.rule &&
                static_cast<std::uint64_t>(field) != slot.defaultValue &&
                slot.rule->inScope(variant)) {
                const std::optional<ModelJudgement> &j =
                    ruleJudgements.get(
                        {static_cast<std::size_t>(slot.rule - kRules),
                         variant, channel},
                        [&] {
                            return ruleJudgement(*slot.rule, variant, *d,
                                                 channel);
                        });
                if (j)
                    blocked = &*j;
            }
        });
    if (blocked)
        return *blocked;

    // 4. Baseline analysis on the undefended graph.
    return baselineJudgements.get({variant, channel}, [&] {
        const core::VulnerabilityWitness w =
            core::analyzeVulnerability(d->buildGraph(channel));
        ModelJudgement j;
        j.verdict =
            w.vulnerable ? ModelVerdict::Leak : ModelVerdict::Blocked;
        j.evidence = w.summary;
        return j;
    });
}

ModelJudgement
judgeScenario(AttackVariant variant, const CpuConfig &config,
              const AttackOptions &options)
{
    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(variant);
    if (!d || !d->modelVerdict) {
        return detail::undecided(
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
