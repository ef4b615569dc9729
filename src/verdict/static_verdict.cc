#include "static_verdict.hh"

#include <string>

#include "defense/mitigations.hh"
#include "model.hh"
#include "tool/patcher.hh"

namespace specsec::verdict
{

using attacks::AttackOptions;
using core::AttackVariant;
using core::ModelJudgement;
using core::ModelVerdict;
using core::StaticProgramSpec;
using uarch::CpuConfig;

namespace
{

StaticJudgement
undecided(std::string why)
{
    StaticJudgement j;
    j.judgement.verdict = ModelVerdict::Undecided;
    j.judgement.evidence = std::move(why);
    return j;
}

/** Name of the first set hardware defense knob, or nullptr. */
const char *
firstHwDefenseKnob(const uarch::HwDefenseConfig &d)
{
    if (d.fenceSpeculativeLoads)
        return "fenceSpeculativeLoads";
    if (d.blockSpeculativeForwarding)
        return "blockSpeculativeForwarding";
    if (d.blockTaintedTransmit)
        return "blockTaintedTransmit";
    if (d.invisibleSpeculation)
        return "invisibleSpeculation";
    if (d.cleanupSpec)
        return "cleanupSpec";
    if (d.conditionalSpeculation)
        return "conditionalSpeculation";
    if (d.partitionedCache)
        return "partitionedCache";
    if (d.flushPredictorOnContextSwitch)
        return "flushPredictorOnContextSwitch";
    if (d.noIndirectPrediction)
        return "noIndirectPrediction";
    if (d.noBranchPrediction)
        return "noBranchPrediction";
    if (d.clearBuffersOnContextSwitch)
        return "clearBuffersOnContextSwitch";
    if (d.eagerFpuSwitch)
        return "eagerFpuSwitch";
    if (d.safeStoreBypass)
        return "safeStoreBypass";
    return nullptr;
}

/** First out-of-program software mitigation set, or nullptr. */
const char *
firstOutOfProgramToggle(const AttackOptions &options)
{
    if (options.kpti)
        return "kpti";
    if (options.rsbStuffing)
        return "rsbStuffing";
    if (options.flushL1OnExit)
        return "flushL1OnExit";
    return nullptr;
}

std::optional<std::size_t>
firstBranchPc(const uarch::Program &program)
{
    for (std::size_t pc = 0; pc < program.size(); ++pc)
        if (program.at(pc).op == uarch::Opcode::Branch)
            return pc;
    return std::nullopt;
}

} // namespace

StaticJudgement
staticJudgement(const core::AttackDescriptor &attack,
                const CpuConfig &config, const AttackOptions &options)
{
    if (!attack.staticProgram) {
        return undecided("no static program registered for '" +
                         attack.name + "'");
    }

    // 1. Canonicalize: drop toggles this attack's runner ignores, so
    //    e.g. a fence-harden column over Meltdown judges the same
    //    cell the simulator runs (the toggle is a no-op there).
    const AttackOptions canonical =
        attack.canonicalOptions ? attack.canonicalOptions(options)
                                : options;

    // 2. Required-vulnerability gate (shared with the model).
    bool present = true;
    if (const char *path = detail::requiredVulnPath(
            attack.id, config.vuln, present);
        path && !present) {
        StaticJudgement j;
        j.judgement.verdict = ModelVerdict::Inapplicable;
        j.judgement.evidence =
            std::string("core ablates the '") + path +
            "' forwarding path this attack transmits through";
        return j;
    }

    // 3. Timing gate (shared).  Canonical options: a timing option
    //    the runner never reads cannot make the cell timing-bound.
    std::string knob;
    if (detail::timingKnobOffDefault(config, canonical, knob)) {
        return undecided("off-default timing knob '" + knob +
                         "'; static analysis orders operations but "
                         "counts no cycles");
    }

    // 4. Hardware defenses act in the core, not the program text.
    if (const char *hw = firstHwDefenseKnob(config.defense)) {
        return undecided(std::string("hardware defense '") + hw +
                         "' is outside the program-level analyzer's "
                         "scope");
    }

    // 5. Out-of-program software mitigations.
    if (const char *sw = firstOutOfProgramToggle(canonical)) {
        return undecided(std::string("mitigation '") + sw +
                         "' acts outside the program (page tables / "
                         "RSB / L1), which the analyzer does not "
                         "model");
    }

    // 5b. In-program mitigations become program rewrites.
    StaticProgramSpec spec = attack.staticProgram();
    StaticJudgement j;
    std::string rewrite;
    if (canonical.softwareLfence) {
        j.fencesInserted =
            defense::insertLfenceAfterBranches(spec.program);
        j.extraInstructions += j.fencesInserted;
        rewrite = "lfence-after-branch rewrite (" +
                  std::to_string(j.fencesInserted) + " fences)";
    }
    if (canonical.addressMasking) {
        const std::optional<std::size_t> branch =
            firstBranchPc(spec.program);
        if (!branch || !spec.maskReg || !spec.maskValue) {
            return undecided(
                "addressMasking set but the static program declares "
                "no mask point (branch + maskReg/maskValue)");
        }
        defense::insertMaskAfterBranch(spec.program, *branch,
                                       *spec.maskReg, *spec.maskValue);
        j.masksInserted = 1;
        j.extraInstructions += 1;
        rewrite += rewrite.empty() ? "" : " + ";
        rewrite += "array_index_nospec index clamp";
    }

    // 6. Analyze the (possibly rewritten) program.
    const tool::AnalysisResult analysis =
        tool::analyzeSpec(tool::toAnalysisSpec(spec));
    if (analysis.vulnerable) {
        j.judgement.verdict = ModelVerdict::Leak;
        j.judgement.evidence =
            "static analysis finds " +
            std::to_string(analysis.findings.size()) +
            " missing security dependencies" +
            (rewrite.empty() ? "" : " after " + rewrite) + "; e.g. " +
            (analysis.findings.empty()
                 ? std::string("(no finding detail)")
                 : analysis.findings.front().description);
    } else {
        j.judgement.verdict = ModelVerdict::Blocked;
        j.judgement.evidence =
            rewrite.empty()
                ? std::string(
                      "static analysis finds no exploitable flow")
                : rewrite + " leaves no exploitable flow (" +
                      std::to_string(analysis.findings.size()) +
                      " residual races)";
    }
    j.judgement.rationale =
        "program-level Fig. 9 analysis: exploitable flows in the "
        "attack's static program, not simulated timing";
    return j;
}

StaticJudgement
judgeScenarioStatic(AttackVariant variant, const CpuConfig &config,
                    const AttackOptions &options)
{
    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(variant);
    if (d == nullptr)
        return undecided("no attack registered for this variant");
    return staticJudgement(*d, config, options);
}

} // namespace specsec::verdict
