#include "static_verdict.hh"

#include <optional>
#include <string>
#include <tuple>

#include "defense/mitigations.hh"
#include "model.hh"
#include "tool/patcher.hh"

namespace specsec::verdict
{

using attacks::AttackOptions;
using attacks::KnobKind;
using core::AttackVariant;
using core::ModelJudgement;
using core::ModelVerdict;
using core::StaticProgramSpec;
using uarch::CpuConfig;

namespace
{

std::optional<std::size_t>
firstBranchPc(const uarch::Program &program)
{
    for (std::size_t pc = 0; pc < program.size(); ++pc)
        if (program.at(pc).op == uarch::Opcode::Branch)
            return pc;
    return std::nullopt;
}

/** Steps 5b-6 of staticJudgement, from the shared analysis. */
ModelJudgement
judgeProgram(const core::AttackDescriptor &attack, bool lfence,
             bool mask)
{
    const detail::ProgramAnalysis &analyzed =
        detail::analyzedProgram(attack, lfence, mask);
    if (!analyzed.maskable) {
        return detail::undecided(
            "addressMasking set but the static program declares "
            "no mask point (branch + maskReg/maskValue)");
    }
    const std::string &rewrite = analyzed.rewrite;
    const tool::AnalysisResult &analysis = analyzed.analysis;
    ModelJudgement j;
    if (analysis.vulnerable) {
        j.verdict = ModelVerdict::Leak;
        j.evidence =
            "static analysis finds " +
            std::to_string(analysis.findings.size()) +
            " missing security dependencies" +
            (rewrite.empty() ? "" : " after " + rewrite) + "; e.g. " +
            (analysis.findings.empty()
                 ? std::string("(no finding detail)")
                 : analysis.findings.front().description);
    } else {
        j.verdict = ModelVerdict::Blocked;
        j.evidence =
            rewrite.empty()
                ? std::string(
                      "static analysis finds no exploitable flow")
                : rewrite + " leaves no exploitable flow (" +
                      std::to_string(analysis.findings.size()) +
                      " residual races)";
    }
    j.rationale =
        "program-level Fig. 9 analysis: exploitable flows in the "
        "attack's static program, not simulated timing";
    return j;
}

} // namespace

const detail::ProgramAnalysis &
detail::analyzedProgram(const core::AttackDescriptor &attack,
                        bool lfence, bool mask)
{
    static Memo<std::tuple<AttackVariant, bool, bool>, ProgramAnalysis>
        analyzed;
    return analyzed.get({attack.id, lfence, mask}, [&] {
        // 5b. In-program mitigations become program rewrites.
        StaticProgramSpec spec = attack.staticProgram();
        ProgramAnalysis out;
        if (lfence) {
            out.rewrite = "lfence-after-branch rewrite (" +
                          std::to_string(defense::insertLfenceAfterBranches(
                              spec.program)) +
                          " fences)";
        }
        if (mask) {
            const std::optional<std::size_t> branch =
                firstBranchPc(spec.program);
            if (!branch || !spec.maskReg || !spec.maskValue) {
                out.maskable = false;
                return out;
            }
            defense::insertMaskAfterBranch(spec.program, *branch,
                                           *spec.maskReg,
                                           *spec.maskValue);
            out.rewrite += out.rewrite.empty() ? "" : " + ";
            out.rewrite += "array_index_nospec index clamp";
        }

        // 6. Analyze the (possibly rewritten) program.
        out.analysis = tool::analyzeSpec(tool::toAnalysisSpec(spec));
        out.program = std::move(spec.program);
        return out;
    });
}

ModelJudgement
staticJudgement(const core::AttackDescriptor &attack,
                const CpuConfig &config, const AttackOptions &options)
{
    if (!attack.staticProgram) {
        return detail::undecided("no static program registered for '" +
                                 attack.name + "'");
    }

    // 1. Canonicalize: drop toggles this attack's runner ignores, so
    //    e.g. a fence-harden column over Meltdown judges the same
    //    cell the simulator runs (the toggle is a no-op there).
    const AttackOptions canonical =
        attack.canonicalOptions ? attack.canonicalOptions(options)
                                : options;

    // 2. Required-vulnerability gate (shared with the model).
    if (std::optional<ModelJudgement> j =
            detail::ablatedPathJudgement(attack.id, config.vuln))
        return std::move(*j);

    // 3. Timing gate (shared).  Canonical options: a timing option
    //    the runner never reads cannot make the cell timing-bound.
    if (const char *knob = detail::firstOffDefaultKnob<KnobKind::Timing>(
            config, canonical)) {
        return detail::undecided(std::string("off-default timing knob '") +
                                 knob +
                                 "'; static analysis orders operations "
                                 "but counts no cycles");
    }

    // 4. Hardware defenses act in the core, not the program text.
    if (const char *hw = detail::firstOffDefaultKnob<KnobKind::HwDefense>(
            config, canonical)) {
        return detail::undecided(std::string("hardware defense '") + hw +
                                 "' is outside the program-level "
                                 "analyzer's scope");
    }

    // 5. Out-of-program software mitigations.
    if (const char *sw = detail::firstOffDefaultKnob<
            KnobKind::OutOfProgramMitigation>(config, canonical)) {
        return detail::undecided(std::string("mitigation '") + sw +
                                 "' acts outside the program (page "
                                 "tables / RSB / L1), which the "
                                 "analyzer does not model");
    }

    // 5b-6 read only the static program and the two in-program
    // toggles: once per process per (variant, lfence, mask).
    static detail::Memo<std::tuple<AttackVariant, bool, bool>,
                        ModelJudgement>
        judged;
    const bool lfence = canonical.softwareLfence;
    const bool mask = canonical.addressMasking;
    return judged.get({attack.id, lfence, mask}, [&] {
        return judgeProgram(attack, lfence, mask);
    });
}

ModelJudgement
judgeScenarioStatic(AttackVariant variant, const CpuConfig &config,
                    const AttackOptions &options)
{
    const core::AttackDescriptor *d =
        core::ScenarioCatalog::instance().findAttack(variant);
    if (d == nullptr)
        return detail::undecided("no attack registered for this variant");
    return staticJudgement(*d, config, options);
}

} // namespace specsec::verdict
