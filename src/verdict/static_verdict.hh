/**
 * @file
 * The static verdict backend: judge a campaign cell from the Fig. 9
 * program analyzer instead of the simulator or the hand-curated
 * graph model.  A cell is a Leak iff an exploitable flow survives
 * in the attack's static program after the cell's software
 * mitigation is applied *as a program rewrite* (fence insertion,
 * address masking); hardware defenses and out-of-program
 * mitigations (KPTI, RSB stuffing, L1 flush) are outside a
 * program-level analyzer's scope and yield Undecided.
 */

#ifndef SPECSEC_VERDICT_STATIC_VERDICT_HH
#define SPECSEC_VERDICT_STATIC_VERDICT_HH

#include "core/catalog.hh"
#include "tool/analyzer.hh"

namespace specsec::verdict
{

/**
 * Judge one cell statically for a cataloged attack:
 *
 *  1. Options are canonicalized through the descriptor's
 *     canonicalOptions hook (when present), so toggles the runner
 *     provably ignores never reach the analyzer — exactly the
 *     scoping the simulator applies.
 *  2. Required-vulnerability gate (shared with the model backend):
 *     ablated forwarding path -> Inapplicable.
 *  3. Timing gate (shared): off-default timing knob -> Undecided.
 *  4. Any set hardware defense knob -> Undecided naming the first
 *     (the analyzer sees the program, not the core).
 *  5. Any set out-of-program mitigation (flushL1OnExit, kpti,
 *     rsbStuffing) -> Undecided naming the first; the in-program
 *     ones (softwareLfence / addressMasking) are applied as program
 *     rewrites, which the evidence line names.
 *  6. The (possibly rewritten) program goes through
 *     tool::analyzeSpec: an exploitable flow -> Leak, else Blocked.
 *
 * Gates 3-5 walk attacks::forEachKnob by kind
 * (detail::firstOffDefaultKnob), in its key order.  Steps 5b-6 read
 * only the static program and the canonical softwareLfence and
 * addressMasking, so they run once per process per (variant id,
 * softwareLfence, addressMasking) and later cells copy the judgement
 * (detail::Memo): a variant id names one attack and one static
 * program for the life of the process.  The rewrite and analysis
 * come from detail::analyzedProgram, which lint shares.
 */
core::ModelJudgement
staticJudgement(const core::AttackDescriptor &attack,
                const uarch::CpuConfig &config,
                const attacks::AttackOptions &options);

/**
 * Judge a cell through the catalog: dispatch on @p variant, or
 * return Undecided when the attack exposes no static program.
 */
core::ModelJudgement
judgeScenarioStatic(core::AttackVariant variant,
                    const uarch::CpuConfig &config,
                    const attacks::AttackOptions &options);

namespace detail
{

/** Steps 5b-6 of staticJudgement for one (attack, lfence, mask). */
struct ProgramAnalysis
{
    /// The rewrites made, as the evidence line names them; empty
    /// when none.
    std::string rewrite;
    /// False when addressMasking was asked for but the program
    /// declares no mask point; nothing is analyzed then.
    bool maskable = true;
    /// The attack's static program after the rewrites.
    uarch::Program program;
    tool::AnalysisResult analysis;
};

/**
 * @p attack's static program, rewritten for the in-program
 * mitigations @p lfence and @p mask, and its Fig. 9 analysis: made
 * once per process per (variant id, lfence, mask) (Memo), like the
 * judgements.  staticJudgement reads every entry, lint::lintAttack
 * the (id, false, false) one.  @p attack must have the staticProgram
 * hook.
 */
const ProgramAnalysis &analyzedProgram(const core::AttackDescriptor &attack,
                                       bool lfence, bool mask);

} // namespace detail

} // namespace specsec::verdict

#endif // SPECSEC_VERDICT_STATIC_VERDICT_HH
