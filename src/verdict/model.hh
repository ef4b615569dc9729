/**
 * @file
 * The analytic verdict model: predict a campaign cell's outcome from
 * the attack graph alone (Theorem 1 / Fig. 8), no simulation.
 *
 * The model is graph-faithful, not golden-fitted: each defense knob
 * maps to the paper strategy it implements plus a mechanism scope
 * (which attacks' graphs the mechanism's security dependency actually
 * lands in), and blocking is decided by applyDefense() +
 * AttackGraph::isVulnerable() on the variant's real graph.  Where the
 * graph model and the cycle-accurate simulator genuinely part ways
 * (e.g. "disable branch prediction" vs Spectre v2's poisoned BTB
 * target), the rule carries a rationale and the divergence is pinned
 * in golden/differential-*.json rather than papered over.
 */

#ifndef SPECSEC_VERDICT_MODEL_HH
#define SPECSEC_VERDICT_MODEL_HH

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "core/catalog.hh"

namespace specsec::verdict
{

/**
 * Judge one cell analytically for a built-in variant:
 *
 *  1. Required-vulnerability gate: if the core ablates a forwarding
 *     path the attack transmits through -> Inapplicable.
 *  2. Timing gate: any timing knob off its default
 *     (detail::firstOffDefaultKnob) -> Undecided naming the knob;
 *     the graph has no notion of cycle counts.
 *  3. Mechanism rules: each set defense toggle / mitigation option
 *     with a rule in scope, in attacks::forEachKnob order, applies
 *     its paper strategy to the variant's attack graph on the cell's
 *     channel; the first one whose inserted security dependencies
 *     kill every escaping flow -> Blocked.
 *  4. Otherwise the baseline analysis runs: a surviving secret flow
 *     -> Leak.
 *
 * Steps 3 and 4 read only the variant, the channel and the rule, so
 * each rule's judgement and the baseline's are made once per process
 * per (rule, variant, channel) and (variant, channel)
 * (detail::Memo): a variant id names one attack, and its graph
 * builder is pure, for the life of the process.  The graph is built
 * only on the first request.
 */
core::ModelJudgement modelJudgement(core::AttackVariant variant,
                                    const uarch::CpuConfig &config,
                                    const attacks::AttackOptions &options);

/**
 * Judge a cell through the catalog: dispatch to the descriptor's
 * modelVerdict hook, or return Undecided ("no model-verdict hook
 * registered") when the attack has none.
 */
core::ModelJudgement judgeScenario(core::AttackVariant variant,
                                   const uarch::CpuConfig &config,
                                   const attacks::AttackOptions &options);

/**
 * The modelVerdict hook registered for built-in variant @p variant
 * (binds modelJudgement).
 */
core::ModelVerdictFn builtinModelVerdict(core::AttackVariant variant);

/**
 * The canonicalOptions hook for built-in variant @p variant: resets
 * every AttackOptions field the variant's runner provably never
 * reads to its default, keeping exactly the fields the runner
 * distinguishes (channel and secretLen always; each toggle only for
 * the family whose runner branches on it).
 */
core::CanonicalOptionsFn
builtinCanonicalOptions(core::AttackVariant variant);

namespace detail
{

/**
 * A process-wide table of judgements, each computed once: get()
 * returns the value stored under @p key, running @p compute on the
 * key's first request.  The model keeps each mechanism rule's
 * judgement per (rule, variant, channel) and the baseline's per
 * (variant, channel) here, the static backend each program analysis
 * per (variant, lfence, mask).  Keys hold the variant id, never a
 * descriptor's address (a caller may judge a copy of a catalog
 * descriptor): a variant id names one attack, with one graph per
 * channel and one static program, for the life of the process.
 * Judgements run on worker threads (the differential backend, the
 * daemon), hence the lock; a stored value never changes or moves,
 * so the reference stays valid.
 */
template <typename Key, typename Value>
class Memo
{
  public:
    template <typename Compute>
    const Value &
    get(const Key &key, Compute &&compute)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = values_.find(key);
        if (it == values_.end())
            it = values_.emplace(key, compute()).first;
        return it->second;
    }

  private:
    std::mutex mutex_;
    std::map<Key, const Value> values_;
};

/** An Undecided judgement with @p why as its evidence. */
core::ModelJudgement undecided(std::string why);

/**
 * Gate 1 of the model and static backends: Inapplicable, naming the
 * path, when the core ablates the forwarding path (VulnConfig flag)
 * the attack transmits through; nothing otherwise.
 */
std::optional<core::ModelJudgement>
ablatedPathJudgement(core::AttackVariant variant,
                     const uarch::VulnConfig &vuln);

/**
 * The name of the first knob of kind @p Kind, in attacks::forEachKnob
 * order, whose value differs from its default, or nullptr.  The
 * toggles default to off, so for the defense and mitigation kinds
 * this is the first set toggle.  The timing gate of the model and
 * static backends asks for KnobKind::Timing (a CPU latency or width,
 * the cache geometry, the secret length, the training rounds, the
 * authorization-delay ablation); the static backend's hardware and
 * out-of-program gates ask for their kinds.  A template so that each
 * gate compares only its own knobs; model.cc instantiates the three.
 */
template <attacks::KnobKind Kind>
const char *firstOffDefaultKnob(const uarch::CpuConfig &config,
                                const attacks::AttackOptions &options);

} // namespace detail

} // namespace specsec::verdict

#endif // SPECSEC_VERDICT_MODEL_HH
