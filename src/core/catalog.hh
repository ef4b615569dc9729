/**
 * @file
 * ScenarioCatalog: the self-describing attack/defense registry.
 *
 * The paper's central claim (Section V-A) is that speculative attacks
 * decompose into reusable steps that *compose* into new variants.
 * The catalog makes that claim an API: every attack is a first-class
 * AttackDescriptor — canonical name + aliases, attack class, paper
 * section, default covert channel, an attack-graph builder hook, and
 * an execute factory running it on the simulator — and every
 * hardware defense / software mitigation registers a matching
 * DefenseDescriptor / MitigationDescriptor.  All dispatch that used
 * to be parallel `switch (variant)` statements (attacks::runVariant,
 * buildAttackGraph, findVariantByName, defenseInfo, applyMitigation)
 * is a catalog lookup, so adding a scenario is one registration call
 * in one file — no enum edit, no switch edits across four layers
 * (examples/custom_attack.cpp proves the seam from out of tree).
 *
 * Built-in descriptors are registered the first time instance() is
 * called, from hooks defined next to the subsystems that own the
 * implementations (src/attacks/builtin_attacks.cc,
 * src/defense/builtin_defenses.cc).  Extensions registered at
 * startup get a synthetic AttackVariant slot at kExtensionIdBase and
 * up, so they flow through scenario keys, dedup, shard reports and
 * the persistent result cache exactly like built-ins.
 */

#ifndef SPECSEC_CORE_CATALOG_HH
#define SPECSEC_CORE_CATALOG_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "attacks/attack_kit.hh"
#include "defense_catalog.hh"
#include "uarch/isa.hh"
#include "variants.hh"

namespace specsec::core
{

/** @return stable human-readable class name. */
const char *attackClassName(AttackClass klass);

/**
 * The execute factory of a registered attack: run the attack on a
 * configured CPU and report the scenario's final pipeline counters.
 * Wrap a plain `(config, options) -> AttackResult` runner with
 * attacks::statsCollectingExecute (runner.hh) to get one.
 */
using AttackExecuteFn = std::function<attacks::AttackResult(
    const uarch::CpuConfig &, const attacks::AttackOptions &,
    uarch::CpuStats &)>;

/** Attack-graph builder hook (the paper figure for the variant). */
using AttackGraphFn = std::function<AttackGraph(CovertChannelKind)>;

/**
 * Verdict of the analysis-only backend (src/verdict/) for one
 * scenario cell, predicted from the attack graph without running the
 * simulator.  Leak / Blocked / Inapplicable are *decided* verdicts:
 * they predict the simulator's leak bit (Leak -> leaked, the other
 * two -> not leaked).  Undecided means the cell's outcome hinges on
 * a timing quantity the graph does not model (a speculation-window
 * ablation, an off-default cache geometry) and only the simulator
 * can tell.
 */
enum class ModelVerdict : std::uint8_t
{
    Leak = 0,         ///< a secret flow escapes every authorization
    Blocked = 1,      ///< an inserted security dependency cuts all flows
    Inapplicable = 2, ///< the core ablates a path the attack requires
    Undecided = 3,    ///< timing-dependent; simulate to find out
};

/** @return stable lower-case verdict name ("leak", "blocked", ...). */
const char *modelVerdictName(ModelVerdict verdict);

/** One analytic verdict plus its graph-derived justification. */
struct ModelJudgement
{
    ModelVerdict verdict = ModelVerdict::Undecided;

    /// One line of evidence: the surviving secret flow, the cutting
    /// security edge, the ablated path, or the timing knob that
    /// forced Undecided.  Deterministic per (variant, config,
    /// options), so differential goldens are stable.
    std::string evidence;

    /// One-line rationale to pin in golden/differential-*.json when
    /// the simulator disagrees with a decided verdict (set by rules
    /// with a known model-vs-simulator gap; empty otherwise).
    std::string rationale;

    /** Decided verdicts predict the simulator's leak bit. */
    bool decided() const { return verdict != ModelVerdict::Undecided; }
    bool predictsLeak() const { return verdict == ModelVerdict::Leak; }
};

/**
 * The analytic-verdict hook of a registered attack: judge a cell
 * from the attack graph alone (src/verdict/model.cc for built-ins).
 * Optional; attacks without the hook are Undecided everywhere, so
 * the differential backend never flags them and the triage backend's
 * conflict tripwire never fires for them.
 */
using ModelVerdictFn = std::function<ModelJudgement(
    const uarch::CpuConfig &, const attacks::AttackOptions &)>;

/**
 * Triage canonicalization hook: map @p options to the representative
 * the execute runner actually distinguishes, resetting every
 * AttackOptions field the runner provably never reads to its default
 * value.  Two cells whose (variant, config, canonical options) agree
 * are the same experiment to the runner, so the triage backend
 * simulates one of them and replicates the result.  Optional; absent
 * means no replication for this attack.  CpuConfig is never
 * canonicalized — every CPU knob feeds the simulated core.
 */
using CanonicalOptionsFn = std::function<attacks::AttackOptions(
    const attacks::AttackOptions &)>;

/** Simulator realization of a defense mechanism. */
using DefenseApplyFn = std::function<void(uarch::CpuConfig &,
                                          attacks::AttackOptions &)>;

/**
 * The static-analysis view of an attack: the concrete ISA program
 * its transient gadget corresponds to, the protected memory ranges
 * holding the secret, and the registers the attacker controls or
 * the program knows on entry.  This is exactly the input of the
 * Section V-C / Fig. 9 analyzer (tool::analyzeSpec); it lives in
 * core so descriptors can carry it without the catalog depending on
 * the tool layer — lint and the static verdict backend convert it.
 */
struct StaticProgramSpec
{
    uarch::Program program;

    /** One memory range holding secrets (tool::ProtectedRange). */
    struct Range
    {
        uarch::Addr base = 0;
        uarch::Addr length = 0;
        std::string name = "secret";
    };
    std::vector<Range> ranges;

    /// Registers holding attacker-controlled program input.
    std::vector<uarch::RegId> attackerRegs;

    /// Registers with known constant values (array bases, bounds).
    std::vector<std::pair<uarch::RegId, uarch::Word>> knownRegs;

    /// array_index_nospec knowledge for the masking rewrite: the
    /// speculated index register and the mask that provably clamps
    /// it into the legal range.  Absent when the shape has no
    /// maskable index (faulting accesses, special-register reads).
    std::optional<uarch::RegId> maskReg;
    std::optional<uarch::Word> maskValue;

    /// Which speculation classes the analysis should consider for
    /// this shape (mirrors tool::ThreatModel).  Branch-family
    /// programs switch off store-bypass so incidental store/load
    /// pairs do not grow spurious disambiguation nodes.
    bool modelBranches = true;
    bool modelFaults = true;
    bool modelStoreBypass = true;
};

/**
 * Build the attack's static program on demand.  Optional: attacks
 * without the hook (pure timing attacks like Spoiler, extensions
 * that never wrote one) are invisible to the lint subsystem and
 * Undecided under the static verdict backend.
 */
using StaticProgramFn = std::function<StaticProgramSpec()>;

/**
 * First AttackVariant slot the catalog hands to attacks registered
 * without an enum value.  Everything below this is reserved for the
 * named enumerators; scenario keys serialize the slot, so built-in
 * keys are byte-identical to the pre-catalog encoding.
 */
inline constexpr std::uint8_t kExtensionIdBase = 64;

/** Self-description of one registered attack. */
struct AttackDescriptor
{
    /// Canonical catalog name ("Spectre v1"); row label in campaign
    /// reports and exports.
    std::string name;

    /// Alternative spellings accepted by name lookup.  Lookup folds
    /// case and punctuation, so "spectre-v1" / "Spectre V1" /
    /// "SpectreV1" are already one alias.
    std::vector<std::string> aliases;

    AttackClass klass = AttackClass::SpectreType;
    std::string cve = "N/A";

    /// Which paper figure/section models it ("Fig. 1", "Sec. V-A").
    std::string paperSection;

    /// Channel the attack's graph and demos default to.
    CovertChannelKind defaultChannel = CovertChannelKind::FlushReload;

    /// Build the paper's attack graph for this variant (optional but
    /// expected; core::composeAttack covers composed variants).
    AttackGraphFn buildGraph;

    /// Run the attack on the simulator (optional for model-only
    /// entries; required to appear in campaign grids).
    AttackExecuteFn execute;

    /// Judge a cell analytically, next to the execute factory: the
    /// model/differential/triage backends (src/verdict/) dispatch
    /// here.  Optional — see ModelVerdictFn for absent semantics.
    ModelVerdictFn modelVerdict;

    /// Canonicalize AttackOptions for triage replication (see
    /// CanonicalOptionsFn).  Optional.
    CanonicalOptionsFn canonicalOptions;

    /// Build the variant's static program for the Fig. 9 analyzer
    /// (lint + static verdict backend).  Optional — see
    /// StaticProgramFn for absent semantics.
    StaticProgramFn staticProgram;

    /// Built-in enum slot.  Leave empty for out-of-tree attacks:
    /// registerAttack assigns a synthetic slot >= kExtensionIdBase.
    std::optional<AttackVariant> variant;

    /// Catalog-assigned numeric identity (== *variant when set).
    /// Set by registerAttack; scenario keys serialize this value.
    AttackVariant id{};

    /** True when this attack has no named enumerator. */
    bool isExtension() const { return !variant.has_value(); }
};

/** Self-description of one registered defense mechanism. */
struct DefenseDescriptor
{
    /// The paper metadata (name, origin, strategy, description,
    /// designed-against list).  info.name is the canonical catalog
    /// name; for built-ins info.mechanism == *mechanism.
    DefenseInfo info;

    /// Alternative spellings accepted by name lookup.
    std::vector<std::string> aliases;

    /// Built-in enum slot; empty for out-of-tree defenses.
    std::optional<DefenseMechanism> mechanism;

    /// Configure the simulated CPU / scenario options to realize the
    /// mechanism (the body of the old applyMitigation switch).
    DefenseApplyFn apply;
};

/**
 * The AttackOptions toggles a software mitigation sets.  Data-only
 * (mirrors campaign::SoftwareMitigation): toggles are OR-ed into the
 * baseline options, never cleared, so a sweep entry is fully
 * described by its fields and dedup/exports stay deterministic.
 */
struct MitigationToggles
{
    bool kpti = false;           ///< unmap kernel pages (Meltdown)
    bool rsbStuffing = false;    ///< benign RSB refill (Spectre-RSB)
    bool softwareLfence = false; ///< LFENCE after bounds checks
    bool addressMasking = false; ///< index masking after bounds checks
    bool flushL1OnExit = false;  ///< L1 flush on exit (Foreshadow)

    /** OR the set toggles into @p options (never clears). */
    void applyTo(attacks::AttackOptions &options) const;
};

/** Self-description of one software-mitigation sweep value. */
struct MitigationDescriptor
{
    /// Canonical catalog name ("kpti"); sweep label in reports.
    std::string name;
    std::vector<std::string> aliases;
    std::string description;
    MitigationToggles toggles;

    /** OR the toggles into @p options. */
    void applyTo(attacks::AttackOptions &options) const
    {
        toggles.applyTo(options);
    }
};

class ScenarioCatalog;

namespace detail
{
/// Built-in registration hooks, defined next to the subsystems that
/// own the runners (src/attacks/builtin_attacks.cc) and the
/// simulator realizations (src/defense/builtin_defenses.cc).
/// instance() calls each exactly once; referencing them from
/// catalog.cc is what links the registration objects into every
/// binary using the catalog.
void registerBuiltinAttacks(ScenarioCatalog &catalog);
void registerBuiltinDefenses(ScenarioCatalog &catalog);
void registerBuiltinMitigations(ScenarioCatalog &catalog);
} // namespace detail

/**
 * The process-wide registry of attacks, defenses and mitigations.
 *
 * Registration normally happens once at startup (built-ins lazily on
 * first instance() use; extensions from static registrars or main),
 * but every member is thread-safe, so campaign worker threads can
 * look descriptors up concurrently.  Descriptors are stored behind
 * stable pointers: a `const AttackDescriptor *` stays valid for the
 * catalog's lifetime regardless of later registrations.
 *
 * Name lookup folds case and punctuation ("Spectre v1" ==
 * "spectre-v1" == "SpectreV1") and matches canonical names and
 * aliases alike.  Registration throws std::invalid_argument on any
 * collision — two descriptors sharing a folded name/alias, a reused
 * enum slot, or an exhausted extension id space — so a conflicting
 * extension fails loudly at startup instead of shadowing an attack.
 */
class ScenarioCatalog
{
  public:
    /** The global catalog, with every built-in registered. */
    static ScenarioCatalog &instance();

    /** Construct an empty catalog (tests; no built-ins). */
    ScenarioCatalog() = default;

    ScenarioCatalog(const ScenarioCatalog &) = delete;
    ScenarioCatalog &operator=(const ScenarioCatalog &) = delete;

    /// @name Attacks
    /// @{

    /**
     * Register @p descriptor, assigning descriptor.id (the enum slot
     * when set, else the next free extension slot).
     *
     * @return the stored descriptor (stable address).
     * @throws std::invalid_argument on name/alias/slot collision.
     */
    const AttackDescriptor &registerAttack(AttackDescriptor descriptor);

    /** @return the attack called @p name (any alias), or nullptr. */
    const AttackDescriptor *findAttack(const std::string &name) const;

    /** @return the attack occupying slot @p id, or nullptr. */
    const AttackDescriptor *findAttack(AttackVariant id) const;

    /** Every registered attack, in registration order (built-ins
     *  first, in Table III order). */
    std::vector<const AttackDescriptor *> attacks() const;

    /** Canonical names of the closest registered attacks to
     *  @p name — the "did you mean" list for unknown-name errors. */
    std::vector<std::string>
    attackSuggestions(const std::string &name, std::size_t max = 3) const;

    /// @}
    /// @name Defenses
    /// @{

    const DefenseDescriptor &
    registerDefense(DefenseDescriptor descriptor);

    const DefenseDescriptor *findDefense(const std::string &name) const;

    const DefenseDescriptor *findDefense(DefenseMechanism mechanism) const;

    /** Every registered defense, registration order (Table II order). */
    std::vector<const DefenseDescriptor *> defenses() const;

    std::vector<std::string>
    defenseSuggestions(const std::string &name, std::size_t max = 3) const;

    /// @}
    /// @name Software mitigations
    /// @{

    const MitigationDescriptor &
    registerMitigation(MitigationDescriptor descriptor);

    const MitigationDescriptor *
    findMitigation(const std::string &name) const;

    std::vector<const MitigationDescriptor *> mitigations() const;

    std::vector<std::string>
    mitigationSuggestions(const std::string &name,
                          std::size_t max = 3) const;

    /// @}

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<AttackDescriptor>> attacks_;
    std::unordered_map<std::string, const AttackDescriptor *>
        attackByName_;
    std::unordered_map<std::uint8_t, const AttackDescriptor *>
        attackById_;
    std::uint8_t nextExtensionId_ = kExtensionIdBase;

    std::vector<std::unique_ptr<DefenseDescriptor>> defenses_;
    std::unordered_map<std::string, const DefenseDescriptor *>
        defenseByName_;
    std::unordered_map<std::uint8_t, const DefenseDescriptor *>
        defenseByMechanism_;

    std::vector<std::unique_ptr<MitigationDescriptor>> mitigations_;
    std::unordered_map<std::string, const MitigationDescriptor *>
        mitigationByName_;
};

/**
 * The case/punctuation-insensitive key both sides of every catalog
 * name lookup use: lower-cased alphanumerics only ("Spectre v1.1"
 * -> "spectrev11").
 */
std::string foldName(const std::string &name);

/**
 * The closest @p candidates to @p query by edit distance over folded
 * names, nearest first (ties break on candidate order).  Candidates
 * further than max(2, |query|/3) edits are never suggested; at most
 * @p max survive.  Shared by every "did you mean" error in the tree
 * (catalog lookups, regress spec names, CLI parsing).
 */
std::vector<std::string>
suggestNames(const std::vector<std::string> &candidates,
             const std::string &query, std::size_t max = 3);

/**
 * Render the standard unknown-name error: "unknown <kind> '<name>'"
 * plus a "did you mean" tail when @p suggestions is non-empty.
 */
std::string unknownNameMessage(const std::string &kind,
                               const std::string &name,
                               const std::vector<std::string> &suggestions);

} // namespace specsec::core

#endif // SPECSEC_CORE_CATALOG_HH
