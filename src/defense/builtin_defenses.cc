/**
 * @file
 * Registration of every built-in defense and software mitigation
 * with the ScenarioCatalog: one DefenseDescriptor per Table II /
 * Section V-B mechanism, pairing the paper metadata (strategy,
 * origin, designed-against list — previously the table in
 * core/defense_catalog.cc) with its simulator realization
 * (previously the switch in defense/mitigations.cc), and one
 * MitigationDescriptor per software-mitigation sweep value.
 */

#include "core/catalog.hh"

namespace specsec::core::detail
{

namespace
{

using enum AttackVariant;
using enum DefenseMechanism;
using enum DefenseOrigin;
using enum DefenseStrategy;

using attacks::AttackOptions;
using uarch::CpuConfig;

/** Spectre bounds-bypass family (Table II row "address masking"). */
const std::vector<AttackVariant> kBoundsFamily = {
    SpectreV1, SpectreV1_1, SpectreV1_2};

/** Branch-prediction-based family (Table II "prevent mis-training"). */
const std::vector<AttackVariant> kPredictionFamily = {
    SpectreV1, SpectreV1_1, SpectreV1_2, SpectreV2};

/** Every variant that exfiltrates through the cache covert channel. */
const std::vector<AttackVariant> kCacheChannelFamily = {
    SpectreV1, SpectreV1_1, SpectreV1_2, SpectreV2, Meltdown,
    MeltdownV3a, SpectreV4, SpectreRsb, Foreshadow, ForeshadowOs,
    ForeshadowVmm, LazyFp, Ridl, ZombieLoad, Fallout, Lvi, Taa,
    Cacheout};

/** Realizations shared by several mechanisms. */
void
setSoftwareLfence(CpuConfig &, AttackOptions &options)
{
    options.softwareLfence = true;
}

void
setKpti(CpuConfig &, AttackOptions &options)
{
    options.kpti = true;
}

void
setAddressMasking(CpuConfig &, AttackOptions &options)
{
    options.addressMasking = true;
}

void
setFlushPredictor(CpuConfig &config, AttackOptions &)
{
    config.defense.flushPredictorOnContextSwitch = true;
}

void
setSafeStoreBypass(CpuConfig &config, AttackOptions &)
{
    config.defense.safeStoreBypass = true;
}

void
setBlockForwarding(CpuConfig &config, AttackOptions &)
{
    config.defense.blockSpeculativeForwarding = true;
}

void
setBlockTaintedTransmit(CpuConfig &config, AttackOptions &)
{
    config.defense.blockTaintedTransmit = true;
}

void
setInvisibleSpeculation(CpuConfig &config, AttackOptions &)
{
    config.defense.invisibleSpeculation = true;
}

void
setConditionalSpeculation(CpuConfig &config, AttackOptions &)
{
    config.defense.conditionalSpeculation = true;
}

void
registerDefense(ScenarioCatalog &catalog, DefenseMechanism mechanism,
                const char *name, DefenseOrigin origin,
                DefenseStrategy strategy, const char *description,
                std::vector<AttackVariant> designed_against,
                DefenseApplyFn apply,
                std::vector<std::string> aliases = {})
{
    DefenseDescriptor d;
    d.info = DefenseInfo{mechanism,    name,
                         origin,       strategy,
                         description,  std::move(designed_against)};
    d.aliases = std::move(aliases);
    d.mechanism = mechanism;
    d.apply = std::move(apply);
    catalog.registerDefense(std::move(d));
}

void
registerMitigation(ScenarioCatalog &catalog, const char *name,
                   const char *description,
                   MitigationToggles toggles,
                   std::vector<std::string> aliases = {})
{
    MitigationDescriptor d;
    d.name = name;
    d.aliases = std::move(aliases);
    d.description = description;
    d.toggles = toggles;
    catalog.registerMitigation(std::move(d));
}

} // anonymous namespace

void
registerBuiltinDefenses(ScenarioCatalog &catalog)
{
    registerDefense(
        catalog, LFence, "LFENCE", Industry, PreventAccess,
        "Serializing fence: no younger load executes before the "
        "fence retires, ordering the access after the "
        "authorization.",
        kBoundsFamily, setSoftwareLfence);
    registerDefense(
        catalog, MFence, "MFENCE", Industry, PreventAccess,
        "Full memory fence serializing loads and stores.",
        kBoundsFamily, setSoftwareLfence);
    registerDefense(
        catalog, Kaiser, "KAISER", Industry, PreventAccess,
        "Unmap kernel pages from user space so no transient access "
        "to kernel data is possible before authorization.",
        {Meltdown}, setKpti);
    registerDefense(
        catalog, Kpti, "Kernel Page Table Isolation (KPTI)",
        Industry, PreventAccess,
        "Linux implementation of KAISER: separate user/kernel page "
        "tables remove the secret from the attacker's address "
        "space.",
        {Meltdown}, setKpti, {"kpti"});
    registerDefense(
        catalog, DisableBranchPrediction,
        "Disable branch prediction", Industry, ClearPredictions,
        "No prediction means no attacker-steered transient path.",
        kPredictionFamily,
        [](CpuConfig &config, AttackOptions &) {
            config.defense.noBranchPrediction = true;
        });
    registerDefense(
        catalog, Ibrs,
        "Indirect Branch Restricted Speculation (IBRS)", Industry,
        ClearPredictions,
        "Restricts indirect branch prediction from less privileged "
        "mode's training.",
        {SpectreV2}, setFlushPredictor, {"ibrs"});
    registerDefense(
        catalog, Stibp,
        "Single Thread Indirect Branch Predictor (STIBP)", Industry,
        ClearPredictions,
        "Prevents sibling hyperthread from steering indirect branch "
        "prediction.",
        {SpectreV2}, setFlushPredictor, {"stibp"});
    registerDefense(
        catalog, Ibpb, "Indirect Branch Prediction Barrier (IBPB)",
        Industry, ClearPredictions,
        "Flushes indirect branch predictor state at the barrier so "
        "earlier training cannot influence later branches.",
        {SpectreV2}, setFlushPredictor, {"ibpb"});
    registerDefense(
        catalog, InvalidatePredictorOnContextSwitch,
        "Invalidate branch predictor / BTB on context switch",
        Industry, ClearPredictions,
        "AMD-style predictor invalidation between contexts.",
        {SpectreV2}, setFlushPredictor);
    registerDefense(
        catalog, Retpoline, "Retpoline", Industry, ClearPredictions,
        "Replaces indirect branches (poisoned BTB) with returns "
        "that use the return stack.",
        {SpectreV2},
        [](CpuConfig &config, AttackOptions &) {
            config.defense.noIndirectPrediction = true;
        });
    registerDefense(
        catalog, CoarseAddressMasking, "Coarse address masking",
        Industry, PreventAccess,
        "Force the accessed address into the legal range regardless "
        "of the speculated index (V8 / Linux kernel).",
        kBoundsFamily, setAddressMasking);
    registerDefense(
        catalog, DataDependentAddressMasking,
        "Data-dependent address masking", Industry, PreventAccess,
        "Mask computed from the bounds comparison, clamping "
        "out-of-bounds speculative accesses.",
        kBoundsFamily, setAddressMasking);
    registerDefense(
        catalog, Ssbb, "Speculative Store Bypass Barrier (SSBB)",
        Industry, PreventAccess,
        "ARM barrier: loads cannot bypass older stores' address "
        "resolution across the barrier.",
        {SpectreV4}, setSafeStoreBypass, {"ssbb"});
    registerDefense(
        catalog, Ssbs, "Speculative Store Bypass Safe (SSBS)",
        Industry, PreventAccess,
        "Mode bit disabling speculative store bypass entirely.",
        {SpectreV4}, setSafeStoreBypass, {"ssbs"});
    registerDefense(
        catalog, RsbStuffing, "RSB stuffing", Industry,
        ClearPredictions,
        "Refill the return stack buffer so returns never fall back "
        "to the poisoned BTB or stale entries.",
        {SpectreRsb},
        [](CpuConfig &, AttackOptions &options) {
            options.rsbStuffing = true;
        });
    registerDefense(
        catalog, ContextSensitiveFencing,
        "Context-sensitive fencing", Academia, PreventAccess,
        "Micro-op level fence injection between authorization and "
        "protected access (Taram et al.).",
        kPredictionFamily,
        [](CpuConfig &config, AttackOptions &) {
            config.defense.fenceSpeculativeLoads = true;
        });
    registerDefense(
        catalog, Sabc, "Secure Automatic Bounds Checking (SABC)",
        Academia, PreventAccess,
        "Inserts arithmetic data dependencies between the bounds "
        "check and the access (Ojogbo et al.).",
        kBoundsFamily, setSoftwareLfence, {"sabc"});
    registerDefense(
        catalog, SpectreGuard, "SpectreGuard", Academia, PreventUse,
        "Software-marked secret regions; speculative loads of "
        "marked data are not forwarded to dependents (Fustos et "
        "al.).",
        kCacheChannelFamily, setBlockForwarding);
    registerDefense(
        catalog, Nda, "NDA", Academia, PreventUse,
        "No speculative data propagation: speculatively loaded "
        "values are not forwarded until the load is safe (Weisse et "
        "al.).",
        kCacheChannelFamily, setBlockForwarding);
    registerDefense(
        catalog, ConTExT, "ConTExT", Academia, PreventUse,
        "Secret memory marked non-transient; such values never "
        "enter transient execution (Schwarz et al.).",
        kCacheChannelFamily, setBlockForwarding);
    registerDefense(
        catalog, SpecShield, "SpecShield", Academia, PreventUse,
        "Shields speculative data from forwarding to potential "
        "covert channels (Barber et al.).",
        kCacheChannelFamily, setBlockForwarding);
    registerDefense(
        catalog, SpecShieldErpPlus, "SpecShieldERP+", Academia,
        PreventSend,
        "Blocks only loads whose address depends on speculative "
        "data (Barber et al.).",
        kCacheChannelFamily, setBlockTaintedTransmit);
    registerDefense(
        catalog, Stt, "Speculative Taint Tracking (STT)", Academia,
        PreventSend,
        "Taints speculative data and blocks tainted transmit "
        "instructions until authorization (Yu et al.).",
        kCacheChannelFamily, setBlockTaintedTransmit, {"stt"});
    registerDefense(
        catalog, Dawg, "DAWG", Academia, PreventSend,
        "Way-partitioned cache: the sender's state change is "
        "invisible to receivers in other protection domains "
        "(Kiriansky et al.).",
        kCacheChannelFamily,
        [](CpuConfig &config, AttackOptions &) {
            config.defense.partitionedCache = true;
        });
    registerDefense(
        catalog, InvisiSpec, "InvisiSpec", Academia, PreventSend,
        "Speculative loads fill a shadow buffer, not the cache; the "
        "cache state change happens only after authorization (Yan "
        "et al.).",
        kCacheChannelFamily, setInvisibleSpeculation);
    registerDefense(
        catalog, SafeSpec, "SafeSpec", Academia, PreventSend,
        "Shadow structures for speculative state, discarded on "
        "squash (Khasawneh et al.).",
        kCacheChannelFamily, setInvisibleSpeculation);
    registerDefense(
        catalog, ConditionalSpeculation, "Conditional Speculation",
        Academia, PreventSend,
        "Speculative loads that hit in the cache proceed (no state "
        "change); misses wait for authorization (Li et al.).",
        kCacheChannelFamily, setConditionalSpeculation);
    registerDefense(
        catalog, EfficientInvisibleSpeculation,
        "Efficient Invisible Speculative Execution", Academia,
        PreventSend,
        "Selective delay + value prediction for speculative loads "
        "(Sakalis et al.).",
        kCacheChannelFamily, setConditionalSpeculation);
    registerDefense(
        catalog, CleanupSpec, "CleanupSpec", Academia, PreventSend,
        "Allows speculative cache changes but undoes them on "
        "mis-speculation (Saileshwar and Qureshi).",
        kCacheChannelFamily,
        [](CpuConfig &config, AttackOptions &) {
            config.defense.cleanupSpec = true;
        });
}

void
registerBuiltinMitigations(ScenarioCatalog &catalog)
{
    registerMitigation(catalog, "none",
                       "baseline: no software mitigation", {});
    {
        MitigationToggles t;
        t.kpti = true;
        registerMitigation(
            catalog, "kpti",
            "unmap kernel pages from user space (Meltdown)", t);
    }
    {
        MitigationToggles t;
        t.rsbStuffing = true;
        registerMitigation(
            catalog, "rsb-stuff",
            "benign RSB refill before returns (Spectre-RSB)", t,
            {"rsb-stuffing"});
    }
    {
        MitigationToggles t;
        t.softwareLfence = true;
        registerMitigation(
            catalog, "lfence",
            "LFENCE after bounds checks (bounds-bypass family)", t);
    }
    {
        MitigationToggles t;
        t.addressMasking = true;
        registerMitigation(
            catalog, "addr-mask",
            "index masking after bounds checks (bounds-bypass "
            "family)",
            t, {"address-masking"});
    }
    {
        MitigationToggles t;
        t.flushL1OnExit = true;
        registerMitigation(
            catalog, "flush-l1",
            "L1 flush on enclave/kernel/VMM exit (Foreshadow)", t,
            {"flush-l1-on-exit"});
    }
    // The hardened names carry exactly the "lfence" / "addr-mask"
    // toggles, so every backend runs them as those two (the static
    // backend applies its own lfence-after-branch and index-clamp
    // rewrites) and their scenario keys dedup against them.
    {
        MitigationToggles t;
        t.softwareLfence = true;
        registerMitigation(
            catalog, "fence-harden",
            "LFENCE after bounds checks: the lfence toggle, which the "
            "static backend applies as an lfence after every branch",
            t, {"fence-hardened"});
    }
    {
        MitigationToggles t;
        t.addressMasking = true;
        registerMitigation(
            catalog, "mask-harden",
            "index masking after bounds checks: the addr-mask toggle, "
            "which the static backend applies as an "
            "array_index_nospec clamp after the first branch",
            t, {"mask-hardened"});
    }
}

} // namespace specsec::core::detail
