#include "specs.hh"

#include <cstdio>
#include <stdexcept>

#include "core/catalog.hh"
#include "core/defense_catalog.hh"
#include "defense/mitigations.hh"

namespace specsec::regress
{

using campaign::CacheGeometry;
using campaign::DefenseAxis;
using campaign::ScenarioSpec;
using campaign::SoftwareMitigation;
using campaign::VulnAblation;
using core::AttackVariant;
using core::DefenseMechanism;

namespace
{

/** A defense column realizing a cataloged mechanism: the
 *  descriptor's canonical name over its apply hook. */
DefenseAxis
mechanismAxis(DefenseMechanism mechanism)
{
    const core::DefenseDescriptor *descriptor =
        core::ScenarioCatalog::instance().findDefense(mechanism);
    if (descriptor == nullptr)
        throw std::logic_error(
            "regress spec names an unregistered defense mechanism");
    return {descriptor->info.name, descriptor->apply};
}

/** Baseline column plus one column per mechanism. */
std::vector<DefenseAxis>
mechanismColumns(const std::vector<DefenseMechanism> &mechanisms)
{
    std::vector<DefenseAxis> cols = {{"baseline", nullptr}};
    for (DefenseMechanism m : mechanisms)
        cols.push_back(mechanismAxis(m));
    return cols;
}

std::string
label(const char *prefix, unsigned value)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s=%u", prefix, value);
    return buf;
}

} // namespace

ScenarioSpec
table2IndustrySpec()
{
    ScenarioSpec spec;
    spec.name = "table2-industry";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::SpectreV1_1,
                     AttackVariant::SpectreV2,
                     AttackVariant::SpectreV4,
                     AttackVariant::SpectreRsb,
                     AttackVariant::Meltdown};
    spec.defenses = mechanismColumns({
        DefenseMechanism::LFence,
        DefenseMechanism::MFence,
        DefenseMechanism::Kaiser,
        DefenseMechanism::Kpti,
        DefenseMechanism::DisableBranchPrediction,
        DefenseMechanism::Ibrs,
        DefenseMechanism::Stibp,
        DefenseMechanism::Ibpb,
        DefenseMechanism::InvalidatePredictorOnContextSwitch,
        DefenseMechanism::Retpoline,
        DefenseMechanism::CoarseAddressMasking,
        DefenseMechanism::DataDependentAddressMasking,
        DefenseMechanism::Ssbb,
        DefenseMechanism::Ssbs,
        DefenseMechanism::RsbStuffing,
    });
    return spec;
}

ScenarioSpec
table2AcademiaSpec()
{
    ScenarioSpec spec;
    spec.name = "table2-academia";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::SpectreV2,
                     AttackVariant::Meltdown,
                     AttackVariant::Foreshadow,
                     AttackVariant::LazyFp,
                     AttackVariant::ZombieLoad};
    spec.defenses = mechanismColumns({
        DefenseMechanism::ContextSensitiveFencing,
        DefenseMechanism::Sabc,
        DefenseMechanism::SpectreGuard,
        DefenseMechanism::Nda,
        DefenseMechanism::ConTExT,
        DefenseMechanism::SpecShield,
        DefenseMechanism::Stt,
        DefenseMechanism::Dawg,
        DefenseMechanism::InvisiSpec,
        DefenseMechanism::SafeSpec,
        DefenseMechanism::ConditionalSpeculation,
        DefenseMechanism::EfficientInvisibleSpeculation,
        DefenseMechanism::CleanupSpec,
    });
    return spec;
}

ScenarioSpec
table3BaselineSpec()
{
    ScenarioSpec spec;
    spec.name = "table3-baseline";
    for (AttackVariant v : core::tableIIIVariants()) {
        if (v == AttackVariant::Spoiler)
            continue; // timing attack; no leak/blocked verdict
        spec.variants.push_back(v);
    }
    return spec;
}

ScenarioSpec
ablationSpectreWindowSpec()
{
    ScenarioSpec spec;
    spec.name = "ablation-spectre-window";
    spec.variants = {AttackVariant::SpectreV1};
    for (unsigned miss : {6u, 8u, 10u, 12u, 16u, 24u, 40u, 80u,
                          200u}) {
        spec.defenses.push_back(
            {label("miss", miss),
             [miss](uarch::CpuConfig &config,
                    attacks::AttackOptions &) {
                 config.cache.missLatency = miss;
             }});
    }
    return spec;
}

ScenarioSpec
ablationMeltdownDeliverySpec()
{
    ScenarioSpec spec;
    spec.name = "ablation-meltdown-delivery";
    spec.variants = {AttackVariant::Meltdown};
    for (unsigned delivery : {0u, 2u, 4u, 8u, 12u, 16u, 32u}) {
        spec.defenses.push_back(
            {label("delivery", delivery),
             [delivery](uarch::CpuConfig &config,
                        attacks::AttackOptions &) {
                 config.exceptionDeliveryLatency = delivery;
             }});
    }
    return spec;
}

ScenarioSpec
ablationForeshadowAuthSpec()
{
    ScenarioSpec spec;
    spec.name = "ablation-foreshadow-auth";
    spec.variants = {AttackVariant::Foreshadow};
    // Immediate squash: the speculation window IS the check latency.
    spec.baseConfig.exceptionDeliveryLatency = 0;
    for (unsigned perm : {1u, 2u, 4u, 8u, 16u, 30u, 60u}) {
        spec.defenses.push_back(
            {label("perm", perm),
             [perm](uarch::CpuConfig &config,
                    attacks::AttackOptions &) {
                 config.permCheckLatency = perm;
             }});
    }
    return spec;
}

ScenarioSpec
mitigationMatrixSpec()
{
    ScenarioSpec spec;
    spec.name = "mitigation-matrix";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::SpectreV1_1,
                     AttackVariant::SpectreRsb,
                     AttackVariant::Meltdown,
                     AttackVariant::Foreshadow};
    // The sweep values come from the registry, so this spec and the
    // CLI's --mitigations parse the same catalog.
    for (const char *name :
         {"none", "kpti", "rsb-stuff", "lfence", "addr-mask",
          "flush-l1"}) {
        const auto m = SoftwareMitigation::byName(name);
        if (!m)
            throw std::logic_error(
                "regress spec names an unregistered mitigation");
        spec.mitigations.push_back(*m);
    }
    return spec;
}

ScenarioSpec
vulnAblationSpec()
{
    ScenarioSpec spec;
    spec.name = "vuln-ablation";
    spec.variants = {AttackVariant::Meltdown,
                     AttackVariant::MeltdownV3a,
                     AttackVariant::Foreshadow,
                     AttackVariant::LazyFp,
                     AttackVariant::SpectreV4,
                     AttackVariant::Ridl,
                     AttackVariant::ZombieLoad,
                     AttackVariant::Fallout,
                     AttackVariant::Taa};
    const uarch::VulnConfig all;
    spec.vulnAblations.push_back({"all-paths", all});
    for (const uarch::VulnPath &path : uarch::kVulnPaths) {
        uarch::VulnConfig v = all;
        v.*path.member = false;
        spec.vulnAblations.push_back({std::string("no-") + path.name, v});
    }
    return spec;
}

ScenarioSpec
staticHardeningSpec()
{
    // Hardened-vs-unhardened across the whole catalog: every
    // enum-backed attack with a static program (all but Spoiler)
    // against the fence-harden and mask-harden mitigations.  The
    // simulator runs their toggles; `--backend static` re-judges
    // each cell from the rewritten program, so bounds-family leaks
    // must flip to blocked under both columns and the divergence
    // pins stay empty/documented.
    ScenarioSpec spec;
    spec.name = "static-hardening";
    spec.variants = {
        AttackVariant::SpectreV1,  AttackVariant::SpectreV1_1,
        AttackVariant::SpectreV1_2, AttackVariant::SpectreV2,
        AttackVariant::Meltdown,   AttackVariant::MeltdownV3a,
        AttackVariant::SpectreV4,  AttackVariant::SpectreRsb,
        AttackVariant::Foreshadow, AttackVariant::ForeshadowOs,
        AttackVariant::ForeshadowVmm, AttackVariant::LazyFp,
        AttackVariant::Ridl,       AttackVariant::ZombieLoad,
        AttackVariant::Fallout,    AttackVariant::Lvi,
        AttackVariant::Taa,        AttackVariant::Cacheout,
    };
    for (const char *name : {"none", "fence-harden", "mask-harden"}) {
        const auto m = SoftwareMitigation::byName(name);
        if (!m)
            throw std::logic_error(
                "regress spec names an unregistered mitigation");
        spec.mitigations.push_back(*m);
    }
    return spec;
}

ScenarioSpec
cacheGeometrySpec()
{
    ScenarioSpec spec;
    spec.name = "cache-geometry";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::SpectreV2,
                     AttackVariant::Meltdown};
    spec.channels = {core::CovertChannelKind::FlushReload,
                     core::CovertChannelKind::PrimeProbe};
    const auto geometry = [](const char *name, std::size_t sets,
                             std::size_t ways,
                             std::uint32_t missLatency) {
        CacheGeometry g;
        g.label = name;
        g.cache.sets = sets;
        g.cache.ways = ways;
        g.cache.missLatency = missLatency;
        return g;
    };
    spec.cacheGeometries = {
        geometry("default-256x4", 256, 4, 200),
        geometry("small-64x4", 64, 4, 200),
        geometry("direct-256x1", 256, 1, 200),
        geometry("fast-miss-256x4", 256, 4, 20),
    };
    return spec;
}

const std::vector<NamedSpec> &
registeredSpecs()
{
    static const std::vector<NamedSpec> specs = {
        {"defense-matrix",
         "Tables II/III: every variant vs. the seven hardware "
         "defense strategies",
         ScenarioSpec::defenseMatrix()},
        {"table2-industry",
         "Table II industry mechanisms, classified and executed",
         table2IndustrySpec()},
        {"table2-academia",
         "Section V-B academia mechanisms, classified and executed",
         table2AcademiaSpec()},
        {"table3-baseline",
         "Table III cross-check: all variants leak on the "
         "undefended core",
         table3BaselineSpec(), 0.005},
        {"ablation-spectre-window",
         "Spectre v1 leak vs. speculation-window length",
         ablationSpectreWindowSpec()},
        {"ablation-meltdown-delivery",
         "Meltdown leak vs. exception-delivery window",
         ablationMeltdownDeliverySpec()},
        {"ablation-foreshadow-auth",
         "Foreshadow leak vs. authorization latency",
         ablationForeshadowAuthSpec()},
        {"mitigation-matrix",
         "software mitigations as a first-class grid dimension",
         mitigationMatrixSpec()},
        {"vuln-ablation",
         "Meltdown-type variants vs. cores with forwarding paths "
         "removed",
         vulnAblationSpec()},
        {"cache-geometry",
         "cache-geometry sweeps across both covert channels",
         cacheGeometrySpec()},
        {"static-hardening",
         "fence- and mask-hardened mitigations vs. the catalog, "
         "verified by the static backend",
         staticHardeningSpec()},
    };
    return specs;
}

const NamedSpec *
findSpec(const std::string &name)
{
    for (const NamedSpec &spec : registeredSpecs())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

} // namespace specsec::regress
