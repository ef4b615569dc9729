/**
 * @file
 * The named campaign specs pinned by the golden regression gate.
 *
 * Each spec here is the single source of truth for one
 * table/figure-producing sweep: the bench reproductions
 * (bench_table2, bench_table3, bench_ablation) run these exact specs
 * through the engine, and specsec_regress gates their success
 * matrices against committed goldens -- so the path that prints a
 * paper table and the path CI checks are the same code.
 */

#ifndef SPECSEC_REGRESS_SPECS_HH
#define SPECSEC_REGRESS_SPECS_HH

#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace specsec::regress
{

/** One gated spec: golden file stem + what it reproduces. */
struct NamedSpec
{
    std::string name; ///< golden/<name>.json
    std::string description;
    campaign::ScenarioSpec spec;
    /// The golden's accuracy tolerance (its "absEps"): nonzero pins
    /// every grid point's accuracy within it; 0 pins none.
    /// `specsec_regress --record` writes exactly this format.
    double accuracyEps = 0.0;
};

/** Every spec gated by the golden regression suite, stable order. */
const std::vector<NamedSpec> &registeredSpecs();

/** @return the registered spec called @p name, or nullptr. */
const NamedSpec *findSpec(const std::string &name);

/** @name Spec builders shared with the bench reproductions. @{ */

/// Table II industry rows: each mechanism as a defense column over
/// the variants the table pairs it with.
campaign::ScenarioSpec table2IndustrySpec();

/// Table II / Section V-B academia mechanisms, same shape.
campaign::ScenarioSpec table2AcademiaSpec();

/// Table III executable cross-check: every runnable variant against
/// the undefended baseline core (all must leak).
campaign::ScenarioSpec table3BaselineSpec();

/// bench_ablation 1: Spectre v1 vs. the speculation window
/// (bound-fetch miss latency), one column per latency.
campaign::ScenarioSpec ablationSpectreWindowSpec();

/// bench_ablation 2: Meltdown vs. the exception-delivery window.
campaign::ScenarioSpec ablationMeltdownDeliverySpec();

/// bench_ablation 3: Foreshadow vs. authorization latency with an
/// immediate squash.
campaign::ScenarioSpec ablationForeshadowAuthSpec();

/// Software mitigations (kpti, RSB stuffing, lfence, address
/// masking, L1 flush) as a first-class grid dimension.
campaign::ScenarioSpec mitigationMatrixSpec();

/// VulnConfig ablations: every Meltdown-type variant against cores
/// with one forwarding path removed at a time.
campaign::ScenarioSpec vulnAblationSpec();

/// Cache-geometry sweeps (sets/ways/latency) as a grid dimension.
campaign::ScenarioSpec cacheGeometrySpec();

/// Transform-backed mitigations (fence-harden, mask-harden) across
/// every enum-backed attack with a static program; the static
/// backend re-verifies each hardened cell from the rewritten
/// program.
campaign::ScenarioSpec staticHardeningSpec();

/// @}

} // namespace specsec::regress

#endif // SPECSEC_REGRESS_SPECS_HH
