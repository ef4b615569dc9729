/**
 * @file
 * Execution backends for campaign grids.
 *
 * The simulator is the cycle-accurate ground truth; the model backend
 * (model.hh) decides cells analytically on the attack graph alone.
 * Differential runs both and flags per-cell disagreement.  Triage
 * groups the cells the runner provably cannot tell apart (equal
 * canonicalOptions keys) and simulates one member per group, or
 * serves it from the result cache, whatever the model says; the
 * model's verdicts feed only its counters, annotations and the
 * tripwire that simulates every member of a group whose decided
 * verdicts disagree.  Static judges cells from the Fig. 9 program
 * analyzer over the attack's static program (static_verdict.hh) and
 * flags disagreement with the simulator like Differential does.
 */

#ifndef SPECSEC_VERDICT_VERDICT_HH
#define SPECSEC_VERDICT_VERDICT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace specsec::verdict
{

/** How a campaign cell gets its verdict. */
enum class VerdictBackend : std::uint8_t
{
    Simulator = 0,    ///< cycle-accurate execution only (default)
    Model = 1,        ///< analytic graph model only, no simulation
    Differential = 2, ///< both; disagreements are flagged per cell
    Triage = 3,       ///< one simulation per options-canonical class
    Static = 4,       ///< Fig. 9 program analysis beside simulation
};

/** Canonical lowercase name ("simulator", "model", ...). */
const char *backendName(VerdictBackend backend);

/** All canonical backend names, in enum order. */
std::vector<std::string> backendNames();

/**
 * Parse a backend name (folded: case and punctuation insensitive).
 * @return true and set @p out on success.
 */
bool parseBackend(const std::string &name, VerdictBackend &out);

/**
 * "unknown backend 'simluator' (did you mean: simulator?)" — the
 * same suggestion machinery the catalog uses for attack names.
 */
std::string unknownBackendMessage(const std::string &name);

} // namespace specsec::verdict

#endif // SPECSEC_VERDICT_VERDICT_HH
