/**
 * @file
 * Counters of two deleted scenario-reuse tiers — a pool of forked
 * snapshot arenas and a cache of warm-attack snapshots (README
 * "Performance") — kept as zero-returning stubs only because the
 * repository benchmark (perfbench/main.cc) still reads them as
 * `attacks.arenas_*` and `attacks.warm_*`.  Delete this header with
 * those counters in the benchmark's next change.
 */

#ifndef SPECSEC_ATTACKS_SNAPSHOT_HH
#define SPECSEC_ATTACKS_SNAPSHOT_HH

#include <cstdint>

namespace specsec::attacks
{

/** Scenario fork-pool counters: always zero. */
struct ScenarioForkStats
{
    std::uint64_t forked = 0;
    std::uint64_t rebuilt = 0;
};
inline ScenarioForkStats scenarioForkStats() { return {}; }

/** Warm-attack tier counters: always zero. */
struct WarmSnapshotStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
inline WarmSnapshotStats warmSnapshotStats() { return {}; }

} // namespace specsec::attacks

#endif // SPECSEC_ATTACKS_SNAPSHOT_HH
