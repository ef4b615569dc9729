/**
 * @file
 * Snapshot/fork scenario execution.
 *
 * Building a Scenario from scratch — zero-filling an 8MB Memory and
 * rebuilding the ~290-PTE page table — cost ~0.4ms per cell, more
 * than most attack bodies.  Most cells in a sweep differ by one
 * knob, so rebuilding that identical baseline per cell is pure
 * waste.  With the fork path below, construction is a few µs of a
 * cell (perfbench's traced `attacks.build_us_per_cell`); the attack
 * body — pipeline plus receiver harness — is nearly all the rest.
 *
 * The fix is a snapshot/fork path:
 *
 *  - ScenarioSnapshot captures the warmed baseline simulator state
 *    every attack starts from — the canonical Layout page table and
 *    the all-zero memory image — exactly once per process.
 *  - ScenarioArena is one forkable copy of that state.  Arenas are
 *    pooled: releasing one resets it back to the snapshot (memory
 *    via the dirty-page bitmap, so only touched pages are
 *    re-zeroed; page table by copying the snapshot's map) instead
 *    of deallocating, and the next Scenario on any thread reuses it
 *    for the cost of a few page clears.
 *
 * A reset arena is byte-identical to a freshly built one, so the
 * fork path cannot change any timing-free export; the regression
 * suite proves this by running every golden spec through both paths
 * (tests/snapshot_test.cc).  ScenarioBuildMode::Rebuild keeps the
 * old build-from-scratch path selectable for exactly that
 * comparison (and for bisecting a future divergence).
 *
 * The Cpu itself is still constructed per run: its predictor,
 * cache and buffer state are a few KB (cheap to build) and most
 * grid knobs change CpuConfig, which bakes into construction.
 */

#ifndef SPECSEC_ATTACKS_SNAPSHOT_HH
#define SPECSEC_ATTACKS_SNAPSHOT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "uarch/cpu.hh"
#include "uarch/memory.hh"

namespace specsec::attacks
{

class Scenario;     // attack_kit.hh
struct AttackOptions; // attack_kit.hh

/**
 * The baseline state every Scenario forks from: the canonical
 * memory layout's page table plus the (implicitly all-zero) memory
 * image.  Built once per process, read-only afterwards.
 */
class ScenarioSnapshot
{
  public:
    /** The process-wide baseline (built on first use). */
    static const ScenarioSnapshot &baseline();

    const uarch::PageTable &pageTable() const { return pt_; }
    std::size_t memorySize() const { return memSize_; }

  private:
    ScenarioSnapshot();

    uarch::PageTable pt_;
    std::size_t memSize_;
};

/**
 * One forkable copy of the snapshot: the Memory/PageTable pair a
 * Scenario executes against.  reset() restores the snapshot state
 * in O(dirty pages) instead of O(memory size).
 */
struct ScenarioArena
{
    uarch::Memory mem;
    uarch::PageTable pt;

    ScenarioArena();

    /** Restore the ScenarioSnapshot baseline state. */
    void reset();
};

/** How Scenario obtains its simulator state. */
enum class ScenarioBuildMode : std::uint8_t
{
    Fork,    ///< fork a pooled arena from the snapshot (default)
    Rebuild, ///< build Memory/PageTable from scratch per scenario
};

/** Process-wide build mode (atomic; default Fork). */
ScenarioBuildMode scenarioBuildMode();
void setScenarioBuildMode(ScenarioBuildMode mode);

/** Scoped mode override restoring the previous mode on exit. */
class ScenarioBuildModeGuard
{
  public:
    explicit ScenarioBuildModeGuard(ScenarioBuildMode mode)
        : prev_(scenarioBuildMode())
    {
        setScenarioBuildMode(mode);
    }
    ~ScenarioBuildModeGuard() { setScenarioBuildMode(prev_); }
    ScenarioBuildModeGuard(const ScenarioBuildModeGuard &) = delete;
    ScenarioBuildModeGuard &
    operator=(const ScenarioBuildModeGuard &) = delete;

  private:
    ScenarioBuildMode prev_;
};

/** Process-lifetime fork-path counters (observability/benches). */
struct ScenarioForkStats
{
    std::uint64_t forked = 0;   ///< scenarios served from the pool
    std::uint64_t rebuilt = 0;  ///< scenarios built from scratch
    std::uint64_t pooled = 0;   ///< arenas currently parked
};

ScenarioForkStats scenarioForkStats();

/**
 * Acquire simulator state for one Scenario, honoring the build
 * mode: a reset pooled arena under Fork (allocating a fresh one
 * only when the pool is empty), always a fresh build under Rebuild.
 */
std::unique_ptr<ScenarioArena> acquireScenarioArena();

/**
 * Return an arena after its Scenario dies.  Under Fork the arena is
 * reset and parked for the next acquire (the pool is bounded; the
 * overflow is freed); under Rebuild it is simply destroyed.
 */
void releaseScenarioArena(std::unique_ptr<ScenarioArena> arena);

/**
 * @name Warm-attack snapshots — the second snapshot tier.
 *
 * The arena fork above makes scenario *construction* cheap; the
 * remaining repeated cost is the attack *prologue* — planting the
 * secret, loading the program and, dominantly, the predictor
 * training loop — which is identical for every cell that shares a
 * training-relevant configuration.  A WarmAttackSnapshot captures
 * the complete post-prologue machine state (dirty memory pages,
 * page table, and the full mutable Cpu state: trained predictors,
 * primed cache, registers, pipeline bookkeeping) keyed by
 * (attack, training-relevant config); later cells with the same key
 * restore it instead of re-running the prologue.
 *
 * A restore is a full state copy of what the prologue produced, so
 * a warm cell is cycle-identical to a cold one — the golden suite
 * proves it by running every registered spec with warm snapshots on
 * and off (tests/snapshot_test.cc).  WarmSnapshotMode::Rebuild
 * keeps the always-run-the-prologue path selectable for exactly
 * that comparison and for bisecting a future divergence.
 * @{
 */

/** How attack runners obtain their post-prologue state. */
enum class WarmSnapshotMode : std::uint8_t
{
    Reuse,   ///< restore a cached post-prologue snapshot (default)
    Rebuild, ///< always execute the prologue
};

/** Process-wide warm-snapshot mode (atomic; default Reuse). */
WarmSnapshotMode warmSnapshotMode();
void setWarmSnapshotMode(WarmSnapshotMode mode);

/** Scoped mode override restoring the previous mode on exit. */
class WarmSnapshotModeGuard
{
  public:
    explicit WarmSnapshotModeGuard(WarmSnapshotMode mode)
        : prev_(warmSnapshotMode())
    {
        setWarmSnapshotMode(mode);
    }
    ~WarmSnapshotModeGuard() { setWarmSnapshotMode(prev_); }
    WarmSnapshotModeGuard(const WarmSnapshotModeGuard &) = delete;
    WarmSnapshotModeGuard &
    operator=(const WarmSnapshotModeGuard &) = delete;

  private:
    WarmSnapshotMode prev_;
};

/** Process-lifetime warm-snapshot counters (observability). */
struct WarmSnapshotStats
{
    std::uint64_t hits = 0;    ///< prologues served from a snapshot
    std::uint64_t misses = 0;  ///< prologues executed (and captured)
    std::uint64_t entries = 0; ///< snapshots currently cached
};

WarmSnapshotStats warmSnapshotStats();

/** Drop every cached snapshot (benches/tests isolate timings). */
void clearWarmSnapshots();

/**
 * The cache key for one attack's prologue: the attack name, the
 * complete CpuConfig (it bakes into Cpu construction and shifts
 * every training-run cycle count) and the training-relevant
 * AttackOptions.  Options that only steer the attack *body*
 * (delayAuthorization, kpti, flushL1OnExit, rsbStuffing) are
 * excluded so cells differing only in those share one prologue.
 */
std::string warmAttackKey(const char *attack,
                          const uarch::CpuConfig &config,
                          const AttackOptions &options);

/**
 * Run or restore an attack prologue.
 *
 * Under Reuse, a cached snapshot for @p key is restored into
 * @p scenario (skipping @p prologue entirely); on a miss the
 * prologue runs and its end state is captured for the next cell
 * with this key.  Under Rebuild the prologue always runs and
 * nothing is cached.  The prologue must leave the Cpu halted (it
 * ends between run() calls), and everything the attack body
 * depends on must be inside it or derived from restored state.
 *
 * @return true when a snapshot was restored (the prologue did not
 *         run) — callers normally don't care, it's for tests.
 */
bool warmPrologue(Scenario &scenario, const std::string &key,
                  const std::function<void()> &prologue);

/// @}

} // namespace specsec::attacks

#endif // SPECSEC_ATTACKS_SNAPSHOT_HH
