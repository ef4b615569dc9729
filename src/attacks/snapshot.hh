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
 * build-from-scratch path as that test's reference and as the
 * baseline of bench_campaign's fork_speedup; both select it with a
 * ScenarioBuildModeGuard.  No tool or engine option does.
 *
 * The Cpu itself is still constructed per run: its predictor,
 * cache and buffer state are a few KB (cheap to build) and most
 * grid knobs change CpuConfig, which bakes into construction.
 *
 * History: a warm-attack tier once restored a cached, trained Cpu
 * instead of rerunning the Spectre v1/v1.1/v1.2 training prologue;
 * at 0.98x, hitting 346 of 1,728 such cells per sweep pass, it was
 * deleted, taking perfbench sweep peak RSS from 51.4 to 30.9 MB.
 */

#ifndef SPECSEC_ATTACKS_SNAPSHOT_HH
#define SPECSEC_ATTACKS_SNAPSHOT_HH

#include <cstdint>
#include <memory>

#include "uarch/memory.hh"

namespace specsec::attacks
{

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
 * Counters of the deleted warm-attack tier (see the file comment):
 * always zero.  The repository benchmark still reports them as
 * `attacks.warm_*`; delete both with those in its next change.
 */
struct WarmSnapshotStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
inline WarmSnapshotStats warmSnapshotStats() { return {}; }

} // namespace specsec::attacks

#endif // SPECSEC_ATTACKS_SNAPSHOT_HH
