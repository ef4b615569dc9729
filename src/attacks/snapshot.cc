#include "snapshot.hh"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "attack_kit.hh"

namespace specsec::attacks
{

namespace
{

std::atomic<ScenarioBuildMode> gBuildMode{ScenarioBuildMode::Fork};
std::atomic<std::uint64_t> gForked{0};
std::atomic<std::uint64_t> gRebuilt{0};

/**
 * The arena pool is process-global (not thread-local) on purpose:
 * campaign worker threads are short-lived — executeKeyBatch and
 * CampaignEngine::run spawn a fresh pool per batch — so
 * thread-local arenas would die with their thread and every batch
 * would pay the 8MB build again.  Acquire/release bracket a whole
 * scenario run (~0.5ms), so the mutex is uncontended noise.
 *
 * The pool is bounded: it only ever holds as many arenas as were
 * alive concurrently (one per worker, plus tests that hold several
 * Scenarios at once), capped to keep a pathological caller from
 * parking unbounded 8MB blocks.
 */
constexpr std::size_t kMaxPooledArenas = 32;

std::mutex gPoolMutex;
std::vector<std::unique_ptr<ScenarioArena>> gPool;

} // namespace

ScenarioSnapshot::ScenarioSnapshot()
    : memSize_(Layout::kMemorySize)
{
    // The canonical scenario layout, shared by every attack runner.
    // Shared / attacker-accessible regions.
    pt_.mapRange(Layout::kProbeArray, 256 * uarch::kPageSize,
                 uarch::PageOwner::User, true, true);
    pt_.mapRange(Layout::kEvictArray, 0x10000,
                 uarch::PageOwner::User, true, true);
    // Victim user-space data (bounds-protected, not OS-protected).
    pt_.mapRange(Layout::kVictimArray, 0x8000,
                 uarch::PageOwner::User, true, true);
    pt_.mapRange(Layout::kReadOnlyPage, uarch::kPageSize,
                 uarch::PageOwner::User, true, /*writable=*/false);
    pt_.mapRange(Layout::kUserSecret, uarch::kPageSize,
                 uarch::PageOwner::User, true, true);
    // Privileged regions.
    pt_.mapRange(Layout::kKernelData, uarch::kPageSize,
                 uarch::PageOwner::Kernel, false, true);
    pt_.mapRange(Layout::kEnclaveData, uarch::kPageSize,
                 uarch::PageOwner::Enclave, false, true);
    pt_.mapRange(Layout::kVmmData, uarch::kPageSize,
                 uarch::PageOwner::Vmm, false, true);
    // Layout::kUnmapped intentionally has no PTE.
}

const ScenarioSnapshot &
ScenarioSnapshot::baseline()
{
    static const ScenarioSnapshot snapshot;
    return snapshot;
}

ScenarioArena::ScenarioArena()
    : mem(ScenarioSnapshot::baseline().memorySize()),
      pt(ScenarioSnapshot::baseline().pageTable())
{
}

void
ScenarioArena::reset()
{
    mem.rezeroDirtyPages();
    pt = ScenarioSnapshot::baseline().pageTable();
}

ScenarioBuildMode
scenarioBuildMode()
{
    return gBuildMode.load(std::memory_order_relaxed);
}

void
setScenarioBuildMode(ScenarioBuildMode mode)
{
    gBuildMode.store(mode, std::memory_order_relaxed);
}

ScenarioForkStats
scenarioForkStats()
{
    ScenarioForkStats s;
    s.forked = gForked.load(std::memory_order_relaxed);
    s.rebuilt = gRebuilt.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(gPoolMutex);
        s.pooled = gPool.size();
    }
    return s;
}

std::unique_ptr<ScenarioArena>
acquireScenarioArena()
{
    if (scenarioBuildMode() == ScenarioBuildMode::Fork) {
        std::unique_ptr<ScenarioArena> arena;
        {
            std::lock_guard<std::mutex> lock(gPoolMutex);
            if (!gPool.empty()) {
                arena = std::move(gPool.back());
                gPool.pop_back();
            }
        }
        if (arena) {
            gForked.fetch_add(1, std::memory_order_relaxed);
            return arena;
        }
    }
    gRebuilt.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<ScenarioArena>();
}

void
releaseScenarioArena(std::unique_ptr<ScenarioArena> arena)
{
    if (!arena || scenarioBuildMode() != ScenarioBuildMode::Fork)
        return;
    arena->reset();
    std::lock_guard<std::mutex> lock(gPoolMutex);
    if (gPool.size() < kMaxPooledArenas)
        gPool.push_back(std::move(arena));
}

} // namespace specsec::attacks
