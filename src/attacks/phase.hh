/**
 * @file
 * Lightweight per-cell phase profiler.
 *
 * Attributes grid-cell wall time to the four phases a scenario
 * execution moves through:
 *
 *   - Build:    Scenario construction (Memory, PageTable copy and
 *               Cpu, built fresh)
 *   - Prologue: attack preparation before the transient runs
 *               (secret planting, program load, predictor
 *               training); only the Spectre v1/v1.1/v1.2 runners
 *               mark it so far, so other attacks count it as body
 *   - Teardown: Scenario destruction (freeing the Cpu and the
 *               pages the attack wrote)
 *   - Total:    the whole attack runner invocation
 *
 * Body time (channel setup, the transient runs, recovery) is the
 * remainder: total - build - prologue - teardown.  The counters are
 * process-wide atomics so sweep worker threads accumulate into one
 * profile; bench_campaign resets them around a timed batch and
 * emits the breakdown into BENCH_campaign.json.  The serve stats
 * response does not carry them.
 *
 * The timers are a few nanoseconds of steady_clock reads per cell —
 * noise against a 100µs+ cell — so they stay on in production.
 */

#ifndef SPECSEC_ATTACKS_PHASE_HH
#define SPECSEC_ATTACKS_PHASE_HH

#include <chrono>
#include <cstdint>

namespace specsec::attacks
{

/** Phases a scenario execution is attributed to. */
enum class Phase : std::uint8_t
{
    Build = 0,
    Prologue = 1,
    Teardown = 2,
    Total = 3,
};

/** Accumulated process-wide phase times. */
struct PhaseProfile
{
    std::uint64_t buildNanos = 0;
    std::uint64_t prologueNanos = 0;
    std::uint64_t teardownNanos = 0;
    std::uint64_t totalNanos = 0;
    std::uint64_t cells = 0; ///< Total-phase intervals recorded

    /** total minus the attributed phases (the attack body). */
    std::uint64_t
    bodyNanos() const
    {
        const std::uint64_t attributed =
            buildNanos + prologueNanos + teardownNanos;
        return totalNanos > attributed ? totalNanos - attributed
                                       : 0;
    }
};

/** Snapshot of the process-wide phase counters. */
PhaseProfile phaseProfile();

/** Zero the process-wide phase counters (bench timing brackets). */
void resetPhaseProfile();

/** Add one interval to a phase (ScopedPhaseTimer's sink). */
void recordPhaseNanos(Phase phase, std::uint64_t nanos);

/** RAII interval: accumulates its lifetime into @p phase. */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(Phase phase)
        : phase_(phase), t0_(std::chrono::steady_clock::now())
    {
    }

    ~ScopedPhaseTimer()
    {
        const auto dt = std::chrono::steady_clock::now() - t0_;
        recordPhaseNanos(
            phase_,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    dt)
                    .count()));
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    Phase phase_;
    std::chrono::steady_clock::time_point t0_;
};

} // namespace specsec::attacks

#endif // SPECSEC_ATTACKS_PHASE_HH
