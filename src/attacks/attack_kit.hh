/**
 * @file
 * Scenario scaffolding shared by every executable attack: the memory
 * layout, page table setup, covert-channel harness and result
 * scoring.
 *
 * Every attack runner follows the paper's five steps: (1) channel
 * setup + predictor/buffer preparation, (2) delayed authorization,
 * (3) transient secret access, (4) use + send through the channel,
 * (5) receive by timing.  A run leaks when the recovered bytes match
 * the planted secret.
 */

#ifndef SPECSEC_ATTACKS_ATTACK_KIT_HH
#define SPECSEC_ATTACKS_ATTACK_KIT_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/variants.hh"
#include "uarch/covert.hh"
#include "uarch/cpu.hh"

namespace specsec::attacks
{

using core::CovertChannelKind;
using uarch::Addr;
using uarch::Cpu;
using uarch::CpuConfig;
using uarch::Word;

/** Fixed virtual memory layout for all scenarios. */
struct Layout
{
    static constexpr Addr kProbeArray = 0x100000;  ///< 256 x 4KB shared
    static constexpr Addr kEvictArray = 0x200000;  ///< prime+probe fill
    static constexpr Addr kVictimArray = 0x300000; ///< bounds-checked
    static constexpr Addr kVictimBound = 0x301000; ///< array length
    static constexpr Addr kVictimTable = 0x302000; ///< v1.1 table
    static constexpr Addr kVictimIdx = 0x303040;   ///< v1.1 index var
    static constexpr Addr kStaleAddr = 0x304000;   ///< v4 stale slot
    static constexpr Addr kVictimPtr = 0x305000;   ///< slow pointers
    static constexpr Addr kScratch = 0x306000;
    static constexpr Addr kReadOnlyPage = 0x308000; ///< v1.2 target
    static constexpr Addr kReadOnlyIdx = 0x308040;
    static constexpr Addr kUserSecret = 0x310000;  ///< victim secret
    static constexpr Addr kKernelData = 0x320000;  ///< Meltdown
    static constexpr Addr kEnclaveData = 0x330000; ///< Foreshadow
    static constexpr Addr kVmmData = 0x340000;     ///< Foreshadow-VMM
    static constexpr Addr kUnmapped = 0x3f0000;    ///< MDS faults
    static constexpr Addr kSpoilerBase = 0x400000; ///< candidate pages
    static constexpr std::size_t kMemorySize = 0x800000;
};

/**
 * A scenario owns the memory, page table and CPU for one attack.
 *
 * Every scenario is built fresh: the Memory allocates pages only as
 * the attack writes them, the PageTable is a copy of the canonical
 * Layout mapping (and so keeps its version() stamp), and the Cpu
 * takes the cell's config.  No mutable state is shared between
 * scenarios, so cells on different worker threads cannot see each
 * other's state.  What is shared is immutable and per thread: the
 * Flush+Reload receiver's preparation (uarch/covert.hh), the probe
 * slots' lines and miss latencies read at one page-table stamp,
 * which every cell that leaves its page table alone reuses, as does
 * every cell that makes the same edits to it.
 */
class Scenario
{
  public:
    explicit Scenario(const CpuConfig &config);
    ~Scenario();

    Cpu &cpu();
    uarch::Memory &mem();
    uarch::PageTable &pageTable();

    /** Plant bytes at a virtual (identity-mapped) address. */
    void plantBytes(Addr vaddr, const std::vector<std::uint8_t> &data);

    /** Read bytes back for verification. */
    std::vector<std::uint8_t> readBytes(Addr vaddr,
                                        std::size_t len) const;

  private:
    struct State;
    std::unique_ptr<State> state_;
};

/**
 * Channel harness: one interface over Flush+Reload and Prime+Probe,
 * providing the shift amount the sender program must apply to encode
 * a byte as a probe address.
 */
class ChannelHarness
{
  public:
    ChannelHarness(Cpu &cpu, CovertChannelKind kind);

    /** Step 1(a). */
    void setup();

    /**
     * Step 5; @return recovered byte or -1.
     *
     * @param exclude Slots to ignore: the value a committed
     *        re-execution sends (Spectre v4), or -- for Prime+Probe
     *        -- cache sets the victim's non-send loads evict, which
     *        a real attacker calibrates away by profiling runs with
     *        known-absent secrets.
     */
    int recover(std::initializer_list<int> exclude = {});

    /**
     * The cache set a victim access at @p vaddr disturbs: a noise
     * slot the Prime+Probe receiver should exclude.  Returns -1 for
     * Flush+Reload (page-strided slots do not collide with victim
     * data lines).
     */
    int noiseSet(Addr vaddr) const;

    /** log2(stride) the sender applies to the secret byte. */
    unsigned sendShift() const;

    /** Base address the sender adds the shifted byte to. */
    Addr sendBase() const { return Layout::kProbeArray; }

    CovertChannelKind kind() const { return kind_; }

  private:
    Cpu &cpu_;
    CovertChannelKind kind_;
    uarch::FlushReloadChannel fr_;
    uarch::PrimeProbeChannel pp_;
};

/** Options shared by the attack runners. */
struct AttackOptions
{
    CovertChannelKind channel = CovertChannelKind::FlushReload;
    std::size_t secretLen = 8;
    /// Foreshadow: flush L1 on enclave/kernel/VMM exit (defense).
    bool flushL1OnExit = false;
    /// Meltdown: unmap kernel pages from the user page table (KPTI).
    bool kpti = false;
    /// Spectre-RSB: stuff the RSB with a benign target (defense).
    bool rsbStuffing = false;
    /// Bounds-bypass family: insert LFENCE after the bounds check
    /// (the Table II serialization defense, strategy 1).
    bool softwareLfence = false;
    /// Bounds-bypass family: mask the index into the legal range
    /// (the Table II address-masking defense, strategy 1).
    bool addressMasking = false;
    /// Number of predictor training iterations.
    unsigned trainingRounds = 8;
    /// Step 2 control: when false the authorization is NOT delayed
    /// (the bound stays cached), so the speculation window closes
    /// before the transient chain runs -- the attack must fail.
    /// Demonstrates that delayed authorization is a necessary
    /// attack step, per Section III.
    bool delayAuthorization = true;
};

/**
 * What a machine knob is to the verdict backends, whose attack
 * graphs and static programs order operations but count no cycles.
 */
enum class KnobKind
{
    /// A width, size, latency or race-shaping option: off its
    /// default, the model and static backends answer Undecided.
    Timing,
    /// A HwDefenseConfig toggle: a defense in the core.
    HwDefense,
    /// A software mitigation that rewrites the attack's program.
    InProgramMitigation,
    /// A software mitigation acting outside the program (page
    /// tables, the RSB, the L1).
    OutOfProgramMitigation,
    /// The covert channel and the VulnConfig forwarding paths.
    Structural,
};

/**
 * Every knob of a cell's machine, declared once: calls
 * visit(name, kind, field) on each of the 46 CpuConfig (nested
 * CacheConfig / VulnConfig / HwDefenseConfig included) and
 * AttackOptions fields, in scenario-key order, @p field by
 * reference.  The name is the spelling evidence lines use.
 * campaign::scenarioKey() writes and parseScenarioKey() reads
 * through this list (constexpr, so the key's row count is a
 * compile-time constant); the verdict backends' timing, hardware and
 * out-of-program gates and the model's mechanism rules walk it by
 * kind.  A new machine field is one row here.
 */
template <typename Config, typename Options, typename Visit>
constexpr void
forEachKnob(Config &c, Options &o, Visit &&visit)
{
    // Tripwire: the key must cover every field that determines a
    // run's outcome, or dedup silently folds distinct scenarios.
    // When either struct grows, add its row below, then update the
    // expected size.
#if defined(__x86_64__) && defined(__linux__)
    static_assert(sizeof(CpuConfig) == 120,
                  "CpuConfig changed: extend forEachKnob()");
    static_assert(sizeof(AttackOptions) == 32,
                  "AttackOptions changed: extend forEachKnob()");
#endif
    using enum KnobKind;
    visit("robSize", Timing, c.robSize);
    visit("fetchWidth", Timing, c.fetchWidth);
    visit("commitWidth", Timing, c.commitWidth);
    visit("permCheckLatency", Timing, c.permCheckLatency);
    visit("branchResolveLatency", Timing, c.branchResolveLatency);
    visit("retResolveLatency", Timing, c.retResolveLatency);
    visit("exceptionDeliveryLatency", Timing, c.exceptionDeliveryLatency);
    visit("txnAbortDetectLatency", Timing, c.txnAbortDetectLatency);
    visit("partialAliasPenalty", Timing, c.partialAliasPenalty);
    visit("physAliasPenalty", Timing, c.physAliasPenalty);
    visit("rsbDepth", Timing, c.rsbDepth);
    visit("lfbEntries", Timing, c.lfbEntries);
    visit("cache.sets", Timing, c.cache.sets);
    visit("cache.ways", Timing, c.cache.ways);
    visit("cache.lineSize", Timing, c.cache.lineSize);
    visit("cache.hitLatency", Timing, c.cache.hitLatency);
    visit("cache.missLatency", Timing, c.cache.missLatency);
    visit("vuln.meltdown", Structural, c.vuln.meltdown);
    visit("vuln.l1tf", Structural, c.vuln.l1tf);
    visit("vuln.mds", Structural, c.vuln.mds);
    visit("vuln.lazyFp", Structural, c.vuln.lazyFp);
    visit("vuln.storeBypass", Structural, c.vuln.storeBypass);
    visit("vuln.msr", Structural, c.vuln.msr);
    visit("vuln.taa", Structural, c.vuln.taa);
    visit("fenceSpeculativeLoads", HwDefense, c.defense.fenceSpeculativeLoads);
    visit("blockSpeculativeForwarding", HwDefense,
          c.defense.blockSpeculativeForwarding);
    visit("blockTaintedTransmit", HwDefense, c.defense.blockTaintedTransmit);
    visit("invisibleSpeculation", HwDefense, c.defense.invisibleSpeculation);
    visit("cleanupSpec", HwDefense, c.defense.cleanupSpec);
    visit("conditionalSpeculation", HwDefense,
          c.defense.conditionalSpeculation);
    visit("partitionedCache", HwDefense, c.defense.partitionedCache);
    visit("flushPredictorOnContextSwitch", HwDefense,
          c.defense.flushPredictorOnContextSwitch);
    visit("noIndirectPrediction", HwDefense, c.defense.noIndirectPrediction);
    visit("noBranchPrediction", HwDefense, c.defense.noBranchPrediction);
    visit("clearBuffersOnContextSwitch", HwDefense,
          c.defense.clearBuffersOnContextSwitch);
    visit("eagerFpuSwitch", HwDefense, c.defense.eagerFpuSwitch);
    visit("safeStoreBypass", HwDefense, c.defense.safeStoreBypass);
    visit("channel", Structural, o.channel);
    visit("secretLen", Timing, o.secretLen);
    visit("flushL1OnExit", OutOfProgramMitigation, o.flushL1OnExit);
    visit("kpti", OutOfProgramMitigation, o.kpti);
    visit("rsbStuffing", OutOfProgramMitigation, o.rsbStuffing);
    visit("softwareLfence", InProgramMitigation, o.softwareLfence);
    visit("addressMasking", InProgramMitigation, o.addressMasking);
    visit("trainingRounds", Timing, o.trainingRounds);
    visit("delayAuthorization", Timing, o.delayAuthorization);
}

/** Outcome of one attack experiment. */
struct AttackResult
{
    std::string name;
    std::vector<int> recovered;
    std::vector<std::uint8_t> expected;
    double accuracy = 0.0; ///< fraction of bytes recovered correctly
    bool leaked = false;   ///< accuracy >= 0.9
    std::uint64_t guestCycles = 0;
    std::uint64_t transientForwards = 0;

    bool operator==(const AttackResult &) const = default;
};

/** Score recovered bytes against the planted secret. */
AttackResult scoreResult(std::string name,
                         const std::vector<int> &recovered,
                         const std::vector<std::uint8_t> &expected,
                         std::uint64_t guest_cycles,
                         std::uint64_t transient_forwards);

/** The default secret used by the attack runners. */
std::vector<std::uint8_t> defaultSecret(std::size_t len);

/**
 * Final CpuStats of the most recently destroyed Scenario on this
 * thread.  Every attack runner owns exactly one Scenario that dies
 * when the runner returns, so a caller reading this right after a
 * runner call observes that run's pipeline counters.  Thread-local,
 * so parallel sweep engines can collect stats without sharing.
 *
 * Callers relying on the one-Scenario-per-run invariant should
 * check scenarioDeathCount() advanced by exactly one across the
 * call (runner.cc does); a runner that constructs several Scenarios
 * must be taught to report stats explicitly instead.
 */
const uarch::CpuStats &lastScenarioStats();

/** Scenarios destroyed on this thread so far (invariant checking). */
std::uint64_t scenarioDeathCount();

} // namespace specsec::attacks

#endif // SPECSEC_ATTACKS_ATTACK_KIT_HH
