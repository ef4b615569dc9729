/**
 * @file
 * Covert-channel receivers (paper Section II-C).
 *
 * Flush+Reload: hit-and-access based -- flush shared lines, let the
 * sender run, reload and time; a fast slot reveals the secret.
 *
 * Prime+Probe: miss-and-access based -- fill cache sets with the
 * receiver's own lines, let the sender run, probe and time; a slow
 * set reveals the secret.
 *
 * Both are implemented at harness level, mirroring what the
 * receiver process would do.  Prime+Probe goes through the CPU's
 * committed access helpers line by line.  Flush+Reload gives the
 * same latencies, LRU stamps and CacheStats as a per-slot
 * Cpu::flushLineVirt / Cpu::timedProbe loop, but a round costs what
 * is resident rather than what is probed: the page-strided probe
 * lines fall into a few cache sets that hold at most sets x ways of
 * them, so the receiver visits only the valid ways of those sets
 * (Cache::flushGroup / probeGroup).
 *
 * What a Flush+Reload receiver needs besides the cache's state --
 * each slot's flush and probe line, indexed for the cache geometry
 * (LineGroup), and each slot's latency if it misses -- is its
 * preparation.  It is read from the page table and the cache
 * geometry and never changes, so receivers share it: each thread
 * keeps its last few preparations, keyed by everything they read
 * (the page table's version() stamp, the CPU's privilege and
 * enclave mode, the probe base, slot count and stride, and the
 * cache's sets, line size and miss latency).  Every scenario's page
 * table is a copy of one canonical layout, so every cell that
 * leaves its page table alone reuses one preparation instead of
 * re-translating its 256 slots, and so does every cell that makes
 * the same edits to it (a stamp names the edits, see
 * PageTable::version()).  A receiver looks again only when the
 * stamp, the privilege or the enclave mode changes.
 *
 * A round's answer comes from its hits, not from a scan of every
 * slot's latency.  A slot reads one of three latencies: the hit
 * latency, the miss latency, or twice the miss latency when it
 * faults.  So the slot that wins -- the lowest slot of the least
 * latency below a limit -- is the lowest hit slot, unless the miss
 * or fault latency is the least one below the limit (a miss
 * latency below the hit latency), and only then is the first slot
 * reading it looked up.  Probing lists the hit slots
 * (Cache::probeGroup), and they are at most the resident probe
 * lines.
 *
 * A channel owns the ChannelRecovery its recover() returns and
 * refills it every round, so a round allocates nothing.
 */

#ifndef SPECSEC_UARCH_COVERT_HH
#define SPECSEC_UARCH_COVERT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cpu.hh"

namespace specsec::uarch
{

/** Result of reading the channel once. */
struct ChannelRecovery
{
    int value = -1; ///< recovered symbol, -1 when no signal
    std::vector<std::uint32_t> latencies; ///< per-slot timing
};

/**
 * Flush+Reload over a shared probe array of @p slots lines spaced
 * @p stride bytes apart (page stride per the paper, to avoid
 * prefetch effects).  The cache domain (the CPU's context) and
 * partitioning are read on every call.
 */
class FlushReloadChannel
{
  public:
    FlushReloadChannel(Cpu &cpu, Addr probe_base,
                       std::size_t slots = 256,
                       Addr stride = kPageSize);

    /** Step 1(a): flush every probe line. */
    void setup();

    /**
     * Step 5: reload every probe line and time it.  The result is
     * the channel's own and is overwritten by the next call; its
     * value is fastestSlot(threshold() + 1).
     */
    const ChannelRecovery &recover();

    /**
     * The slot the last recover() round names when only latencies
     * below @p limit count and no slot in @p exclude may win: the
     * lowest slot of the least latency read by any other slot, or
     * -1 when no other slot reads below @p limit.  Taken from the
     * round's hit slots (see the file comment).
     */
    int fastestSlot(std::uint32_t limit,
                    std::span<const int> exclude = {}) const;

    Addr probeBase() const { return probeBase_; }
    Addr stride() const { return stride_; }
    std::size_t slots() const { return slots_; }

    /** Latency below this is a hit. */
    std::uint32_t threshold() const;

  private:
    /** Every slot's flush and probe line and miss latency. */
    struct Preparation;

    /**
     * Take the preparation for the page table's version() and the
     * Cpu's privilege and enclave mode, when they differ from the
     * ones prep_ was read under: the thread's shared one for the
     * same inputs, or a new one that reads every slot's flush
     * address (its PTE's, as Cpu::flushLineVirt uses) and probe
     * translation (as Cpu::timedProbe makes it, faults included).
     */
    void refresh();

    Cpu &cpu_;
    Addr probeBase_;
    std::size_t slots_;
    Addr stride_;

    // The preparation in use, and the state it was read under.
    std::shared_ptr<const Preparation> prep_;
    std::uint64_t ptVersion_ = 0;
    Privilege privilege_ = Privilege::User;
    bool enclaveMode_ = false;

    ChannelRecovery recovery_; ///< what recover() returns
    std::vector<std::uint32_t> hits_; ///< the last round's hit slots
};

/**
 * Prime+Probe over the L1: the receiver owns an eviction array
 * covering every set; the sender's single line fill evicts one of
 * the receiver's lines.
 *
 * The sender must touch `probe_base + value * lineSize` where
 * probe_base is set-aligned, so that the victim's value selects a
 * cache set.
 */
class PrimeProbeChannel
{
  public:
    PrimeProbeChannel(Cpu &cpu, Addr evict_base,
                      std::size_t slots = 256);

    /** Step 1(a): prime every monitored set with receiver lines. */
    void prime();

    /**
     * Step 5: probe every set; the slow one carries the value.  The
     * result is the channel's own and is overwritten by the next
     * call.
     */
    const ChannelRecovery &recover();

    std::size_t slots() const { return slots_; }

  private:
    Cpu &cpu_;
    Addr evictBase_;
    std::size_t slots_;
    ChannelRecovery recovery_; ///< what recover() returns
};

/**
 * Evict+Time (miss-and-operation based, paper Section II-C): the
 * receiver evicts one candidate cache set, times the victim's whole
 * operation, and infers which set the victim uses from the slowdown.
 */
class EvictTimeChannel
{
  public:
    EvictTimeChannel(Cpu &cpu, Addr evict_base,
                     std::size_t slots = 256);

    /** Fill every way of @p set with receiver lines. */
    void evictSet(std::size_t set);

    /**
     * Sweep all candidate sets.
     *
     * @param prepare   re-establishes the victim's warm state
     *                  before each trial.
     * @param victim_op runs the victim operation, returning its
     *                  duration in cycles.
     * @return the victim's set (slowest trial), or -1 if no trial
     *         stood out.
     */
    ChannelRecovery recover(const std::function<void()> &prepare,
                            const std::function<std::uint64_t()>
                                &victim_op);

  private:
    Cpu &cpu_;
    Addr evictBase_;
    std::size_t slots_;
};

/**
 * Cache-collision timing (hit-and-operation based): the victim's
 * operation is faster when two of its internal accesses collide on
 * a line; the receiver sweeps a guess input and takes the fastest.
 *
 * @param slots     number of guesses.
 * @param prepare   resets cache state before each trial.
 * @param victim_op runs the victim with the guess, returning its
 *                  duration in cycles.
 */
ChannelRecovery
recoverByCollision(std::size_t slots,
                   const std::function<void()> &prepare,
                   const std::function<std::uint64_t(int)> &victim_op);

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_COVERT_HH
