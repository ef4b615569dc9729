/**
 * @file
 * The speculative out-of-order core.
 *
 * A cycle-level pipeline with a reorder buffer, register renaming,
 * branch/target/return prediction, store buffer, and -- centrally
 * for the paper's model -- *delayed authorization*: every memory or
 * register access runs two concurrent tracks,
 *
 *   - an authorization track (permission check, branch resolution,
 *     address disambiguation, abort detection) that completes after
 *     a latency, and
 *   - a data track that accesses and forwards data speculatively,
 *
 * and the winner of that race is determined by cache state, exactly
 * as Section IV of the paper describes.  Architectural state is
 * rolled back on squash; cache state is not (unless a defense says
 * otherwise).
 *
 * Vulnerability flags (VulnConfig) enable/disable each transient
 * forwarding path; defense flags (HwDefenseConfig) implement the
 * paper's strategies 1-4 as literal scheduler dependencies.
 *
 * Every guest cycle is counted, but not every one is stepped: once
 * a cycle changes no pipeline state, run() jumps to the next cycle
 * at which a latency expires (a miss, a permission check, exception
 * delivery).  The skipped cycles are exactly the ones that would
 * have changed nothing, so cycle counts, cache state and statistics
 * are those of stepping each cycle.
 *
 * Simplifications (documented in DESIGN.md): unlimited functional
 * units (latencies still apply), metadata-only cache, harness-level
 * covert-channel receiver helpers.
 */

#ifndef SPECSEC_UARCH_CPU_HH
#define SPECSEC_UARCH_CPU_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "buffers.hh"
#include "cache.hh"
#include "isa.hh"
#include "memory.hh"
#include "predictor.hh"

namespace specsec::uarch
{

/** Which transient-forwarding paths the hardware has (default: all,
 *  i.e. a pre-2018 out-of-order core). */
struct VulnConfig
{
    bool meltdown = true;    ///< forward real data past privilege fault
    bool l1tf = true;        ///< not-present fault reads L1 by paddr
    bool mds = true;         ///< faulting load forwards buffer residue
    bool lazyFp = true;      ///< FP read forwards stale FPU state
    bool storeBypass = true; ///< predict no-alias past unresolved stores
    bool msr = true;         ///< RDMSR forwards before privilege check
    bool taa = true;         ///< aborting-transaction loads forward residue
};

/** One forwarding path: its user-facing name and its VulnConfig
 *  switch. */
struct VulnPath
{
    const char *name;
    bool VulnConfig::*member;
};

/**
 * Every forwarding path, in VulnConfig order: the one table that
 * maps a path name to its switch.  Export summaries ("no-mds+
 * no-taa"), the vuln-ablation spec, `campaign_cli --vuln-ablate` and
 * `specsec_regress --flip-vuln` all iterate it.
 */
inline constexpr VulnPath kVulnPaths[] = {
    {"meltdown", &VulnConfig::meltdown},
    {"l1tf", &VulnConfig::l1tf},
    {"mds", &VulnConfig::mds},
    {"lazyfp", &VulnConfig::lazyFp},
    {"store-bypass", &VulnConfig::storeBypass},
    {"msr", &VulnConfig::msr},
    {"taa", &VulnConfig::taa},
};

/** The kVulnPaths row named @p name, or nullptr. */
inline const VulnPath *
findVulnPath(std::string_view name)
{
    for (const VulnPath &path : kVulnPaths)
        if (name == path.name)
            return &path;
    return nullptr;
}

/** Hardware defense knobs, each mapped to a paper strategy. */
struct HwDefenseConfig
{
    /// Strategy 1: loads do not access until non-speculative
    /// (context-sensitive fencing in hardware).
    bool fenceSpeculativeLoads = false;

    /// Strategy 2: speculatively loaded data is not forwarded to
    /// dependents until the load is safe (NDA / SpecShield /
    /// ConTExT).
    bool blockSpeculativeForwarding = false;

    /// Strategy 3: loads whose address depends on speculative data
    /// do not execute (STT / SpecShieldERP+).
    bool blockTaintedTransmit = false;

    /// Strategy 3: speculative loads do not modify the cache; the
    /// line is installed at commit (InvisiSpec / SafeSpec).
    bool invisibleSpeculation = false;

    /// Strategy 3: cache lines installed by squashed loads are
    /// invalidated on squash (CleanupSpec).
    bool cleanupSpec = false;

    /// Strategy 3: speculative loads may proceed only on a cache
    /// hit; misses wait for authorization (Conditional Speculation /
    /// Efficient Invisible Speculation).
    bool conditionalSpeculation = false;

    /// Strategy 3: DAWG-style domain-partitioned cache.
    bool partitionedCache = false;

    /// Strategy 4: flush predictor, BTB and RSB on context switch
    /// (IBPB / AMD predictor invalidate).
    bool flushPredictorOnContextSwitch = false;

    /// Retpoline model: indirect branches do not speculate via the
    /// BTB; fetch stalls until the target resolves.
    bool noIndirectPrediction = false;

    /// Disable conditional branch prediction: fetch stalls at every
    /// conditional branch until it resolves.
    bool noBranchPrediction = false;

    /// VERW-style buffer clearing on context switch (MDS defense).
    bool clearBuffersOnContextSwitch = false;

    /// Eager FPU state switching (LazyFP defense).
    bool eagerFpuSwitch = false;

    /// SSBB/SSBS: loads wait for all older store addresses.
    bool safeStoreBypass = false;
};

/** Core configuration. */
struct CpuConfig
{
    std::size_t robSize = 48;
    unsigned fetchWidth = 2;
    unsigned commitWidth = 4;

    /// Latency of a permission / fault / ownership check from
    /// address-ready to authorization-resolved.  The paper's
    /// "delayed authorization" (step 2).
    unsigned permCheckLatency = 30;

    /// Extra cycles from operands-ready to branch resolution.
    unsigned branchResolveLatency = 2;

    /// Extra cycles from dispatch to return-target resolution.
    unsigned retResolveLatency = 2;

    /// Cycles between a faulting commit and the squash taking
    /// effect (exception delivery); the transient window tail.
    unsigned exceptionDeliveryLatency = 16;

    /// Cycles from arming to a TSX asynchronous abort squash.
    unsigned txnAbortDetectLatency = 30;

    /// Spoiler: penalty for a 4KB-aliased store-buffer conflict.
    unsigned partialAliasPenalty = 12;

    /// Spoiler: additional penalty for a 1MB physical alias.
    unsigned physAliasPenalty = 60;

    std::size_t rsbDepth = 16;
    std::size_t lfbEntries = 10;

    CacheConfig cache;
    VulnConfig vuln;
    HwDefenseConfig defense;
};

/** Counters for perf and experiment reporting. */
struct CpuStats
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t squashed = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t exceptions = 0;
    std::uint64_t memOrderViolations = 0;
    std::uint64_t speculativeFills = 0;
    std::uint64_t transientForwards = 0; ///< faulty data forwarded

    bool operator==(const CpuStats &) const = default;
};

/**
 * Fixed-capacity contiguous ring: the ROB's storage.
 *
 * The reorder buffer is touched every cycle by every pipeline
 * stage (executeStage walks all of it; the safety predicates scan
 * prefixes of it), and profiling the sweep hot path showed
 * std::deque's segmented storage costing real time there.  A ring
 * over one flat vector keeps all in-flight entries contiguous
 * while preserving the deque operations the pipeline needs:
 * push_back (dispatch), pop_front (commit), truncate (squash drops
 * a suffix), and stable logical indexing (0 = oldest).
 *
 * Capacity normally never grows — fetch stalls when the ROB is
 * full — but push_back re-linearizes into doubled storage rather
 * than corrupt state if a caller overfills.
 *
 * Slots are never destroyed one by one: pop_front, truncate and
 * clear only move the bounds, and emplace_back builds a new entry
 * over a vacated one.  So T must be trivially destructible.
 */
template <typename T>
class RingBuffer
{
    static_assert(std::is_trivially_destructible_v<T>);

  public:
    explicit RingBuffer(std::size_t capacity = 0)
        : slots_(capacity ? capacity : 1)
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    T &front() { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(T value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[wrap(head_ + size_)] = std::move(value);
        ++size_;
    }

    /**
     * Append a value-initialized entry and hand back a reference,
     * so callers can fill large entries in place.  The entry is
     * constructed straight into its slot, over the one that slot
     * last held (T is trivially destructible, so that one needs no
     * destructor call): no temporary and no copy.
     */
    T &
    emplace_back()
    {
        if (size_ == slots_.size())
            grow();
        T *slot = ::new (static_cast<void *>(
            &slots_[wrap(head_ + size_)])) T{};
        ++size_;
        return *slot;
    }

    void
    pop_front()
    {
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Keep the oldest @p count entries, drop the rest. */
    void truncate(std::size_t count) { size_ = count; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    // head_ < capacity and i <= capacity, so one conditional
    // subtraction wraps (capacity need not be a power of two).
    std::size_t
    wrap(std::size_t i) const
    {
        return i < slots_.size() ? i : i - slots_.size();
    }

    void
    grow()
    {
        std::vector<T> bigger(slots_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** Outcome of a run. */
struct RunResult
{
    bool halted = false;
    bool faulted = false;       ///< ended on an unhandled fault
    FaultKind fault = FaultKind::None; ///< last delivered fault
    Addr faultPc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
};

/**
 * The out-of-order speculative CPU.
 */
class Cpu
{
  public:
    Cpu(const CpuConfig &config, Memory &memory, PageTable &pt);

    const CpuConfig &config() const { return config_; }

    /** Load the instruction memory (Harvard-style). */
    void loadProgram(const Program &program);

    /** @name Architectural state
     *  @{ */
    Word reg(RegId r) const { return regs_.at(r); }
    void setReg(RegId r, Word value) { regs_.at(r) = value; }
    Privilege privilege() const { return privilege_; }
    void setPrivilege(Privilege p) { privilege_ = p; }
    bool enclaveMode() const { return enclaveMode_; }
    void setEnclaveMode(bool on) { enclaveMode_ = on; }
    Word msr(std::size_t index) const { return msrs_.at(index); }
    void setMsr(std::size_t index, Word value)
    {
        msrs_.at(index) = value;
    }
    /** @} */

    /** Where a delivered exception redirects (nullopt: run ends). */
    void setFaultHandler(std::optional<Addr> handler)
    {
        faultHandler_ = handler;
    }

    /** Extra return-target resolution delay (Spectre-RSB setup). */
    void setRetResolveExtraDelay(std::uint64_t cycles)
    {
        retExtraDelay_ = cycles;
    }

    /**
     * Context switch: changes the running context id (FPU ownership
     * domain, cache partition domain) and applies the configured
     * context-switch defenses.
     */
    void contextSwitch(int ctx);
    int context() const { return ctx_; }

    /** IBPB: explicit predictor barrier. */
    void ibpb();

    /** Run from @p start_pc until halt, unhandled fault or budget. */
    RunResult run(Addr start_pc, std::uint64_t max_cycles = 1000000);

    /** @name Covert-channel receiver helpers (harness level)
     *  These mimic the receiver's committed loads/flushes without a
     *  pipeline round trip.
     *  @{ */

    /** Timed load that fills the cache (prime / warm semantics). */
    std::uint32_t
    timedAccess(Addr vaddr)
    {
        return timedLoad(vaddr, true);
    }

    /**
     * Timed measurement that does not change cache state.  Real
     * Flush+Reload probes the last-level cache, where page-strided
     * probe slots never conflict; the simulator only models an L1,
     * so a state-changing sweep would evict yet-unmeasured slots --
     * an artifact, not a property of the channel.  See DESIGN.md.
     */
    std::uint32_t
    timedProbe(Addr vaddr)
    {
        return timedLoad(vaddr, false);
    }

    void
    flushLineVirt(Addr vaddr)
    {
        if (const Pte *pte = pt_.lookup(vaddr))
            cache_.flushLine(pte->physPage * kPageSize +
                             (vaddr % kPageSize));
    }

    void warmLine(Addr vaddr);
    /** @} */

    /** @name Component access
     *  @{ */
    Cache &cache() { return cache_; }
    Memory &memory() { return mem_; }
    PageTable &pageTable() { return pt_; }
    BranchPredictor &branchPredictor() { return bp_; }
    Btb &btb() { return btb_; }
    Rsb &rsb() { return rsb_; }
    StoreBuffer &storeBuffer() { return sb_; }
    LineFillBuffer &lineFillBuffer() { return lfb_; }
    LoadPort &loadPort() { return loadPort_; }
    FpuState &fpu() { return fpu_; }
    /** @} */

    const CpuStats &stats() const { return stats_; }
    void resetStats() { stats_ = CpuStats{}; }

  private:
    /** timedAccess (@p allocate) / timedProbe. */
    std::uint32_t
    timedLoad(Addr vaddr, bool allocate)
    {
        const Translation t = pt_.translate(vaddr, AccessType::Read,
                                            privilege_, enclaveMode_);
        if (t.fault != FaultKind::None || !t.paddrValid)
            return config_.cache.missLatency * 2;
        return cache_.access(t.paddr, ctx_, allocate).latency;
    }

    /**
     * An entry's progress flags, one block.  Every change progress()
     * or captureOperands() makes to an entry sets one of them, and
     * none is cleared during the entry's life -- which makes
     * comparing them an exact "did this entry change" test, and
     * keeping them together makes that test one compare of 13
     * bytes.  The static_asserts below keep anything else out: a
     * field that is not one of these bools changes the size, and
     * padding would make the byte compare inexact.
     */
    struct ProgressFlags
    {
        bool aReady = false, bReady = false; ///< operands captured
        bool executed = false; ///< result computation scheduled/done
        bool hasResult = false;
        bool forwardable = false;
        bool addrDone = false;
        bool dataStarted = false, dataDone = false;
        bool authStarted = false, authDone = false;
        bool resolveScheduled = false, resolved = false;
        bool completed = false;

        bool
        operator==(const ProgressFlags &other) const
        {
            return std::memcmp(this, &other, sizeof other) == 0;
        }
    };
    static_assert(std::is_trivially_copyable_v<ProgressFlags> &&
                  std::has_unique_object_representations_v<
                      ProgressFlags> &&
                  sizeof(ProgressFlags) == 13 * sizeof(bool));

    /**
     * One in-flight instruction.  Trivially destructible, so the ROB
     * builds each one in place over a vacated slot (see
     * RingBuffer::emplace_back).
     */
    struct RobEntry
    {
        Instruction inst;
        Addr pc = 0;
        std::uint64_t seq = 0;
        Addr predNext = 0;

        ProgressFlags flags;
        /// flags at the last idle check (Cpu::run).
        ProgressFlags flagsSeen;

        // The other one-byte fields, together so the entry has no
        // padding: source operands, result, memory, control flow and
        // transactions.
        bool needA = false, needB = false;
        bool hasProdA = false, hasProdB = false;
        bool taintAOn = false, taintBOn = false;
        bool resultTaintOn = false;
        bool paddrValid = false;
        FaultKind fault = FaultKind::None;
        bool insertedLine = false;
        bool needCommitInsert = false;
        bool actualTaken = false;
        bool mispredicted = false;
        bool txnMember = false;

        // Source operands.
        Word valA = 0, valB = 0;
        std::uint64_t prodA = 0, prodB = 0;
        std::uint64_t prodAAbs = 0, prodBAbs = 0;
        std::uint64_t taintA = 0, taintB = 0;

        // Result / forwarding.
        std::uint64_t doneCycle = 0;
        Word result = 0;
        std::uint64_t resultTaint = 0;

        // Memory.
        Addr vaddr = 0, paddr = 0;
        std::uint64_t dataDoneCycle = 0;
        Addr insertedLineAddr = 0;

        // Authorization track.
        std::uint64_t authDoneCycle = 0;

        // Control flow.
        std::uint64_t resolveCycle = 0;
        Addr actualNext = 0;
    };

    /**
     * Every pipeline field outside the ROB entries that a cycle can
     * change: dispatch moves seq, commit pops, a squash squashed, an
     * exception delivery exceptions, and the rest cover raising an
     * exception and fetch redirects, stalls and halts.
     */
    struct RobMarks
    {
        std::uint64_t seq = 0;
        std::uint64_t pops = 0;
        std::uint64_t squashed = 0;
        std::uint64_t exceptions = 0;
        bool pendingException = false;
        std::optional<std::uint64_t> fetchStallSeq;
        bool fetchHalted = false;
        Addr fetchPc = 0;

        bool operator==(const RobMarks &) const = default;
    };

    RobMarks robMarks() const;

    /**
     * Record every entry's flags in its flagsSeen.
     * @return true if none differed from the previous record.
     */
    bool recordEntryFlags();

    /**
     * The earliest cycle after cycle_ at which an armed latency
     * expires, or UINT64_MAX when none is armed.
     */
    std::uint64_t nextTimeGate() const;

    void stepCycle();
    void fetchStage();
    void executeStage();
    void commitStage();

    void dispatch(const Instruction &inst, Addr pc);
    void progress(RobEntry &e, std::size_t index,
                  bool fence_blocked);
    void progressLoad(RobEntry &e, std::size_t index);
    void progressStore(RobEntry &e, std::size_t index);
    void captureOperands(RobEntry &e);
    void finishExecution(RobEntry &e);

    /** Is any older entry still an unresolved speculation source? */
    bool underOlderSpeculation(std::size_t index) const;

    /** Own auth done, no fault, not under older speculation. */
    bool entrySafe(const RobEntry &e, std::size_t index) const;

    /** Is the taint (source seq) still live? */
    bool taintLive(std::uint64_t source_seq) const;

    RobEntry *findBySeq(std::uint64_t seq);
    const RobEntry *findBySeq(std::uint64_t seq) const;
    std::optional<std::size_t> indexOfSeq(std::uint64_t seq) const;

    /** Squash all entries at positions >= @p first_removed. */
    void squashFrom(std::size_t first_removed, Addr redirect_pc);

    void applyCommit(RobEntry &e);
    void deliverException(const RobEntry &head);
    void checkMemOrderViolation(const RobEntry &store);
    Word selectResidue(Addr vaddr) const;
    Addr retActualTarget(std::size_t ret_index) const;
    void rebuildRename();
    void recomputeFetchTxn();

    Word evalAlu(const RobEntry &e) const;
    static bool evalCond(Cond cond, Word a, Word b);

    CpuConfig config_;
    Memory &mem_;
    PageTable &pt_;
    Cache cache_;
    BranchPredictor bp_;
    Btb btb_;
    Rsb rsb_;
    StoreBuffer sb_;
    LineFillBuffer lfb_;
    LoadPort loadPort_;
    FpuState fpu_;

    Program program_;
    std::array<Word, kNumIntRegs> regs_{};
    std::array<Word, kNumMsrs> msrs_{};
    Privilege privilege_ = Privilege::User;
    bool enclaveMode_ = false;
    int ctx_ = 0;
    std::optional<Addr> faultHandler_;
    std::uint64_t retExtraDelay_ = 0;

    /**
     * Rename-table entry: the producing instruction's seq plus its
     * *absolute* ROB position (total pops + logical index).  The
     * absolute position never changes over an entry's lifetime —
     * commits shift every logical index down together and squashes
     * only drop younger entries — so operand capture resolves the
     * producer with one bounds-checked array access instead of a
     * per-cycle binary search.
     */
    struct RenameRef
    {
        std::uint64_t seq = 0;
        std::uint64_t abs = 0;
    };

    // Pipeline state.
    RingBuffer<RobEntry> rob_;
    std::uint64_t seqCounter_ = 0;
    std::uint64_t robPops_ = 0; ///< lifetime pop_front count
    std::array<std::optional<RenameRef>, kNumIntRegs> rename_{};
    std::vector<Addr> archCallStack_;
    Addr fetchPc_ = 0;
    bool fetchHalted_ = false;
    std::uint64_t cycle_ = 0;

    // Exception delivery.
    struct PendingException
    {
        std::uint64_t deliverCycle;
        FaultKind fault;
        Addr pc;
        bool isTxnAbort = false;
    };
    std::optional<PendingException> pendingException_;

    // Fetch stall for serialized control flow (retpoline model /
    // disabled branch prediction): the seq of the unresolved branch.
    std::optional<std::uint64_t> fetchStallSeq_;

    // In-flight Lfence/Mfence count, so executeStage skips its
    // oldest-fence scan on the (common) fence-free cycles.
    std::size_t fencesInRob_ = 0;

    // Transactions.  A faulting access inside a transaction raises a
    // TSX abort (redirect to the abort target) instead of an
    // architectural exception; abort detection has its own latency,
    // which is the TAA transient window.
    bool txnActive_ = false;
    bool fetchInTxn_ = false;
    Addr txnAbortTarget_ = 0;

    // Run bookkeeping.
    bool runHalted_ = false;
    bool runFaulted_ = false;
    FaultKind lastFault_ = FaultKind::None;
    Addr lastFaultPc_ = 0;

    CpuStats stats_;
};

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_CPU_HH
