/**
 * @file
 * The leaky micro-architectural buffers of the MDS-family attacks:
 * store buffer (Fallout, Spectre v4, Spoiler), line fill buffer
 * (RIDL, ZombieLoad, CacheOut), load port (RIDL) and the lazily
 * switched FPU register file (LazyFP).
 *
 * Each buffer retains *residue*: stale data from recent operations
 * that a faulting load can transiently forward on a vulnerable
 * machine.  The VERW-style defense clears residues on context
 * switch.
 */

#ifndef SPECSEC_UARCH_BUFFERS_HH
#define SPECSEC_UARCH_BUFFERS_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "isa.hh"

namespace specsec::uarch
{

/** One pending (not yet committed) store. */
struct StoreBufferEntry
{
    std::uint64_t seq = 0;    ///< ROB sequence of the owning store
    Addr vaddr = 0;
    Addr paddr = 0;
    bool addrReady = false;
    Word data = 0;
    bool dataReady = false;
    std::uint8_t size = 8;
};

/**
 * The store buffer: program-ordered pending stores with
 * store-to-load forwarding, partial-address (4KB-aliased) matching
 * for the Spoiler timing model, and data residue for Fallout.
 */
class StoreBuffer
{
  public:
    /** Allocate an entry for the store with ROB sequence @p seq. */
    void allocate(std::uint64_t seq, std::uint8_t size);

    /** Record the resolved address of store @p seq. */
    void setAddress(std::uint64_t seq, Addr vaddr, Addr paddr);

    /** Record the data of store @p seq. */
    void setData(std::uint64_t seq, Word data);

    /** Remove entries of squashed stores (seq > @p last_kept);
     *  entries are allocated in seq order. */
    void squashAfter(std::uint64_t last_kept);

    /** Pop the oldest entry at commit; @return it for draining. */
    std::optional<StoreBufferEntry> drainOldest(std::uint64_t seq);

    /**
     * Store-to-load forwarding: youngest entry older than
     * @p load_seq with a resolved address covering [paddr,
     * paddr+size).  Only exact-size containment forwards.
     */
    std::optional<Word> forward(std::uint64_t load_seq, Addr paddr,
                                std::uint8_t size) const;

    /**
     * @return true if any store older than @p load_seq has an
     *         unresolved address (disambiguation incomplete).
     */
    bool hasUnresolvedOlder(std::uint64_t load_seq) const;

    /**
     * @return true if an older resolved store overlaps
     *         [paddr, paddr+size) but cannot fully forward it
     *         (partial overlap, or its data is not ready): the load
     *         must wait for the store to drain.
     */
    bool mustStallLoad(std::uint64_t load_seq, Addr paddr,
                       std::uint8_t size) const;

    /**
     * Spoiler model: true if an older store's resolved address
     * matches @p vaddr in the low 12 bits but differs in full
     * address (a false 4KB-aliased dependency).
     */
    bool partialAliasOlder(std::uint64_t load_seq, Addr vaddr) const;

    /**
     * Spoiler model: true if additionally the *physical* addresses
     * match in the low 20 bits (1MB aliasing), the slow-rehazard
     * case Spoiler measures.
     */
    bool physAliasOlder(std::uint64_t load_seq, Addr paddr) const;

    /** Fallout residue: the most recent store's data and address. */
    struct Residue
    {
        Addr vaddr = 0;
        Word data = 0;
    };

    /** Most recent store data (pending or drained): Fallout residue. */
    std::optional<Residue> residue() const { return residue_; }

    /** Clear residue (VERW defense). */
    void clearResidue() { residue_.reset(); }

    std::size_t pending() const { return entries_.size(); }

  private:
    StoreBufferEntry *findBySeq(std::uint64_t seq);

    std::deque<StoreBufferEntry> entries_;
    std::optional<Residue> residue_;
};

/**
 * Line fill buffer: a small ring of recent fills whose data lingers
 * after completion (RIDL / ZombieLoad / CacheOut residue).  What a
 * faulting load can read of it is the most recent fill, so that and
 * the ring's occupancy are all it keeps.
 */
class LineFillBuffer
{
  public:
    explicit LineFillBuffer(std::size_t entries) : capacity_(entries) {}

    /** Record a line fill that brought in @p data. */
    void recordFill(Word data);

    /** Most recent fill data still lingering in the buffer. */
    std::optional<Word> residue() const;

    /** Clear all residues (VERW defense). */
    void clear() { count_ = 0; }

    /** Fills held: those recorded since clear(), up to capacity. */
    std::size_t size() const { return count_; }

  private:
    std::size_t capacity_;
    std::size_t count_ = 0;
    Word last_ = 0;
};

/** Load port: retains the last value that crossed it (RIDL). */
class LoadPort
{
  public:
    void record(Word data) { residue_ = data; }
    std::optional<Word> residue() const { return residue_; }
    void clear() { residue_.reset(); }

  private:
    std::optional<Word> residue_;
};

/**
 * FPU register file with lazy context switching.
 *
 * With lazy switching (the historical default), a context switch
 * leaves the registers in place and only flags the new context as
 * not owning them; the first FP instruction faults (and on a
 * vulnerable machine transiently reads the previous context's
 * values: LazyFP).  Eager switching saves/restores per context.
 */
class FpuState
{
  public:
    FpuState();

    int owner() const { return owner_; }

    Word read(std::size_t reg) const;
    void write(std::size_t reg, Word value);

    /**
     * Context switch.
     * @param eager Save current registers and load @p new_ctx's
     *        (defense); otherwise lazy: registers keep the old
     *        context's values and owner() != current context.
     */
    void contextSwitch(int new_ctx, bool eager);

    /**
     * Resolve a lazy-FPU fault the way an OS handler would: save the
     * old owner's registers, load @p ctx's, take ownership.
     */
    void takeOwnership(int ctx);

  private:
    /** Saved register file for @p ctx, or nullptr. */
    std::array<Word, kNumFpRegs> *findSaved(int ctx);

    std::array<Word, kNumFpRegs> regs_{};
    int owner_ = 0;
    // A scenario touches two or three context ids, so the save area
    // is a small flat vector searched linearly — no hashing on the
    // context-switch path.
    std::vector<std::pair<int, std::array<Word, kNumFpRegs>>> saved_;
};

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_BUFFERS_HH
