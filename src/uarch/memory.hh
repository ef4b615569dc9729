/**
 * @file
 * Physical memory, page table and permission model.
 *
 * The page table supports the permission bits every modeled attack
 * depends on: present (Foreshadow terminal fault), user-accessible
 * (Meltdown), writable (Spectre v1.2), reserved bits
 * (Foreshadow-NG), and a page-owner domain tag (User / Kernel /
 * Enclave / Vmm) that reproduces the three isolation domains the
 * Foreshadow variants breach.
 *
 * Crucially for the Meltdown/Foreshadow model, a translation that
 * *faults* still reports the physical address when the PTE exists:
 * the address bits are architecturally available to the pipeline
 * before the permission check completes, which is exactly the race
 * the paper describes.
 *
 * PTEs change only through the PageTable's mutators, and each one
 * gives the table a PageTable::version() stamp that names the
 * table's edits, so Flush+Reload receivers can share their slots'
 * translations between tables with the same stamp.
 */

#ifndef SPECSEC_UARCH_MEMORY_HH
#define SPECSEC_UARCH_MEMORY_HH

#include <array>
#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa.hh"

namespace specsec::uarch
{

/** Page size in bytes. */
constexpr Addr kPageSize = 4096;

/** CPU privilege levels. */
enum class Privilege : std::uint8_t
{
    User,
    Kernel,
    Vmm,
};

/** Protection domain owning a page. */
enum class PageOwner : std::uint8_t
{
    User,
    Kernel,
    Enclave,
    Vmm,
};

/** Faults an access can raise. */
enum class FaultKind : std::uint8_t
{
    None,
    NotMapped,    ///< no PTE at all (KPTI-unmapped, wild pointer)
    NotPresent,   ///< PTE exists, present bit clear (L1TF trigger)
    ReservedBit,  ///< PTE reserved bit set (Foreshadow-NG trigger)
    Privilege,    ///< user access to kernel/enclave/VMM page
    WriteProtect, ///< store to a read-only page
    MsrPrivilege, ///< user RDMSR
    FpuNotOwned,  ///< lazy-FPU ownership fault
    TsxAbort,     ///< transaction asynchronous abort
};

/** @return stable human-readable fault name. */
const char *faultKindName(FaultKind fault);

/** A page table entry. */
struct Pte
{
    Addr physPage = 0;  ///< physical page number
    bool present = true;
    bool writable = true;
    bool userAccessible = true;
    bool reservedBit = false;
    PageOwner owner = PageOwner::User;

    auto operator<=>(const Pte &) const = default;
};

/** Memory access type for permission checking. */
enum class AccessType : std::uint8_t
{
    Read,
    Write,
    Execute,
};

/** Result of a translation: physical address plus any fault. */
struct Translation
{
    Addr paddr = 0;
    bool paddrValid = false; ///< PTE existed, address bits known
    FaultKind fault = FaultKind::None;
};

/**
 * A single-level page table mapping virtual page numbers to PTEs.
 *
 * Storage is a flat dense array indexed by virtual page number:
 * translate() runs on every load/store address generation and on
 * each of the thousands of receiver probes a covert-channel harness
 * issues per cell, so it is one bounds check and one indexed read
 * with no hashing, defined inline below.  The modeled address
 * spaces are small and contiguous (the scenario layout tops out
 * below 8MB), so the dense array stays a few dozen KB; the rare
 * mapping above kDenseVpns (a wild high vaddr) falls back to a side
 * map so the semantics stay exactly those of the old hash-map table.
 */
class PageTable
{
  public:
    /** VPNs below this live in the dense array (256MB of vaddr). */
    static constexpr Addr kDenseVpns = 1u << 16;

    PageTable() = default;
    PageTable(const PageTable &) = default;
    /** Not assignable: see version(). */
    PageTable &operator=(const PageTable &) = delete;

    /** Map the page containing @p vaddr with the given PTE. */
    void map(Addr vaddr, Pte pte);

    /** Identity-map [base, base+length) with the given attributes. */
    void mapRange(Addr base, Addr length, PageOwner owner,
                  bool user_accessible, bool writable);

    /** Remove the mapping for the page containing @p vaddr (KPTI). */
    void unmap(Addr vaddr);

    /**
     * @return the PTE for the page of @p vaddr, or nullptr.  Read
     * only: a PTE changes through the mutators, which stamp version().
     */
    const Pte *
    lookup(Addr vaddr) const
    {
        const Addr vpn = vaddr / kPageSize;
        if (vpn < slots_.size())
            return slots_[vpn].mapped ? &slots_[vpn].pte : nullptr;
        return lookupOverflow(vpn);
    }

    /** Clear / set the present bit (Foreshadow setup). */
    void setPresent(Addr vaddr, bool present);

    /** Set the reserved bit (Foreshadow-NG setup). */
    void setReservedBit(Addr vaddr, bool reserved);

    /**
     * Mapping stamp.  An empty table reads 0, a copy keeps its
     * source's stamp, and every mutator -- map, mapRange, unmap,
     * setPresent, setReservedBit -- moves it to the stamp of (the
     * table's stamp, the edit): a process-wide memo hands each new
     * pair the next value of one counter, so a stamp is always
     * greater than the one it was derived from, and every table
     * that takes the same edits from the same stamp reads the same
     * stamp.  The edit is the mutator, the pages it writes and every
     * PTE field it writes, and nothing else changes a table.  So two
     * tables with equal stamps hold equal PTEs, whichever tables
     * they are: a caller that kept lookups or translations made at
     * one stamp may reuse them for any table that reads it.  A table
     * cannot be assigned, which would replace its PTEs without a new
     * stamp.
     */
    std::uint64_t version() const { return version_; }

    /**
     * Translate a virtual address.
     *
     * The permission check order mirrors hardware: page walk (not
     * mapped?), present/reserved bits (terminal fault), then
     * privilege and write permission.
     *
     * @param enclave_mode true when executing inside the enclave
     *        (may access PageOwner::Enclave pages).
     */
    Translation translate(Addr vaddr, AccessType type,
                          Privilege privilege,
                          bool enclave_mode = false) const;

  private:
    struct Slot
    {
        Pte pte;
        bool mapped = false;
    };

    /** Grow the dense array to cover @p vpn (assumes it fits). */
    void ensureDense(Addr vpn);

    /** lookup() for a VPN past the dense array. */
    const Pte *lookupOverflow(Addr vpn) const;

    /** What one mutator call wrote (see version()). */
    struct Edit
    {
        enum class Kind : std::uint8_t
        {
            Map,
            MapRange,
            Unmap,
            SetPresent,
            SetReservedBit,
        };

        Kind kind = Kind::Map;
        Addr vpn = 0, endVpn = 0; ///< the pages written: [vpn, endVpn)
        Pte pte; ///< the fields written; the others at their defaults

        auto operator<=>(const Edit &) const = default;
    };

    /** Move version() to the stamp of (version(), @p edit). */
    void stamp(const Edit &edit);

    /**
     * The PTE a mutator edits, after stamping its edit (@p kind,
     * writing the fields of @p written); throws naming @p who, and
     * leaves the stamp alone, if the page is unmapped.
     */
    Pte &mappedPte(Addr vaddr, const char *who, Edit::Kind kind,
                   const Pte &written);

    std::vector<Slot> slots_;           ///< dense, indexed by VPN
    std::unordered_map<Addr, Pte> overflow_; ///< VPN >= kDenseVpns
    std::uint64_t version_ = 0;
};

inline Translation
PageTable::translate(Addr vaddr, AccessType type, Privilege privilege,
                     bool enclave_mode) const
{
    Translation t;
    const Pte *pte = lookup(vaddr);
    if (!pte) {
        t.fault = FaultKind::NotMapped;
        return t;
    }
    t.paddr = pte->physPage * kPageSize + (vaddr % kPageSize);
    t.paddrValid = true;

    // Terminal conditions first: the page walk aborts before the
    // privilege checks, which is the L1TF trigger.
    if (!pte->present) {
        t.fault = FaultKind::NotPresent;
        return t;
    }
    if (pte->reservedBit) {
        t.fault = FaultKind::ReservedBit;
        return t;
    }

    // Domain / privilege checks.
    switch (pte->owner) {
      case PageOwner::User:
        break;
      case PageOwner::Kernel:
        if (privilege == Privilege::User) {
            t.fault = FaultKind::Privilege;
            return t;
        }
        break;
      case PageOwner::Enclave:
        if (!enclave_mode) {
            t.fault = FaultKind::Privilege;
            return t;
        }
        break;
      case PageOwner::Vmm:
        if (privilege != Privilege::Vmm) {
            t.fault = FaultKind::Privilege;
            return t;
        }
        break;
    }
    // Enclaves execute at user privilege; the owner check above
    // already admitted this access, so the user-accessible bit does
    // not apply to enclave pages in enclave mode.
    const bool enclave_access =
        pte->owner == PageOwner::Enclave && enclave_mode;
    if (!pte->userAccessible && privilege == Privilege::User &&
        !enclave_access) {
        t.fault = FaultKind::Privilege;
        return t;
    }
    if (type == AccessType::Write && !pte->writable) {
        t.fault = FaultKind::WriteProtect;
        return t;
    }
    return t;
}

/**
 * Physical memory, little-endian, stored one 4KB page at a time.
 *
 * A page is allocated on its first write; a page never written
 * reads as zeros.  A scenario's memory is 8MB of address space of
 * which a cell writes a handful of pages (the planted secret, the
 * victim's bounds and pointers), so building one allocates nothing
 * and tearing one down frees only what the cell wrote.  Every
 * access is bounds-checked against size() and throws
 * std::out_of_range past it.
 */
class Memory
{
  public:
    explicit Memory(std::size_t size) : size_(size) {}

    std::size_t size() const { return size_; }

    std::uint8_t read8(Addr paddr) const;
    void write8(Addr paddr, std::uint8_t value);

    Word read64(Addr paddr) const;
    void write64(Addr paddr, Word value);

    /** Sized read: 1 or 8 bytes, zero-extended. */
    Word read(Addr paddr, std::uint8_t size) const;

    /** Sized write: 1 or 8 bytes. */
    void write(Addr paddr, Word value, std::uint8_t size);

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    void check(Addr paddr, std::size_t len) const;

    /** The page holding @p paddr, or nullptr if never written. */
    const Page *findPage(Addr paddr) const;

    /** The page holding @p paddr, allocated zeroed if new. */
    Page &pageFor(Addr paddr);

    std::size_t size_;
    std::unordered_map<Addr, Page> pages_; ///< keyed by page number
};

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_MEMORY_HH
