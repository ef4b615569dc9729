#include "memory.hh"

#include <algorithm>
#include <stdexcept>

namespace specsec::uarch
{

const char *
faultKindName(FaultKind fault)
{
    switch (fault) {
      case FaultKind::None: return "none";
      case FaultKind::NotMapped: return "not-mapped";
      case FaultKind::NotPresent: return "not-present";
      case FaultKind::ReservedBit: return "reserved-bit";
      case FaultKind::Privilege: return "privilege";
      case FaultKind::WriteProtect: return "write-protect";
      case FaultKind::MsrPrivilege: return "msr-privilege";
      case FaultKind::FpuNotOwned: return "fpu-not-owned";
      case FaultKind::TsxAbort: return "tsx-abort";
    }
    return "unknown";
}

void
PageTable::ensureDense(Addr vpn)
{
    if (vpn >= slots_.size())
        slots_.resize(static_cast<std::size_t>(vpn) + 1);
}

void
PageTable::map(Addr vaddr, Pte pte)
{
    const Addr vpn = vaddr / kPageSize;
    if (vpn < kDenseVpns) {
        ensureDense(vpn);
        slots_[vpn].pte = pte;
        slots_[vpn].mapped = true;
    } else {
        overflow_[vpn] = pte;
    }
}

void
PageTable::mapRange(Addr base, Addr length, PageOwner owner,
                    bool user_accessible, bool writable)
{
    const Addr first = base / kPageSize;
    const Addr last = (base + length + kPageSize - 1) / kPageSize;
    for (Addr vpn = first; vpn < last; ++vpn) {
        Pte pte;
        pte.physPage = vpn; // identity mapping
        pte.owner = owner;
        pte.userAccessible = user_accessible;
        pte.writable = writable;
        if (vpn < kDenseVpns) {
            ensureDense(vpn);
            slots_[vpn].pte = pte;
            slots_[vpn].mapped = true;
        } else {
            overflow_[vpn] = pte;
        }
    }
}

void
PageTable::unmap(Addr vaddr)
{
    const Addr vpn = vaddr / kPageSize;
    if (vpn < slots_.size())
        slots_[vpn].mapped = false;
    else if (vpn >= kDenseVpns)
        overflow_.erase(vpn);
}

const Pte *
PageTable::lookupOverflow(Addr vpn) const
{
    if (vpn < kDenseVpns || overflow_.empty())
        return nullptr;
    const auto it = overflow_.find(vpn);
    return it == overflow_.end() ? nullptr : &it->second;
}

void
PageTable::setPresent(Addr vaddr, bool present)
{
    Pte *pte = lookup(vaddr);
    if (!pte)
        throw std::invalid_argument("setPresent: page not mapped");
    pte->present = present;
}

void
PageTable::setReservedBit(Addr vaddr, bool reserved)
{
    Pte *pte = lookup(vaddr);
    if (!pte)
        throw std::invalid_argument("setReservedBit: page not mapped");
    pte->reservedBit = reserved;
}

Memory::Memory(std::size_t size)
    : bytes_(size, 0),
      dirty_((size / kPageSize + 64) / 64, 0)
{
}

void
Memory::rezeroDirtyPages()
{
    for (std::size_t w = 0; w < dirty_.size(); ++w) {
        std::uint64_t bits = dirty_[w];
        if (!bits)
            continue;
        dirty_[w] = 0;
        while (bits) {
            const int bit = __builtin_ctzll(bits);
            bits &= bits - 1;
            const std::size_t page = w * 64 +
                                     static_cast<std::size_t>(bit);
            const std::size_t start = page * kPageSize;
            const std::size_t len =
                std::min<std::size_t>(kPageSize,
                                      bytes_.size() - start);
            std::fill_n(bytes_.begin() +
                            static_cast<std::ptrdiff_t>(start),
                        len, 0);
        }
    }
}

std::size_t
Memory::dirtyPageCount() const
{
    std::size_t count = 0;
    for (const std::uint64_t bits : dirty_)
        count += static_cast<std::size_t>(
            __builtin_popcountll(bits));
    return count;
}

void
Memory::check(Addr paddr, std::size_t len) const
{
    if (paddr + len > bytes_.size())
        throw std::out_of_range("Memory: physical address out of range");
}

std::uint8_t
Memory::read8(Addr paddr) const
{
    check(paddr, 1);
    return bytes_[paddr];
}

void
Memory::write8(Addr paddr, std::uint8_t value)
{
    check(paddr, 1);
    markDirty(paddr, 1);
    bytes_[paddr] = value;
}

Word
Memory::read64(Addr paddr) const
{
    check(paddr, 8);
    Word value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | bytes_[paddr + static_cast<Addr>(i)];
    return value;
}

void
Memory::write64(Addr paddr, Word value)
{
    check(paddr, 8);
    markDirty(paddr, 8);
    for (int i = 0; i < 8; ++i) {
        bytes_[paddr + static_cast<Addr>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

Word
Memory::read(Addr paddr, std::uint8_t size) const
{
    return size == 1 ? read8(paddr) : read64(paddr);
}

void
Memory::write(Addr paddr, Word value, std::uint8_t size)
{
    if (size == 1)
        write8(paddr, static_cast<std::uint8_t>(value));
    else
        write64(paddr, value);
}

} // namespace specsec::uarch
