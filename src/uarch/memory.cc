#include "memory.hh"

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

void
Memory::check(Addr paddr, std::size_t len) const
{
    // Written so it cannot wrap: paddr + len overflows near 2^64.
    if (len > size_ || paddr > size_ - len)
        throw std::out_of_range("Memory: physical address out of range");
}

const Memory::Page *
Memory::findPage(Addr paddr) const
{
    const auto it = pages_.find(paddr / kPageSize);
    return it == pages_.end() ? nullptr : &it->second;
}

Memory::Page &
Memory::pageFor(Addr paddr)
{
    return pages_[paddr / kPageSize];
}

std::uint8_t
Memory::read8(Addr paddr) const
{
    check(paddr, 1);
    const Page *page = findPage(paddr);
    return page ? (*page)[paddr % kPageSize] : 0;
}

void
Memory::write8(Addr paddr, std::uint8_t value)
{
    check(paddr, 1);
    pageFor(paddr)[paddr % kPageSize] = value;
}

Word
Memory::read64(Addr paddr) const
{
    check(paddr, 8);
    const Addr offset = paddr % kPageSize;
    Word value = 0;
    if (offset > kPageSize - 8) { // straddles two pages
        for (int i = 7; i >= 0; --i)
            value = (value << 8) | read8(paddr + static_cast<Addr>(i));
        return value;
    }
    const Page *page = findPage(paddr);
    if (!page)
        return 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | (*page)[offset + static_cast<Addr>(i)];
    return value;
}

void
Memory::write64(Addr paddr, Word value)
{
    check(paddr, 8);
    const Addr offset = paddr % kPageSize;
    if (offset > kPageSize - 8) { // straddles two pages
        for (int i = 0; i < 8; ++i)
            write8(paddr + static_cast<Addr>(i),
                   static_cast<std::uint8_t>(value >> (8 * i)));
        return;
    }
    Page &page = pageFor(paddr);
    for (int i = 0; i < 8; ++i)
        page[offset + static_cast<Addr>(i)] =
            static_cast<std::uint8_t>(value >> (8 * i));
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
