#include "buffers.hh"

#include <algorithm>

namespace specsec::uarch
{

StoreBufferEntry *
StoreBuffer::findBySeq(std::uint64_t seq)
{
    for (StoreBufferEntry &e : entries_) {
        if (e.seq == seq)
            return &e;
    }
    return nullptr;
}

void
StoreBuffer::allocate(std::uint64_t seq, std::uint8_t size)
{
    StoreBufferEntry entry;
    entry.seq = seq;
    entry.size = size;
    entries_.push_back(entry);
}

void
StoreBuffer::setAddress(std::uint64_t seq, Addr vaddr, Addr paddr)
{
    if (StoreBufferEntry *e = findBySeq(seq)) {
        e->vaddr = vaddr;
        e->paddr = paddr;
        e->addrReady = true;
        if (e->dataReady)
            residue_ = Residue{e->vaddr, e->data};
    }
}

void
StoreBuffer::setData(std::uint64_t seq, Word data)
{
    if (StoreBufferEntry *e = findBySeq(seq)) {
        e->data = data;
        e->dataReady = true;
        // The buffer retains the bits even after squash or drain,
        // which is what Fallout samples.
        residue_ = Residue{e->vaddr, data};
    }
}

void
StoreBuffer::squashAfter(std::uint64_t last_kept)
{
    // Entries are in seq order (allocate appends each store as it
    // dispatches), so the squashed ones are a suffix, and most
    // squashes find none.  Residue intentionally survives: squashed
    // store data lingers in the buffer, which is what Fallout
    // samples.
    while (!entries_.empty() && entries_.back().seq > last_kept)
        entries_.pop_back();
}

std::optional<StoreBufferEntry>
StoreBuffer::drainOldest(std::uint64_t seq)
{
    if (entries_.empty() || entries_.front().seq != seq)
        return std::nullopt;
    StoreBufferEntry entry = entries_.front();
    entries_.pop_front();
    return entry;
}

std::optional<Word>
StoreBuffer::forward(std::uint64_t load_seq, Addr paddr,
                     std::uint8_t size) const
{
    // Scan youngest-first among entries older than the load.
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (it->seq >= load_seq || !it->addrReady || !it->dataReady)
            continue;
        if (it->paddr == paddr && it->size >= size) {
            const Word data = it->data;
            if (size == 1)
                return data & 0xff;
            return data;
        }
    }
    return std::nullopt;
}

bool
StoreBuffer::hasUnresolvedOlder(std::uint64_t load_seq) const
{
    return std::any_of(
        entries_.begin(), entries_.end(),
        [load_seq](const StoreBufferEntry &e) {
            return e.seq < load_seq && !e.addrReady;
        });
}

bool
StoreBuffer::mustStallLoad(std::uint64_t load_seq, Addr paddr,
                           std::uint8_t size) const
{
    for (const StoreBufferEntry &e : entries_) {
        if (e.seq >= load_seq || !e.addrReady)
            continue;
        const bool overlap = e.paddr < paddr + size &&
                             paddr < e.paddr + e.size;
        if (!overlap)
            continue;
        const bool can_forward =
            e.paddr == paddr && e.size >= size && e.dataReady;
        if (!can_forward)
            return true;
    }
    return false;
}

bool
StoreBuffer::partialAliasOlder(std::uint64_t load_seq, Addr vaddr) const
{
    return std::any_of(
        entries_.begin(), entries_.end(),
        [load_seq, vaddr](const StoreBufferEntry &e) {
            return e.seq < load_seq && e.addrReady &&
                   (e.vaddr & 0xfff) == (vaddr & 0xfff) &&
                   e.vaddr != vaddr;
        });
}

bool
StoreBuffer::physAliasOlder(std::uint64_t load_seq, Addr paddr) const
{
    return std::any_of(
        entries_.begin(), entries_.end(),
        [load_seq, paddr](const StoreBufferEntry &e) {
            return e.seq < load_seq && e.addrReady &&
                   (e.paddr & 0xfffff) == (paddr & 0xfffff) &&
                   e.paddr != paddr;
        });
}

void
LineFillBuffer::recordFill(Word data)
{
    // A 0-entry buffer holds nothing, so it keeps no residue.
    if (capacity_ == 0)
        return;
    last_ = data;
    count_ = std::min(count_ + 1, capacity_);
}

std::optional<Word>
LineFillBuffer::residue() const
{
    if (count_ == 0)
        return std::nullopt;
    return last_;
}

FpuState::FpuState()
{
    regs_.fill(0);
}

Word
FpuState::read(std::size_t reg) const
{
    return regs_.at(reg % kNumFpRegs);
}

void
FpuState::write(std::size_t reg, Word value)
{
    regs_.at(reg % kNumFpRegs) = value;
}

std::array<Word, kNumFpRegs> *
FpuState::findSaved(int ctx)
{
    for (auto &entry : saved_) {
        if (entry.first == ctx)
            return &entry.second;
    }
    return nullptr;
}

void
FpuState::contextSwitch(int new_ctx, bool eager)
{
    if (!eager) {
        // Lazy: leave the registers; the new context does not own
        // them until its first FP instruction faults.
        return;
    }
    takeOwnership(new_ctx);
}

void
FpuState::takeOwnership(int ctx)
{
    if (owner_ == ctx)
        return;
    if (auto *slot = findSaved(owner_))
        *slot = regs_;
    else
        saved_.emplace_back(owner_, regs_);
    if (const auto *slot = findSaved(ctx))
        regs_ = *slot;
    else
        regs_.fill(0);
    owner_ = ctx;
}

} // namespace specsec::uarch
