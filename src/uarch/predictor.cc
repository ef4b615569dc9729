#include "predictor.hh"

#include <algorithm>

namespace specsec::uarch
{

bool
BranchPredictor::predictTaken(Addr pc) const
{
    // Untrained branches default to weakly taken: an attacker must
    // actively mistrain a bounds-check branch toward not-taken, and
    // flushing the predictor (strategy 4) restores the safe default.
    std::uint8_t counter = 2;
    if (pc < table_.size()) {
        const Cell &cell = table_[pc];
        if (cell.gen == gen_)
            counter = cell.counter;
    } else if (!overflow_.empty()) {
        const auto it = overflow_.find(pc);
        if (it != overflow_.end())
            counter = it->second;
    }
    return counter >= 2;
}

void
BranchPredictor::update(Addr pc, bool taken)
{
    std::uint8_t *counter;
    if (pc < table_.size()) {
        Cell &cell = table_[pc];
        if (cell.gen != gen_) {
            cell.gen = gen_;
            cell.counter = 2;
            ++trained_;
        }
        counter = &cell.counter;
    } else {
        auto [it, inserted] = overflow_.try_emplace(pc, 2);
        if (inserted)
            ++trained_;
        counter = &it->second;
    }
    if (taken) {
        if (*counter < 3)
            ++*counter;
    } else {
        if (*counter > 0)
            --*counter;
    }
}

void
BranchPredictor::flush()
{
    if (++gen_ == 0) {
        // Generation wrapped: only now do the entries need a real
        // clear (once per 2^32 flushes).
        std::fill(table_.begin(), table_.end(), Cell{});
        gen_ = 1;
    }
    overflow_.clear();
    trained_ = 0;
}

std::optional<Addr>
Btb::predict(Addr pc) const
{
    if (pc < table_.size()) {
        const Cell &cell = table_[pc];
        if (cell.gen == gen_)
            return cell.target;
        return std::nullopt;
    }
    if (!overflow_.empty()) {
        const auto it = overflow_.find(pc);
        if (it != overflow_.end())
            return it->second;
    }
    return std::nullopt;
}

void
Btb::update(Addr pc, Addr target)
{
    if (pc < table_.size()) {
        Cell &cell = table_[pc];
        if (cell.gen != gen_) {
            cell.gen = gen_;
            ++entries_;
        }
        cell.target = target;
    } else {
        if (overflow_.insert_or_assign(pc, target).second)
            ++entries_;
    }
}

void
Btb::flush()
{
    if (++gen_ == 0) {
        std::fill(table_.begin(), table_.end(), Cell{});
        gen_ = 1;
    }
    overflow_.clear();
    entries_ = 0;
}

void
Rsb::push(Addr return_addr)
{
    if (depth_ == 0)
        return; // holds nothing: every pop underflows
    if (stack_.size() == depth_)
        stack_.erase(stack_.begin()); // overflow drops the oldest
    stack_.push_back({return_addr, false});
}

Rsb::Pop
Rsb::pop()
{
    Pop result;
    if (stack_.empty())
        return result; // underflow
    result.valid = true;
    result.stuffed = stack_.back().stuffed;
    result.target = stack_.back().target;
    stack_.pop_back();
    return result;
}

void
Rsb::stuff(Addr benign_target)
{
    while (stack_.size() < depth_)
        stack_.insert(stack_.begin(), {benign_target, true});
}

void
Rsb::flush()
{
    stack_.clear();
}

} // namespace specsec::uarch
