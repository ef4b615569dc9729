#include "cpu.hh"

#include <algorithm>
#include <limits>

namespace specsec::uarch
{

namespace
{

/** Sentinel prediction for serialized (non-speculated) control. */
constexpr Addr kNoPred = std::numeric_limits<Addr>::max();

/** Does the opcode carry a delayed authorization check? */
bool
needsAuth(Opcode op)
{
    return op == Opcode::Load || op == Opcode::Store ||
           op == Opcode::RdMsr || op == Opcode::FpRead ||
           op == Opcode::FpMov;
}

/** Is the opcode control flow that resolves after dispatch? */
bool
lateControl(Opcode op)
{
    return op == Opcode::Branch || op == Opcode::JmpInd ||
           op == Opcode::Ret;
}

} // anonymous namespace

Cpu::Cpu(const CpuConfig &config, Memory &memory, PageTable &pt)
    : config_(config), mem_(memory), pt_(pt), cache_(config.cache),
      rsb_(config.rsbDepth), lfb_(config.lfbEntries),
      rob_(config.robSize)
{
    cache_.setPartitioned(config_.defense.partitionedCache);
}

void
Cpu::loadProgram(const Program &program)
{
    program.finalize();
    program_ = program;
}

void
Cpu::contextSwitch(int ctx)
{
    ctx_ = ctx;
    fpu_.contextSwitch(ctx, config_.defense.eagerFpuSwitch);
    if (config_.defense.flushPredictorOnContextSwitch)
        ibpb();
    if (config_.defense.clearBuffersOnContextSwitch) {
        sb_.clearResidue();
        lfb_.clear();
        loadPort_.clear();
    }
}

void
Cpu::ibpb()
{
    bp_.flush();
    btb_.flush();
    rsb_.flush();
}

void
Cpu::warmLine(Addr vaddr)
{
    if (const Pte *pte = pt_.lookup(vaddr)) {
        cache_.access(pte->physPage * kPageSize + (vaddr % kPageSize),
                      ctx_, true);
    }
}

Cpu::RobEntry *
Cpu::findBySeq(std::uint64_t seq)
{
    const auto index = indexOfSeq(seq);
    return index ? &rob_[*index] : nullptr;
}

const Cpu::RobEntry *
Cpu::findBySeq(std::uint64_t seq) const
{
    return const_cast<Cpu *>(this)->findBySeq(seq);
}

std::optional<std::size_t>
Cpu::indexOfSeq(std::uint64_t seq) const
{
    // ROB order is seq order: dispatch appends strictly increasing
    // seqs, commit pops the front, squash drops a suffix.  Binary
    // search instead of the old linear scan.
    std::size_t lo = 0, hi = rob_.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (rob_[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < rob_.size() && rob_[lo].seq == seq)
        return lo;
    return std::nullopt;
}

bool
Cpu::underOlderSpeculation(std::size_t index) const
{
    for (std::size_t i = 0; i < index && i < rob_.size(); ++i) {
        const RobEntry &e = rob_[i];
        if (lateControl(e.inst.op) && !e.resolved)
            return true;
        if (needsAuth(e.inst.op) &&
            (!e.authDone || e.fault != FaultKind::None)) {
            return true;
        }
        if (e.inst.op == Opcode::Store && !e.addrDone)
            return true;
    }
    return false;
}

bool
Cpu::entrySafe(const RobEntry &e, std::size_t index) const
{
    if (e.fault != FaultKind::None)
        return false;
    if (needsAuth(e.inst.op) && !e.authDone)
        return false;
    return !underOlderSpeculation(index);
}

bool
Cpu::taintLive(std::uint64_t source_seq) const
{
    const auto index = indexOfSeq(source_seq);
    if (!index)
        return false; // committed (safe) or squashed (moot)
    return !entrySafe(rob_[*index], *index);
}

void
Cpu::rebuildRename()
{
    rename_.fill(std::nullopt);
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry &e = rob_[i];
        if (writesIntReg(e.inst))
            rename_[e.inst.rd] = RenameRef{e.seq, robPops_ + i};
    }
}

void
Cpu::recomputeFetchTxn()
{
    fetchInTxn_ = txnActive_;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const Opcode op = rob_[i].inst.op;
        if (op == Opcode::XBegin)
            fetchInTxn_ = true;
        else if (op == Opcode::XEnd)
            fetchInTxn_ = false;
    }
}

void
Cpu::squashFrom(std::size_t first_removed, Addr redirect_pc)
{
    if (first_removed < rob_.size()) {
        const std::uint64_t boundary_seq =
            first_removed == 0 ? 0 : rob_[first_removed - 1].seq;
        for (std::size_t i = first_removed; i < rob_.size(); ++i) {
            RobEntry &e = rob_[i];
            ++stats_.squashed;
            // Architectural rollback is implicit (commit never
            // happened).  Cache state stays -- unless CleanupSpec
            // undoes lines the squashed loads installed.
            if (e.insertedLine && config_.defense.cleanupSpec)
                cache_.flushLine(e.insertedLineAddr);
            if (e.inst.op == Opcode::Lfence ||
                e.inst.op == Opcode::Mfence) {
                --fencesInRob_;
            }
        }
        rob_.truncate(first_removed);
        sb_.squashAfter(boundary_seq);
    }
    rebuildRename();
    fetchPc_ = redirect_pc;
    fetchHalted_ = false;
    fetchStallSeq_.reset();
    recomputeFetchTxn();
}

Word
Cpu::selectResidue(Addr vaddr) const
{
    // Fallout: a store-buffer entry whose page offset matches the
    // faulting load's is forwarded preferentially.
    if (const auto sb_res = sb_.residue()) {
        if ((sb_res->vaddr & (kPageSize - 1)) ==
            (vaddr & (kPageSize - 1))) {
            return sb_res->data;
        }
    }
    // RIDL / ZombieLoad / CacheOut: line fill buffer residue.
    if (const auto lfb_res = lfb_.residue())
        return *lfb_res;
    // RIDL: load port residue.
    if (const auto lp_res = loadPort_.residue())
        return *lp_res;
    if (const auto sb_res = sb_.residue())
        return sb_res->data;
    return 0;
}

Addr
Cpu::retActualTarget(std::size_t ret_index) const
{
    std::vector<Addr> stack = archCallStack_;
    for (std::size_t i = 0; i < ret_index && i < rob_.size(); ++i) {
        const RobEntry &e = rob_[i];
        if (e.inst.op == Opcode::Call)
            stack.push_back(e.pc + 1);
        else if (e.inst.op == Opcode::Ret && !stack.empty())
            stack.pop_back();
    }
    if (stack.empty())
        return rob_[ret_index].pc + 1; // fall through on empty stack
    return stack.back();
}

Word
Cpu::evalAlu(const RobEntry &e) const
{
    const Instruction &i = e.inst;
    switch (i.op) {
      case Opcode::MovImm: return static_cast<Word>(i.imm);
      case Opcode::Mov: return e.valA;
      case Opcode::Add: return e.valA + e.valB;
      case Opcode::Sub: return e.valA - e.valB;
      case Opcode::And: return e.valA & e.valB;
      case Opcode::Or: return e.valA | e.valB;
      case Opcode::Xor: return e.valA ^ e.valB;
      case Opcode::Shl: return e.valA << (e.valB & 63);
      case Opcode::Shr: return e.valA >> (e.valB & 63);
      case Opcode::AddImm:
        return e.valA + static_cast<Word>(i.imm);
      case Opcode::AndImm:
        return e.valA & static_cast<Word>(i.imm);
      case Opcode::ShlImm: return e.valA << (i.imm & 63);
      case Opcode::ShrImm: return e.valA >> (i.imm & 63);
      case Opcode::MulImm:
        return e.valA * static_cast<Word>(i.imm);
      case Opcode::RdTsc: return cycle_;
      default: return 0;
    }
}

bool
Cpu::evalCond(Cond cond, Word a, Word b)
{
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    switch (cond) {
      case Cond::Eq: return a == b;
      case Cond::Ne: return a != b;
      case Cond::Lt: return sa < sb;
      case Cond::Ge: return sa >= sb;
      case Cond::Ltu: return a < b;
      case Cond::Geu: return a >= b;
    }
    return false;
}

void
Cpu::captureOperands(RobEntry &e)
{
    // Producers are resolved by their absolute ROB position (see
    // RenameRef): one bounds-checked access replaces the old
    // per-cycle binary search.  A committed producer's position is
    // below robPops_, so the unsigned subtraction lands out of
    // range; a squashed producer implies this consumer was squashed
    // with it, so a stale hit cannot occur.
    const auto producer = [this](std::uint64_t seq,
                                 std::uint64_t abs) -> const RobEntry * {
        const std::size_t index =
            static_cast<std::size_t>(abs - robPops_);
        if (index < rob_.size() && rob_[index].seq == seq)
            return &rob_[index];
        return nullptr;
    };
    if (e.needA && !e.aReady && e.hasProdA) {
        const RobEntry *prod = producer(e.prodA, e.prodAAbs);
        if (!prod) {
            // Producer committed; its value is architectural now.
            e.valA = regs_[e.inst.ra];
            e.aReady = true;
        } else if (prod->forwardable) {
            e.valA = prod->result;
            e.taintAOn = prod->resultTaintOn;
            e.taintA = prod->resultTaint;
            e.aReady = true;
        }
    }
    if (e.needB && !e.bReady && e.hasProdB) {
        const RobEntry *prod = producer(e.prodB, e.prodBAbs);
        if (!prod) {
            e.valB = regs_[e.inst.rb];
            e.bReady = true;
        } else if (prod->forwardable) {
            e.valB = prod->result;
            e.taintBOn = prod->resultTaintOn;
            e.taintB = prod->resultTaint;
            e.bReady = true;
        }
    }
}

void
Cpu::finishExecution(RobEntry &e)
{
    e.result = evalAlu(e);
    e.hasResult = true;
    e.forwardable = true;
    if (e.taintAOn && taintLive(e.taintA)) {
        e.resultTaintOn = true;
        e.resultTaint = e.taintA;
    } else if (e.taintBOn && taintLive(e.taintB)) {
        e.resultTaintOn = true;
        e.resultTaint = e.taintB;
    }
    e.completed = true;
}

void
Cpu::progressLoad(RobEntry &e, std::size_t index)
{
    const HwDefenseConfig &def = config_.defense;
    const VulnConfig &vuln = config_.vuln;

    if (!e.addrDone && e.aReady) {
        e.vaddr = e.valA + static_cast<Word>(e.inst.imm);
        const Translation t = pt_.translate(
            e.vaddr, AccessType::Read, privilege_, enclaveMode_);
        e.paddr = t.paddr;
        e.paddrValid = t.paddrValid;
        e.fault = t.fault;
        e.addrDone = true;
        // Authorization track: the permission/fault check races the
        // data access below (the paper's step 2).
        e.authStarted = true;
        e.authDoneCycle = cycle_ + config_.permCheckLatency;
    }
    if (e.addrDone && !e.authDone && cycle_ >= e.authDoneCycle)
        e.authDone = true;

    if (e.addrDone && !e.dataStarted) {
        const bool under_spec = underOlderSpeculation(index);

        // Strategy 1 (hardware fencing): no access before
        // authorization.
        if (def.fenceSpeculativeLoads && (under_spec || !e.authDone))
            return;
        // Strategy 3 (STT): no transmit whose address is tainted.
        if (def.blockTaintedTransmit && e.taintAOn &&
            taintLive(e.taintA)) {
            return;
        }
        // Store-to-load disambiguation.
        const bool unresolved_store = sb_.hasUnresolvedOlder(e.seq);
        if (unresolved_store &&
            (def.safeStoreBypass || !vuln.storeBypass)) {
            return;
        }
        // Partial-overlap hazard: an older resolved store covers
        // part of this load but cannot forward all of it; wait for
        // the store to drain.
        if (e.paddrValid &&
            sb_.mustStallLoad(e.seq, e.paddr, e.inst.size)) {
            return;
        }
        // Strategy 3 (Conditional Speculation): speculative misses
        // wait.
        if (def.conditionalSpeculation && under_spec) {
            const bool hit =
                e.fault == FaultKind::None && e.paddrValid &&
                (cache_.contains(e.paddr, ctx_) ||
                 sb_.forward(e.seq, e.paddr, e.inst.size).has_value());
            if (!hit)
                return;
        }

        e.dataStarted = true;
        std::uint32_t latency = config_.cache.hitLatency;
        Word value = 0;
        bool transient = false;

        if (e.fault == FaultKind::None && e.paddrValid) {
            if (const auto fwd =
                    sb_.forward(e.seq, e.paddr, e.inst.size)) {
                value = *fwd;
                latency = 1;
                loadPort_.record(value);
            } else {
                bool allocate = true;
                if (def.invisibleSpeculation && under_spec) {
                    allocate = false;
                    e.needCommitInsert = true;
                }
                const CacheAccess ca =
                    cache_.access(e.paddr, ctx_, allocate);
                latency = ca.latency;
                // Spoiler: partially aliased store-buffer entries
                // stall the load; physical 1MB aliases stall more.
                if (sb_.partialAliasOlder(e.seq, e.vaddr))
                    latency += config_.partialAliasPenalty;
                if (sb_.physAliasOlder(e.seq, e.paddr))
                    latency += config_.physAliasPenalty;
                if (!ca.hit && allocate) {
                    e.insertedLine = true;
                    e.insertedLineAddr = e.paddr;
                    if (under_spec)
                        ++stats_.speculativeFills;
                }
                value = mem_.read(e.paddr, e.inst.size);
                if (!ca.hit)
                    lfb_.recordFill(e.paddr, value);
                loadPort_.record(value);
            }
        } else if (e.fault == FaultKind::Privilege && e.paddrValid) {
            // Meltdown path: data access races the privilege check.
            if (vuln.meltdown) {
                const CacheAccess ca =
                    cache_.access(e.paddr, ctx_, true);
                latency = ca.latency;
                if (!ca.hit) {
                    e.insertedLine = true;
                    e.insertedLineAddr = e.paddr;
                    ++stats_.speculativeFills;
                }
                value = mem_.read(e.paddr, e.inst.size);
                if (!ca.hit)
                    lfb_.recordFill(e.paddr, value);
                loadPort_.record(value);
                transient = true;
            } else {
                value = 0; // fixed silicon forwards zeros
            }
        } else if ((e.fault == FaultKind::NotPresent ||
                    e.fault == FaultKind::ReservedBit) &&
                   e.paddrValid) {
            // Foreshadow / L1TF: the terminal fault reads the L1 by
            // the PTE's physical address bits -- only if the line is
            // actually in the cache.  When it is not, a vulnerable
            // machine falls through to buffer residue forwarding,
            // which is the LVI injection path.
            if (vuln.l1tf && cache_.contains(e.paddr, ctx_)) {
                value = mem_.read(e.paddr, e.inst.size);
                transient = true;
            } else if (e.txnMember ? vuln.taa : vuln.mds) {
                value = selectResidue(e.vaddr);
                transient = true;
            } else {
                value = 0;
            }
        } else {
            // No usable physical address (unmapped): the MDS family.
            // Inside a doomed transaction this is the TAA path.
            const bool forward_residue =
                e.txnMember ? vuln.taa : vuln.mds;
            if (forward_residue) {
                value = selectResidue(e.vaddr);
                transient = true;
            } else {
                value = 0;
            }
        }

        if (transient)
            ++stats_.transientForwards;
        e.result = value;
        e.dataDoneCycle = cycle_ + std::max<std::uint32_t>(latency, 1);
    }

    if (e.dataStarted && !e.dataDone && cycle_ >= e.dataDoneCycle) {
        e.dataDone = true;
        e.hasResult = true;
        const bool safe = entrySafe(e, index);
        e.resultTaintOn = !safe;
        e.resultTaint = e.seq;
        // Strategy 2 (NDA): forward only once safe.
        e.forwardable =
            config_.defense.blockSpeculativeForwarding ? safe : true;
    }
    if (e.hasResult && !e.forwardable &&
        config_.defense.blockSpeculativeForwarding &&
        entrySafe(e, index)) {
        e.forwardable = true;
        e.resultTaintOn = false;
    }
    if (e.dataDone && e.authDone)
        e.completed = true;
}

void
Cpu::progressStore(RobEntry &e, std::size_t index)
{
    if (!e.addrDone && e.aReady) {
        e.vaddr = e.valA + static_cast<Word>(e.inst.imm);
        const Translation t = pt_.translate(
            e.vaddr, AccessType::Write, privilege_, enclaveMode_);
        e.paddr = t.paddr;
        e.paddrValid = t.paddrValid;
        e.fault = t.fault;
        e.addrDone = true;
        e.authStarted = true;
        e.authDoneCycle = cycle_ + config_.permCheckLatency;
        if (e.paddrValid) {
            sb_.setAddress(e.seq, e.vaddr, e.paddr);
            checkMemOrderViolation(e);
        }
    }
    if (e.addrDone && !e.authDone && cycle_ >= e.authDoneCycle)
        e.authDone = true;
    if (e.bReady && !e.executed) {
        const Word data = e.inst.size == 1 ? (e.valB & 0xff) : e.valB;
        sb_.setData(e.seq, data);
        e.executed = true;
    }
    if (e.addrDone && e.executed && e.authDone)
        e.completed = true;
    (void)index;
}

void
Cpu::checkMemOrderViolation(const RobEntry &store)
{
    const auto store_index = indexOfSeq(store.seq);
    if (!store_index)
        return;
    for (std::size_t j = *store_index + 1; j < rob_.size(); ++j) {
        const RobEntry &e = rob_[j];
        if (!isLoad(e.inst.op) || !e.dataStarted || !e.paddrValid)
            continue;
        const Addr store_end = store.paddr + store.inst.size;
        const Addr load_end = e.paddr + e.inst.size;
        const bool overlap =
            store.paddr < load_end && e.paddr < store_end;
        if (overlap) {
            // The load speculatively bypassed this store and read
            // stale data: squash and refetch from the load.
            ++stats_.memOrderViolations;
            squashFrom(j, e.pc);
            return;
        }
    }
}

void
Cpu::progress(RobEntry &e, std::size_t index, bool fence_blocked)
{
    captureOperands(e);

    // LFENCE/MFENCE: younger instructions do not execute until the
    // fence retires (the paper's strategy-1 software defense).  The
    // caller hoists the fence position scan out of the per-entry
    // loop (executeStage).
    if (fence_blocked)
        return;

    switch (e.inst.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Lfence:
      case Opcode::Mfence:
      case Opcode::XEnd:
        e.completed = true;
        break;

      case Opcode::XBegin:
      case Opcode::Jmp:
      case Opcode::Call:
        e.resolved = true;
        e.actualNext = e.predNext;
        e.completed = true;
        break;

      case Opcode::MovImm:
      case Opcode::Mov:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::AddImm:
      case Opcode::AndImm:
      case Opcode::ShlImm:
      case Opcode::ShrImm:
      case Opcode::MulImm:
      case Opcode::RdTsc:
        if ((!e.needA || e.aReady) && (!e.needB || e.bReady)) {
            if (!e.executed) {
                e.executed = true;
                e.doneCycle = cycle_ + 1;
            }
            if (!e.hasResult && cycle_ >= e.doneCycle)
                finishExecution(e);
        }
        break;

      case Opcode::Branch:
        if (e.aReady && e.bReady && !e.resolveScheduled) {
            e.resolveScheduled = true;
            e.resolveCycle = cycle_ + config_.branchResolveLatency;
        }
        if (e.resolveScheduled && !e.resolved &&
            cycle_ >= e.resolveCycle) {
            e.resolved = true;
            e.actualTaken = evalCond(e.inst.cond, e.valA, e.valB);
            e.actualNext = e.actualTaken
                               ? static_cast<Addr>(e.inst.imm)
                               : e.pc + 1;
            e.completed = true;
            if (e.predNext == kNoPred) {
                // Serialized fetch: redirect, no squash needed.
                fetchPc_ = e.actualNext;
                fetchStallSeq_.reset();
            } else if (e.actualNext != e.predNext) {
                e.mispredicted = true;
                ++stats_.branchMispredicts;
                squashFrom(index + 1, e.actualNext);
            }
        }
        break;

      case Opcode::JmpInd:
        if (e.aReady && !e.resolveScheduled) {
            e.resolveScheduled = true;
            e.resolveCycle = cycle_ + config_.branchResolveLatency;
        }
        if (e.resolveScheduled && !e.resolved &&
            cycle_ >= e.resolveCycle) {
            e.resolved = true;
            e.actualNext = e.valA;
            e.completed = true;
            if (e.predNext == kNoPred) {
                fetchPc_ = e.actualNext;
                fetchStallSeq_.reset();
            } else if (e.actualNext != e.predNext) {
                e.mispredicted = true;
                ++stats_.branchMispredicts;
                squashFrom(index + 1, e.actualNext);
            }
        }
        break;

      case Opcode::Ret:
        if (!e.resolveScheduled) {
            e.resolveScheduled = true;
            e.resolveCycle = cycle_ + config_.retResolveLatency +
                             retExtraDelay_;
        }
        if (e.resolveScheduled && !e.resolved &&
            cycle_ >= e.resolveCycle) {
            e.resolved = true;
            e.actualNext = retActualTarget(index);
            e.completed = true;
            if (e.predNext == kNoPred) {
                fetchPc_ = e.actualNext;
                fetchStallSeq_.reset();
            } else if (e.actualNext != e.predNext) {
                e.mispredicted = true;
                ++stats_.branchMispredicts;
                squashFrom(index + 1, e.actualNext);
            }
        }
        break;

      case Opcode::Load:
        progressLoad(e, index);
        break;

      case Opcode::Store:
        progressStore(e, index);
        break;

      case Opcode::Clflush:
        if (e.aReady && !e.addrDone) {
            e.vaddr = e.valA + static_cast<Word>(e.inst.imm);
            const Translation t = pt_.translate(
                e.vaddr, AccessType::Read, privilege_, enclaveMode_);
            e.paddr = t.paddr;
            e.paddrValid = t.paddrValid;
            e.addrDone = true;
            e.completed = true;
        }
        break;

      case Opcode::RdMsr:
        if (!e.authStarted) {
            e.authStarted = true;
            e.authDoneCycle = cycle_ + config_.permCheckLatency;
            if (privilege_ == Privilege::User)
                e.fault = FaultKind::MsrPrivilege;
        }
        if (!e.authDone && cycle_ >= e.authDoneCycle)
            e.authDone = true;
        if (!e.dataStarted) {
            e.dataStarted = true;
            e.dataDoneCycle = cycle_ + 2;
            const std::size_t index_msr =
                static_cast<std::size_t>(e.inst.imm) % kNumMsrs;
            // The register value is available before the privilege
            // check resolves (Spectre v3a race).
            if (e.fault == FaultKind::None || config_.vuln.msr) {
                e.result = msrs_[index_msr];
                if (e.fault != FaultKind::None)
                    ++stats_.transientForwards;
            } else {
                e.result = 0;
            }
        }
        if (e.dataStarted && !e.dataDone && cycle_ >= e.dataDoneCycle) {
            e.dataDone = true;
            e.hasResult = true;
            const bool safe = entrySafe(e, index);
            e.resultTaintOn = !safe;
            e.resultTaint = e.seq;
            e.forwardable =
                config_.defense.blockSpeculativeForwarding ? safe
                                                           : true;
        }
        if (e.hasResult && !e.forwardable &&
            config_.defense.blockSpeculativeForwarding &&
            entrySafe(e, index)) {
            e.forwardable = true;
            e.resultTaintOn = false;
        }
        if (e.dataDone && e.authDone)
            e.completed = true;
        break;

      case Opcode::FpRead:
        if (!e.authStarted) {
            e.authStarted = true;
            e.authDoneCycle = cycle_ + config_.permCheckLatency;
            if (fpu_.owner() != ctx_)
                e.fault = FaultKind::FpuNotOwned;
        }
        if (!e.authDone && cycle_ >= e.authDoneCycle)
            e.authDone = true;
        // The architectural FPU file is written at commit: wait for
        // older in-flight writes of this register to retire.
        for (std::size_t i = 0; i < index; ++i) {
            const RobEntry &older = rob_[i];
            if (older.inst.op == Opcode::FpMov &&
                older.inst.rd == e.inst.ra) {
                return;
            }
        }
        if (!e.dataStarted) {
            e.dataStarted = true;
            e.dataDoneCycle = cycle_ + 2;
            // LazyFP race: the stale register value is forwarded
            // before the ownership check resolves.
            if (e.fault == FaultKind::None || config_.vuln.lazyFp) {
                e.result = fpu_.read(e.inst.ra);
                if (e.fault != FaultKind::None)
                    ++stats_.transientForwards;
            } else {
                e.result = 0;
            }
        }
        if (e.dataStarted && !e.dataDone && cycle_ >= e.dataDoneCycle) {
            e.dataDone = true;
            e.hasResult = true;
            const bool safe = entrySafe(e, index);
            e.resultTaintOn = !safe;
            e.resultTaint = e.seq;
            e.forwardable =
                config_.defense.blockSpeculativeForwarding ? safe
                                                           : true;
        }
        if (e.hasResult && !e.forwardable &&
            config_.defense.blockSpeculativeForwarding &&
            entrySafe(e, index)) {
            e.forwardable = true;
            e.resultTaintOn = false;
        }
        if (e.dataDone && e.authDone)
            e.completed = true;
        break;

      case Opcode::FpMov:
        if (!e.authStarted) {
            e.authStarted = true;
            e.authDoneCycle = cycle_ + config_.permCheckLatency;
            if (fpu_.owner() != ctx_)
                e.fault = FaultKind::FpuNotOwned;
        }
        if (!e.authDone && cycle_ >= e.authDoneCycle)
            e.authDone = true;
        if (e.aReady && e.authDone)
            e.completed = true;
        break;
    }
}

void
Cpu::dispatch(const Instruction &inst, Addr pc)
{
    // Fill the entry directly in its ROB slot: RobEntry is large
    // enough that stack-construct + copy showed up in profiles.
    RobEntry &e = rob_.emplace_back();
    e.inst = inst;
    e.pc = pc;
    e.seq = ++seqCounter_;

    switch (inst.op) {
      case Opcode::Mov:
      case Opcode::AddImm:
      case Opcode::AndImm:
      case Opcode::ShlImm:
      case Opcode::ShrImm:
      case Opcode::MulImm:
      case Opcode::Load:
      case Opcode::JmpInd:
      case Opcode::Clflush:
      case Opcode::FpMov:
        e.needA = true;
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Branch:
        e.needA = true;
        e.needB = true;
        break;
      case Opcode::Store:
        e.needA = true; // address base
        e.needB = true; // data
        break;
      default:
        break;
    }

    if (e.needA) {
        if (rename_[inst.ra]) {
            e.hasProdA = true;
            e.prodA = rename_[inst.ra]->seq;
            e.prodAAbs = rename_[inst.ra]->abs;
        } else {
            e.valA = regs_[inst.ra];
            e.aReady = true;
        }
    }
    if (e.needB) {
        if (rename_[inst.rb]) {
            e.hasProdB = true;
            e.prodB = rename_[inst.rb]->seq;
            e.prodBAbs = rename_[inst.rb]->abs;
        } else {
            e.valB = regs_[inst.rb];
            e.bReady = true;
        }
    }

    // Next-fetch prediction.
    const HwDefenseConfig &def = config_.defense;
    switch (inst.op) {
      case Opcode::Branch:
        if (def.noBranchPrediction) {
            e.predNext = kNoPred;
        } else {
            e.predNext = bp_.predictTaken(pc)
                             ? static_cast<Addr>(inst.imm)
                             : pc + 1;
        }
        break;
      case Opcode::Jmp:
        e.predNext = static_cast<Addr>(inst.imm);
        break;
      case Opcode::JmpInd:
        if (def.noIndirectPrediction)
            e.predNext = kNoPred;
        else
            e.predNext = btb_.predict(pc).value_or(pc + 1);
        break;
      case Opcode::Call:
        e.predNext = static_cast<Addr>(inst.imm);
        rsb_.push(pc + 1);
        break;
      case Opcode::Ret:
        if (def.noIndirectPrediction) {
            e.predNext = kNoPred;
        } else {
            const Rsb::Pop pop = rsb_.pop();
            if (pop.valid) {
                e.predNext = pop.target;
            } else {
                // RSB underflow: fall back to the BTB, the
                // Spectre-RSB entry point.
                e.predNext = btb_.predict(pc).value_or(pc + 1);
            }
        }
        break;
      case Opcode::Halt:
        e.predNext = pc;
        fetchHalted_ = true;
        break;
      default:
        e.predNext = pc + 1;
        break;
    }

    if (writesIntReg(inst))
        rename_[inst.rd] = RenameRef{e.seq, robPops_ + rob_.size() - 1};
    if (isStore(inst.op))
        sb_.allocate(e.seq, inst.size);

    if (inst.op == Opcode::Lfence || inst.op == Opcode::Mfence)
        ++fencesInRob_;

    e.txnMember = txnActive_ || fetchInTxn_;
    if (inst.op == Opcode::XBegin)
        fetchInTxn_ = true;
    else if (inst.op == Opcode::XEnd)
        fetchInTxn_ = false;
}

void
Cpu::fetchStage()
{
    // A serialized-fetch stall is cleared before fetch ever runs
    // again: resolution happens in executeStage (which redirects
    // fetchPc_ and resets the stall for predNext == kNoPred
    // entries), and any squash resets it unconditionally.  So a
    // still-set stall means the entry is live and unresolved — no
    // per-cycle ROB lookup needed.
    if (fetchStallSeq_)
        return;

    for (unsigned w = 0; w < config_.fetchWidth; ++w) {
        if (rob_.size() >= config_.robSize || fetchHalted_)
            return;
        const Instruction inst = fetchPc_ < program_.size()
                                     ? program_.at(fetchPc_)
                                     : halt();
        dispatch(inst, fetchPc_);
        const RobEntry &e = rob_.back();
        if (e.predNext == kNoPred) {
            fetchStallSeq_ = e.seq;
            return;
        }
        fetchPc_ = e.predNext;
        if (inst.op == Opcode::Halt)
            return;
    }
}

void
Cpu::executeStage()
{
    // One scan finds the oldest in-flight fence; every younger
    // entry is fence-blocked.  The position cannot move during the
    // pass: fences leave the ROB only at commit (between cycles)
    // or when a squash drops *younger* entries.
    std::size_t first_fence = rob_.size();
    if (fencesInRob_ > 0) {
        for (std::size_t i = 0; i < rob_.size(); ++i) {
            const Opcode op = rob_[i].inst.op;
            if (op == Opcode::Lfence || op == Opcode::Mfence) {
                first_fence = i;
                break;
            }
        }
    }
    const bool nda = config_.defense.blockSpeculativeForwarding;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        RobEntry &e = rob_[i];
        // A completed entry's state machine is exhausted: every
        // progress path is guarded (!resolved / hasResult /
        // completed), so re-running it is a no-op — except the NDA
        // late forwardable flip, which still needs polling while a
        // completed-but-unforwardable result waits to become safe.
        if (e.completed && (!nda || e.forwardable))
            continue;
        progress(e, i, i > first_fence);
    }
}

void
Cpu::applyCommit(RobEntry &e)
{
    const Instruction &inst = e.inst;
    if (writesIntReg(inst))
        regs_[inst.rd] = e.result;

    switch (inst.op) {
      case Opcode::Store:
        if (const auto entry = sb_.drainOldest(e.seq)) {
            mem_.write(entry->paddr, entry->data, entry->size);
            cache_.access(entry->paddr, ctx_, true); // write-allocate
        }
        break;
      case Opcode::Clflush:
        if (e.paddrValid)
            cache_.flushLine(e.paddr);
        break;
      case Opcode::Branch:
        bp_.update(e.pc, e.actualTaken);
        break;
      case Opcode::JmpInd:
        btb_.update(e.pc, e.actualNext);
        break;
      case Opcode::Call:
        archCallStack_.push_back(e.pc + 1);
        break;
      case Opcode::Ret:
        if (!archCallStack_.empty())
            archCallStack_.pop_back();
        break;
      case Opcode::XBegin:
        txnActive_ = true;
        txnAbortTarget_ = static_cast<Addr>(inst.imm);
        break;
      case Opcode::XEnd:
        txnActive_ = false;
        break;
      case Opcode::FpMov:
        fpu_.write(inst.rd, e.valA);
        break;
      case Opcode::Load:
        if (e.needCommitInsert && e.paddrValid) {
            // InvisiSpec: install the line only now that the load is
            // architecturally committed.
            cache_.access(e.paddr, ctx_, true);
        }
        break;
      default:
        break;
    }

    if (rename_[inst.rd] && rename_[inst.rd]->seq == e.seq &&
        writesIntReg(inst)) {
        rename_[inst.rd].reset();
    }
}

void
Cpu::deliverException(const RobEntry &head)
{
    PendingException pe;
    pe.fault = head.fault;
    pe.pc = head.pc;
    pe.isTxnAbort = head.txnMember;
    pe.deliverCycle =
        cycle_ + (pe.isTxnAbort ? config_.txnAbortDetectLatency
                                : config_.exceptionDeliveryLatency);
    pendingException_ = pe;
}

void
Cpu::commitStage()
{
    if (pendingException_) {
        if (cycle_ < pendingException_->deliverCycle)
            return;
        const PendingException pe = *pendingException_;
        pendingException_.reset();
        ++stats_.exceptions;
        lastFault_ = pe.fault;
        lastFaultPc_ = pe.pc;
        if (pe.isTxnAbort) {
            // TSX abort: roll back the transaction, continue at the
            // abort handler.  No architectural exception.
            txnActive_ = false;
            squashFrom(0, txnAbortTarget_);
        } else if (faultHandler_) {
            squashFrom(0, *faultHandler_);
        } else {
            squashFrom(0, 0);
            runFaulted_ = true;
        }
        return;
    }

    for (unsigned w = 0; w < config_.commitWidth; ++w) {
        if (rob_.empty())
            return;
        RobEntry &head = rob_.front();
        if (!head.completed)
            return;
        if (head.fault != FaultKind::None) {
            deliverException(head);
            return;
        }
        applyCommit(head);
        ++stats_.committed;
        const bool was_halt = head.inst.op == Opcode::Halt;
        if (head.inst.op == Opcode::Lfence ||
            head.inst.op == Opcode::Mfence) {
            --fencesInRob_;
        }
        rob_.pop_front();
        ++robPops_;
        if (was_halt) {
            runHalted_ = true;
            return;
        }
    }
}

Cpu::RobMarks
Cpu::robMarks() const
{
    RobMarks m;
    m.seq = seqCounter_;
    m.pops = robPops_;
    m.squashed = stats_.squashed;
    m.exceptions = stats_.exceptions;
    m.pendingException = pendingException_.has_value();
    m.fetchStallSeq = fetchStallSeq_;
    m.fetchHalted = fetchHalted_;
    m.fetchPc = fetchPc_;
    return m;
}

bool
Cpu::recordEntryFlags()
{
    bool unchanged = true;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        RobEntry &e = rob_[i];
        const std::uint16_t flags = e.progressFlags();
        unchanged = unchanged && flags == e.flagsSeen;
        e.flagsSeen = flags;
    }
    return unchanged;
}

std::uint64_t
Cpu::nextTimeGate() const
{
    // A gate at or before cycle_ that has not fired belongs to an
    // entry blocked on state, not time: it cannot end the idle
    // stretch, so only future gates count.
    std::uint64_t gate = std::numeric_limits<std::uint64_t>::max();
    const auto arm = [&](bool armed, std::uint64_t at) {
        if (armed && at > cycle_)
            gate = std::min(gate, at);
    };
    if (pendingException_)
        arm(true, pendingException_->deliverCycle);
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry &e = rob_[i];
        arm(e.authStarted && !e.authDone, e.authDoneCycle);
        arm(e.dataStarted && !e.dataDone, e.dataDoneCycle);
        arm(e.executed && !e.hasResult, e.doneCycle);
        arm(e.resolveScheduled && !e.resolved, e.resolveCycle);
    }
    return gate;
}

void
Cpu::stepCycle()
{
    ++cycle_;
    ++stats_.cycles;
    commitStage();
    executeStage();
    fetchStage();
}

RunResult
Cpu::run(Addr start_pc, std::uint64_t max_cycles)
{
    rob_.clear();
    robPops_ = 0;
    fencesInRob_ = 0;
    rename_.fill(std::nullopt);
    sb_.squashAfter(0); // drop any stale pending entries
    fetchPc_ = start_pc;
    fetchHalted_ = false;
    fetchStallSeq_.reset();
    pendingException_.reset();
    runHalted_ = false;
    runFaulted_ = false;
    lastFault_ = FaultKind::None;
    lastFaultPc_ = 0;
    txnActive_ = false;
    fetchInTxn_ = false;

    const std::uint64_t start_cycle = cycle_;
    const std::uint64_t start_committed = stats_.committed;
    // Idle-cycle fast-forward.  A cycle is idle when it changed no
    // pipeline state, and that is detected exactly, with no hashing:
    //  - every change a cycle makes to a ROB entry sets one of its
    //    progressFlags(), which are never cleared during its life;
    //  - every other change (dispatch, commit, squash, raising or
    //    delivering an exception, fetch redirect, stall or halt)
    //    moves a field of RobMarks.
    // So a cycle that leaves the RobMarks and every entry's flags as
    // they were is idle.  Only five conditions read the clock — the
    // entries' authDoneCycle, dataDoneCycle, doneCycle and
    // resolveCycle, and the pending exception's deliverCycle — so
    // every cycle after an idle one is idle too until the earliest
    // armed gate: jump to just before it (or to the budget), counting
    // the skipped cycles as run.  RdTsc reads cycle_ only while it
    // executes, which is an active cycle.  A cycle that fetched or
    // committed is busy at the cost of two compares; only the others
    // record the RobMarks and walk the ROB.
    //
    // The RobMarks and entry flags at the end of the previous cycle,
    // if that cycle was recorded:
    RobMarks seen;
    bool recorded = false;
    while (!runHalted_ && !runFaulted_ &&
           cycle_ - start_cycle < max_cycles) {
        const std::uint64_t seq = seqCounter_, pops = robPops_;
        stepCycle();
        if (seqCounter_ != seq || robPops_ != pops) {
            recorded = false;
            continue;
        }
        const RobMarks marks = robMarks();
        const bool flags_unchanged = recordEntryFlags();
        if (recorded && flags_unchanged && marks == seen) {
            const std::uint64_t left =
                max_cycles - (cycle_ - start_cycle);
            const std::uint64_t skip =
                std::min(left, nextTimeGate() - 1 - cycle_);
            cycle_ += skip;
            stats_.cycles += skip;
        }
        seen = marks;
        recorded = true;
    }

    RunResult r;
    r.halted = runHalted_;
    r.faulted = runFaulted_;
    r.fault = lastFault_;
    r.faultPc = lastFaultPc_;
    r.cycles = cycle_ - start_cycle;
    r.committed = stats_.committed - start_committed;
    return r;
}

} // namespace specsec::uarch
