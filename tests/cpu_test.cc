/**
 * @file
 * Tests for the out-of-order core's *architectural* correctness:
 * whatever speculation happens under the hood, committed state must
 * match sequential semantics — plus the pipeline behaviours the
 * attack model depends on (mispredict recovery, precise exceptions,
 * store forwarding, memory-order violation repair, fences, squash
 * leaving cache state behind).
 */

#include <gtest/gtest.h>

#include "uarch/cpu.hh"

namespace
{

using namespace specsec::uarch;

struct CpuFixture : ::testing::Test
{
    CpuFixture() : mem(1 << 22)
    {
        pt.mapRange(0, 1 << 22, PageOwner::User, true, true);
    }

    Cpu
    makeCpu(const CpuConfig &config = {})
    {
        return Cpu(config, mem, pt);
    }

    Memory mem;
    PageTable pt;
};

TEST_F(CpuFixture, AluChain)
{
    Program p;
    p.emit(movImm(1, 6));
    p.emit(movImm(2, 7));
    p.emit(add(3, 1, 2));
    p.emit(mulImm(4, 3, 3));
    p.emit(sub(5, 4, 1));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(3), 13u);
    EXPECT_EQ(cpu.reg(4), 39u);
    EXPECT_EQ(cpu.reg(5), 33u);
}

TEST_F(CpuFixture, ShiftAndLogic)
{
    Program p;
    p.emit(movImm(1, 0xf0));
    p.emit(shlImm(2, 1, 4));
    p.emit(shrImm(3, 2, 8));
    p.emit(andImm(4, 1, 0x3c));
    p.emit(movImm(5, 0x0f));
    p.emit(orr(6, 1, 5));
    p.emit(xorr(7, 1, 1));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(2), 0xf00u);
    EXPECT_EQ(cpu.reg(3), 0xfu);
    EXPECT_EQ(cpu.reg(4), 0x30u);
    EXPECT_EQ(cpu.reg(6), 0xffu);
    EXPECT_EQ(cpu.reg(7), 0u);
}

TEST_F(CpuFixture, LoadStoreRoundTrip)
{
    Program p;
    p.emit(movImm(1, 0x1000));
    p.emit(movImm(2, 0x1234567890abcdefll));
    p.emit(store64(1, 0, 2));
    p.emit(load64(3, 1, 0));
    p.emit(store8(1, 100, 2));
    p.emit(load8(4, 1, 100));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(3), 0x1234567890abcdefull);
    EXPECT_EQ(cpu.reg(4), 0xefu);
    EXPECT_EQ(mem.read64(0x1000), 0x1234567890abcdefull);
}

TEST_F(CpuFixture, StoreToLoadForwardingBeforeCommit)
{
    // The load must see the older in-flight store's data.
    Program p;
    p.emit(movImm(1, 0x2000));
    p.emit(movImm(2, 77));
    p.emit(store64(1, 0, 2));
    p.emit(load64(3, 1, 0));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(3), 77u);
}

TEST_F(CpuFixture, BranchTakenAndNotTaken)
{
    Program p;
    p.emit(movImm(1, 5));
    p.emit(movImm(2, 9));
    auto skip = p.newLabel();
    p.emitBranch(Cond::Ltu, 1, 2, skip); // 5 < 9: taken
    p.emit(movImm(3, 111));              // skipped
    p.bind(skip);
    auto end = p.newLabel();
    p.emitBranch(Cond::Geu, 1, 2, end);  // 5 >= 9: not taken
    p.emit(movImm(4, 222));              // executed
    p.bind(end);
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(3), 0u);
    EXPECT_EQ(cpu.reg(4), 222u);
}

TEST_F(CpuFixture, SignedConditions)
{
    Program p;
    p.emit(movImm(1, -3));
    p.emit(movImm(2, 2));
    auto t1 = p.newLabel();
    p.emitBranch(Cond::Lt, 1, 2, t1); // -3 < 2 signed: taken
    p.emit(halt());
    p.bind(t1);
    p.emit(movImm(3, 1));
    auto t2 = p.newLabel();
    p.emitBranch(Cond::Ltu, 1, 2, t2); // huge unsigned: not taken
    p.emit(movImm(4, 1));
    p.bind(t2);
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(3), 1u);
    EXPECT_EQ(cpu.reg(4), 1u);
}

TEST_F(CpuFixture, LoopExecutes)
{
    // r1 counts 0..4, r2 accumulates.
    Program p;
    p.emit(movImm(1, 0));
    p.emit(movImm(2, 0));
    p.emit(movImm(3, 5));
    const std::size_t loop = p.size();
    p.emit(add(2, 2, 1));     // body
    p.emit(addImm(1, 1, 1));
    p.emit(branch(Cond::Ltu, 1, 3, static_cast<std::int64_t>(loop)));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(2), 10u); // 0+1+2+3+4
}

TEST_F(CpuFixture, MispredictRecoveryDiscardsWrongPath)
{
    // Mistrain toward not-taken, then take the branch: wrong-path
    // register writes must not commit.
    Program p;
    p.emit(movImm(5, 1));
    auto out = p.newLabel();
    p.emitBranch(Cond::Eq, 5, 5, out); // always taken
    p.emit(movImm(6, 99));             // wrong path
    p.bind(out);
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    // Mistrain the branch toward not-taken first.
    cpu.branchPredictor().update(1, false);
    cpu.branchPredictor().update(1, false);
    cpu.setReg(6, 0);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(6), 0u);
    EXPECT_GE(cpu.stats().branchMispredicts, 1u);
    EXPECT_GE(cpu.stats().squashed, 1u);
}

TEST_F(CpuFixture, SquashLeavesCacheStateBehind)
{
    // The paper's central micro-architectural fact: squashed loads
    // leave their cache fills behind.
    Program p;
    p.emit(movImm(5, 1));
    p.emit(movImm(7, 0x3000));
    auto out = p.newLabel();
    p.emitBranch(Cond::Eq, 5, 5, out); // always taken
    p.emit(load64(6, 7, 0));           // transient load
    p.bind(out);
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.branchPredictor().update(2, false);
    cpu.branchPredictor().update(2, false);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(6), 0u);                // arch state clean
    EXPECT_TRUE(cpu.cache().contains(0x3000)); // uarch state leaked
}

TEST_F(CpuFixture, CallAndReturn)
{
    Program p;
    auto fn = p.newLabel();
    p.emitCall(fn);       // 0
    p.emit(movImm(2, 2)); // 1: after return
    p.emit(halt());       // 2
    p.bind(fn);
    p.emit(movImm(1, 1)); // 3: in function
    p.emit(ret());        // 4
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(1), 1u);
    EXPECT_EQ(cpu.reg(2), 2u);
}

TEST_F(CpuFixture, NestedCalls)
{
    Program p;
    auto f1 = p.newLabel();
    auto f2 = p.newLabel();
    p.emitCall(f1);        // 0
    p.emit(halt());        // 1
    p.bind(f1);
    p.emitCall(f2);        // 2
    p.emit(addImm(1, 1, 1)); // 3
    p.emit(ret());         // 4
    p.bind(f2);
    p.emit(addImm(1, 1, 10)); // 5
    p.emit(ret());         // 6
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setReg(1, 0);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(1), 11u);
}

TEST_F(CpuFixture, IndirectJump)
{
    Program p;
    p.emit(movImm(1, 3)); // 0
    p.emit(jmpInd(1));    // 1
    p.emit(movImm(2, 9)); // 2: skipped
    p.emit(halt());       // 3
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(2), 0u);
}

TEST_F(CpuFixture, RdTscMonotonic)
{
    Program p;
    p.emit(rdtsc(1));
    p.emit(rdtsc(2));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_GE(cpu.reg(2), cpu.reg(1));
}

TEST_F(CpuFixture, PreciseExceptionOnKernelLoad)
{
    pt.mapRange(0x100000, kPageSize, PageOwner::Kernel, false, true);
    Program p;
    p.emit(movImm(1, 0x100000));
    p.emit(load8(2, 1, 0));
    p.emit(movImm(3, 5)); // younger: must not commit
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::User);
    cpu.setReg(3, 0);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault, FaultKind::Privilege);
    EXPECT_EQ(r.faultPc, 1u);
    EXPECT_EQ(cpu.reg(2), 0u);
    EXPECT_EQ(cpu.reg(3), 0u); // squashed, not committed
}

TEST_F(CpuFixture, FaultHandlerRedirects)
{
    pt.mapRange(0x100000, kPageSize, PageOwner::Kernel, false, true);
    Program p;
    p.emit(movImm(1, 0x100000));
    p.emit(load8(2, 1, 0)); // faults
    p.emit(halt());         // 2: skipped
    p.emit(movImm(4, 7));   // 3: handler
    p.emit(halt());         // 4
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::User);
    cpu.setFaultHandler(3);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.fault, FaultKind::Privilege); // recorded
    EXPECT_EQ(cpu.reg(4), 7u);                // handler ran
}

TEST_F(CpuFixture, KernelCanReadKernelPages)
{
    pt.mapRange(0x100000, kPageSize, PageOwner::Kernel, false, true);
    mem.write8(0x100000, 0x5a);
    Program p;
    p.emit(movImm(1, 0x100000));
    p.emit(load8(2, 1, 0));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::Kernel);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(2), 0x5au);
}

TEST_F(CpuFixture, MemoryOrderViolationRepaired)
{
    // A load that bypasses an older store to the same address must
    // be squashed and re-executed with the right value.
    mem.write64(0x4000, 0xdead);      // stale
    mem.write64(0x5000, 0x4000);      // pointer to the slot
    Program p;
    p.emit(movImm(1, 0x5000));
    p.emit(load64(2, 1, 0));  // slow address (flushed)
    p.emit(movImm(3, 0xfeed));
    p.emit(store64(2, 0, 3)); // store through pointer
    p.emit(movImm(4, 0x4000));
    p.emit(load64(5, 4, 0));  // bypasses, then repairs
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.flushLineVirt(0x5000);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(5), 0xfeedu); // architecturally correct
    EXPECT_GE(cpu.stats().memOrderViolations, 1u);
}

TEST_F(CpuFixture, PartialStoreOverlapStallsLoad)
{
    // A byte store followed by a word load covering it cannot
    // forward; the load must wait for the drain and read the
    // merged value (regression test for a fuzzer-found bug).
    mem.write64(0x4100, 0x1111111111111111ull);
    Program p;
    p.emit(movImm(1, 0x4100));
    p.emit(movImm(2, 0xff));
    p.emit(store8(1, 0, 2));
    p.emit(load64(3, 1, 0));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(3), 0x11111111111111ffull);
}

TEST_F(CpuFixture, MisalignedForwardStallsLoad)
{
    // Word store, byte load into its middle: no exact-address
    // forward; the load waits for the drain.
    Program p;
    p.emit(movImm(1, 0x4200));
    p.emit(movImm(2, 0x0011223344556677ll));
    p.emit(store64(1, 0, 2));
    p.emit(load8(3, 1, 3));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(3), 0x44u);
}

TEST_F(CpuFixture, LfenceStillComputesCorrectly)
{
    Program p;
    p.emit(movImm(1, 3));
    p.emit(lfence());
    p.emit(addImm(2, 1, 4));
    p.emit(mfence());
    p.emit(addImm(3, 2, 5));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(3), 12u);
}

TEST_F(CpuFixture, LfenceDelaysYoungerLoads)
{
    Program with_fence, without_fence;
    for (Program *p : {&with_fence, &without_fence}) {
        p->emit(movImm(1, 0x6000));
        p->emit(load64(2, 1, 0));
        if (p == &with_fence)
            p->emit(lfence());
        p->emit(load64(3, 1, 8));
        p->emit(halt());
    }
    Cpu cpu1 = makeCpu();
    cpu1.loadProgram(without_fence);
    const RunResult fast = cpu1.run(0);
    Cpu cpu2 = makeCpu();
    cpu2.loadProgram(with_fence);
    const RunResult slow = cpu2.run(0);
    EXPECT_GT(slow.cycles, fast.cycles);
}

TEST_F(CpuFixture, ClflushEvictsLine)
{
    Program p;
    p.emit(movImm(1, 0x7000));
    p.emit(load64(2, 1, 0)); // warm
    p.emit(clflush(1, 0));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_FALSE(cpu.cache().contains(0x7000));
}

TEST_F(CpuFixture, RdMsrPrivileged)
{
    Program p;
    p.emit(rdmsr(1, 5));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setMsr(5, 0xabc);
    cpu.setPrivilege(Privilege::Kernel);
    EXPECT_TRUE(cpu.run(0).halted);
    EXPECT_EQ(cpu.reg(1), 0xabcu);

    cpu.setPrivilege(Privilege::User);
    cpu.setReg(1, 0);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault, FaultKind::MsrPrivilege);
    EXPECT_EQ(cpu.reg(1), 0u);
}

TEST_F(CpuFixture, FpMovAndRead)
{
    Program p;
    p.emit(movImm(1, 1234));
    p.emit(fpMov(2, 1));
    p.emit(fpRead(3, 2));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(3), 1234u);
    EXPECT_EQ(cpu.fpu().read(2), 1234u);
}

TEST_F(CpuFixture, TransactionCommitsWithoutAbort)
{
    Program p;
    auto abort_lbl = p.newLabel();
    p.emitXBegin(abort_lbl);
    p.emit(movImm(1, 5));
    p.emit(xend());
    p.emit(halt());
    p.bind(abort_lbl);
    p.emit(movImm(2, 9));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setReg(2, 0);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(1), 5u);
    EXPECT_EQ(cpu.reg(2), 0u); // abort path not taken
}

TEST_F(CpuFixture, TransactionAbortsOnFaultingLoad)
{
    Program p;
    auto abort_lbl = p.newLabel();
    p.emitXBegin(abort_lbl);
    p.emit(movImm(1, 0x700000)); // unmapped in this fixture? map all
    p.emit(load64(2, 1, 0));
    p.emit(xend());
    p.emit(halt());
    p.bind(abort_lbl);
    p.emit(movImm(3, 1)); // abort handler
    p.emit(halt());
    // Use an unmapped address: remap fixture covers 4MB, use beyond.
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setReg(3, 0);
    // 0x700000 is beyond the 4MB mapping -> NotMapped fault in txn.
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_FALSE(r.faulted); // abort, not an exception
    EXPECT_EQ(cpu.reg(3), 1u);
}

TEST_F(CpuFixture, RunRespectsCycleBudget)
{
    Program p;
    p.emit(jmp(0)); // infinite loop
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0, 500);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.cycles, 500u);
    EXPECT_EQ(cpu.stats().cycles, 500u);
}

TEST_F(CpuFixture, RenameHandlesRegisterReuse)
{
    Program p;
    p.emit(movImm(1, 1));
    p.emit(addImm(1, 1, 1)); // r1 = 2
    p.emit(addImm(1, 1, 1)); // r1 = 3
    p.emit(add(2, 1, 1));    // r2 = 6
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_EQ(cpu.reg(1), 3u);
    EXPECT_EQ(cpu.reg(2), 6u);
}

TEST_F(CpuFixture, StatsAccumulate)
{
    Program p;
    p.emit(movImm(1, 1));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.run(0);
    EXPECT_GE(cpu.stats().committed, 2u);
    EXPECT_GT(cpu.stats().cycles, 0u);
    cpu.resetStats();
    EXPECT_EQ(cpu.stats().committed, 0u);
}

TEST_F(CpuFixture, ContextSwitchAppliesDefenses)
{
    CpuConfig cfg;
    cfg.defense.flushPredictorOnContextSwitch = true;
    cfg.defense.clearBuffersOnContextSwitch = true;
    Cpu cpu = makeCpu(cfg);
    cpu.btb().update(5, 9);
    cpu.lineFillBuffer().recordFill(0x100, 7);
    cpu.contextSwitch(1);
    EXPECT_FALSE(cpu.btb().predict(5).has_value());
    EXPECT_FALSE(cpu.lineFillBuffer().residue().has_value());
    EXPECT_EQ(cpu.context(), 1);
}

TEST_F(CpuFixture, TimedProbeDoesNotAllocate)
{
    Cpu cpu = makeCpu();
    EXPECT_EQ(cpu.timedProbe(0x8000),
              cpu.config().cache.missLatency);
    EXPECT_FALSE(cpu.cache().contains(0x8000));
    EXPECT_EQ(cpu.timedAccess(0x8000),
              cpu.config().cache.missLatency);
    EXPECT_TRUE(cpu.cache().contains(0x8000));
    EXPECT_EQ(cpu.timedProbe(0x8000), cpu.config().cache.hitLatency);
}

TEST_F(CpuFixture, NoBranchPredictionSerializesFetch)
{
    CpuConfig cfg;
    cfg.defense.noBranchPrediction = true;
    Program p;
    p.emit(movImm(1, 1));
    auto out = p.newLabel();
    p.emitBranch(Cond::Eq, 1, 1, out);
    p.emit(movImm(2, 9)); // never fetched speculatively
    p.bind(out);
    p.emit(halt());
    Cpu cpu = makeCpu(cfg);
    cpu.loadProgram(p);
    cpu.setReg(2, 0);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(2), 0u);
    EXPECT_EQ(cpu.stats().branchMispredicts, 0u);
}

// -------------------------------------------------------------------
// Exact cycle counts across the long waits Cpu::run fast-forwards
// (miss latency, permission check, branch resolution, exception
// delivery, TSX abort detection).  Every expected value was recorded
// from the plain cycle-by-cycle loop; skipping idle cycles must
// reproduce them.
// -------------------------------------------------------------------

void
expectStats(const CpuStats &got, const CpuStats &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.committed, want.committed);
    EXPECT_EQ(got.squashed, want.squashed);
    EXPECT_EQ(got.branchMispredicts, want.branchMispredicts);
    EXPECT_EQ(got.exceptions, want.exceptions);
    EXPECT_EQ(got.memOrderViolations, want.memOrderViolations);
    EXPECT_EQ(got.speculativeFills, want.speculativeFills);
    EXPECT_EQ(got.transientForwards, want.transientForwards);
}

/** A dependent chain behind a load that misses (cold line). */
Program
chainBehindMiss()
{
    Program p;
    p.emit(movImm(1, 0x5000));
    p.emit(load64(2, 1, 0));  // 200-cycle miss
    p.emit(addImm(3, 2, 1));
    p.emit(addImm(4, 3, 1));
    p.emit(mulImm(5, 4, 3));
    p.emit(halt());
    return p;
}

TEST_F(CpuFixture, CycleCountDependentChainBehindMiss)
{
    mem.write64(0x5000, 7);
    Cpu cpu = makeCpu();
    cpu.loadProgram(chainBehindMiss());
    cpu.flushLineVirt(0x5000);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.cycles, 207u);
    EXPECT_EQ(r.committed, 6u);
    EXPECT_EQ(cpu.reg(5), 27u);
    expectStats(cpu.stats(), {.cycles = 207, .committed = 6});

    // A second run hits the now-cached line.
    const RunResult warm = cpu.run(0);
    EXPECT_EQ(warm.cycles, 35u);
    expectStats(cpu.stats(), {.cycles = 242, .committed = 12});
}

TEST_F(CpuFixture, CycleBudgetEndingInsideMissWait)
{
    Cpu cpu = makeCpu();
    cpu.loadProgram(chainBehindMiss());
    const RunResult r = cpu.run(0, 100);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.cycles, 100u);
    EXPECT_EQ(r.committed, 1u);
    expectStats(cpu.stats(), {.cycles = 100, .committed = 1});
}

TEST_F(CpuFixture, RunThatCannotFinishEndsAtItsBudget)
{
    CpuConfig cfg;
    cfg.fetchWidth = 0; // nothing ever enters the ROB
    Cpu cpu = makeCpu(cfg);
    cpu.loadProgram(chainBehindMiss());
    const RunResult r = cpu.run(0, 12345);
    EXPECT_FALSE(r.halted);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.cycles, 12345u);
    EXPECT_EQ(r.committed, 0u);
    expectStats(cpu.stats(), {.cycles = 12345});
    // Budgets accumulate across runs on the same core.
    EXPECT_EQ(cpu.run(0, 7).cycles, 7u);
    EXPECT_EQ(cpu.stats().cycles, 12352u);
}

TEST_F(CpuFixture, RdTscAcrossMiss)
{
    Program p;
    p.emit(rdtsc(1));
    p.emit(movImm(6, 0x6000));
    p.emit(load64(2, 6, 0)); // miss
    p.emit(lfence());        // younger work waits for the load
    p.emit(rdtsc(3));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(1), 3u);
    EXPECT_EQ(cpu.reg(3), 205u);
    EXPECT_EQ(r.cycles, 206u);
    expectStats(cpu.stats(), {.cycles = 206, .committed = 6});
}

TEST_F(CpuFixture, CycleCountExceptionDeliveryWindow)
{
    pt.mapRange(0x100000, kPageSize, PageOwner::Kernel, false, true);
    Program p;
    p.emit(movImm(1, 0x100000));
    p.emit(load8(2, 1, 0)); // faults after the permission check
    p.emit(addImm(3, 2, 1)); // transient dependent
    p.emit(halt());
    p.emit(movImm(4, 7));   // 4: handler
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::User);
    cpu.setFaultHandler(4);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.fault, FaultKind::Privilege);
    EXPECT_EQ(r.cycles, 223u);
    EXPECT_EQ(r.committed, 3u);
    expectStats(cpu.stats(), {.cycles = 223,
                              .committed = 3,
                              .squashed = 3,
                              .exceptions = 1,
                              .speculativeFills = 1,
                              .transientForwards = 1});

    // Without a handler the run ends on the delivered fault.
    cpu.setFaultHandler(std::nullopt);
    cpu.resetStats();
    const RunResult unhandled = cpu.run(0);
    EXPECT_TRUE(unhandled.faulted);
    EXPECT_EQ(unhandled.cycles, 50u);
    expectStats(cpu.stats(), {.cycles = 50,
                              .committed = 1,
                              .squashed = 3,
                              .exceptions = 1,
                              .transientForwards = 1});
}

TEST_F(CpuFixture, CycleCountBranchResolveWindow)
{
    CpuConfig cfg;
    cfg.branchResolveLatency = 40; // a long, otherwise idle window
    Program p;
    p.emit(movImm(5, 1));
    auto out = p.newLabel();
    p.emitBranch(Cond::Eq, 5, 5, out); // taken; predicted not-taken
    p.emit(movImm(6, 99));             // wrong path
    p.bind(out);
    p.emit(halt());
    Cpu cpu = makeCpu(cfg);
    cpu.loadProgram(p);
    cpu.branchPredictor().update(1, false);
    cpu.branchPredictor().update(1, false);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(cpu.reg(6), 0u);
    EXPECT_EQ(r.cycles, 45u);
    EXPECT_EQ(r.committed, 3u);
    expectStats(cpu.stats(), {.cycles = 45,
                              .committed = 3,
                              .squashed = 2,
                              .branchMispredicts = 1});
}

TEST_F(CpuFixture, CycleCountTsxAbortWindow)
{
    Program p;
    auto abort_lbl = p.newLabel();
    p.emitXBegin(abort_lbl);
    p.emit(movImm(1, 0x700000)); // beyond the 4MB mapping
    p.emit(load64(2, 1, 0));     // NotMapped inside the transaction
    p.emit(addImm(5, 2, 1));
    p.emit(xend());
    p.emit(halt());
    p.bind(abort_lbl);
    p.emit(movImm(3, 1));
    p.emit(halt());
    Cpu cpu = makeCpu();
    cpu.loadProgram(p);
    const RunResult r = cpu.run(0);
    EXPECT_TRUE(r.halted);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(cpu.reg(3), 1u);
    EXPECT_EQ(r.cycles, 67u);
    EXPECT_EQ(r.committed, 4u);
    expectStats(cpu.stats(), {.cycles = 67,
                              .committed = 4,
                              .squashed = 4,
                              .exceptions = 1,
                              .transientForwards = 1});
}

} // namespace
