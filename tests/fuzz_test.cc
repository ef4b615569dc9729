/**
 * @file
 * Differential fuzzing: random programs run on the out-of-order
 * core must commit exactly the architectural state the sequential
 * reference model produces — under the default configuration AND
 * under every hardware defense configuration.  This is the property
 * that makes defenses acceptable at all: they may change *timing*
 * and *micro-architectural* state, never semantics.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "uarch/cpu.hh"
#include "uarch/reference.hh"

namespace
{

using namespace specsec::uarch;

constexpr Addr kDataBase = 0x10000;
constexpr Addr kDataSize = 0x1000;
constexpr std::size_t kMemBytes = 1 << 20;

/** Generate a random terminating program.
 *
 * Straight-line ALU/memory code with forward branches only (no
 * loops), all memory accesses confined to the mapped data region
 * via a base register, ending in halt.  RdTsc is excluded (its
 * value is timing, legitimately different between models).
 */
Program
randomProgram(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> len_dist(8, 40);
    std::uniform_int_distribution<int> op_dist(0, 99);
    std::uniform_int_distribution<int> reg_dist(1, 10);
    std::uniform_int_distribution<int> imm_dist(-64, 64);
    std::uniform_int_distribution<int> off_dist(0, 0x7f);
    const int body = len_dist(rng);

    Program p;
    // r15 = data base (preset by the harness).
    for (int k = 0; k < body; ++k) {
        const int roll = op_dist(rng);
        const RegId rd = static_cast<RegId>(reg_dist(rng));
        const RegId ra = static_cast<RegId>(reg_dist(rng));
        const RegId rb = static_cast<RegId>(reg_dist(rng));
        if (roll < 12) {
            p.emit(movImm(rd, imm_dist(rng)));
        } else if (roll < 40) {
            switch (roll % 7) {
              case 0: p.emit(add(rd, ra, rb)); break;
              case 1: p.emit(sub(rd, ra, rb)); break;
              case 2: p.emit(andr(rd, ra, rb)); break;
              case 3: p.emit(orr(rd, ra, rb)); break;
              case 4: p.emit(xorr(rd, ra, rb)); break;
              case 5: p.emit(addImm(rd, ra, imm_dist(rng))); break;
              default: p.emit(shrImm(rd, ra, roll % 8)); break;
            }
        } else if (roll < 58) {
            // Aligned in-region load: offset in [0, 0x7f8], 8B.
            p.emit(load64(rd, 15, (off_dist(rng) & ~7)));
        } else if (roll < 72) {
            p.emit(store64(15, (off_dist(rng) & ~7), rb));
        } else if (roll < 78) {
            p.emit(load8(rd, 15, off_dist(rng)));
        } else if (roll < 84) {
            p.emit(store8(15, off_dist(rng), rb));
        } else if (roll < 90) {
            // Forward branch over the next few instructions.
            const std::int64_t target = static_cast<std::int64_t>(
                p.size() + 2 + (roll % 3));
            const Cond cond =
                static_cast<Cond>(roll % 6);
            p.emit(branch(cond, ra, rb, target));
        } else if (roll < 94) {
            p.emit(clflush(15, off_dist(rng) & ~7));
        } else if (roll < 97) {
            p.emit(lfence());
        } else {
            p.emit(mfence());
        }
    }
    p.emit(halt());
    // Clamp any branch target beyond the end to the halt.
    for (std::size_t pc = 0; pc < p.size(); ++pc) {
        Instruction &inst = p.at(pc);
        if (inst.op == Opcode::Branch &&
            inst.imm >= static_cast<std::int64_t>(p.size())) {
            inst.imm = static_cast<std::int64_t>(p.size() - 1);
        }
    }
    return p;
}

/** Fill the data region with deterministic pseudo-random bytes. */
void
fillMemory(Memory &mem, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> byte(0, 255);
    for (Addr a = 0; a < kDataSize; ++a)
        mem.write8(kDataBase + a,
                   static_cast<std::uint8_t>(byte(rng)));
}

struct MachineState
{
    std::array<Word, kNumIntRegs> regs{};
    std::vector<std::uint8_t> data;
};

MachineState
runOnOoo(const Program &p, const CpuConfig &config, unsigned seed)
{
    Memory mem(kMemBytes);
    PageTable pt;
    pt.mapRange(0, kMemBytes, PageOwner::User, true, true);
    fillMemory(mem, seed);
    Cpu cpu(config, mem, pt);
    cpu.loadProgram(p);
    cpu.setReg(15, kDataBase);
    const RunResult r = cpu.run(0, 500000);
    EXPECT_TRUE(r.halted);
    MachineState s;
    for (RegId i = 0; i < kNumIntRegs; ++i)
        s.regs[i] = cpu.reg(i);
    for (Addr a = 0; a < kDataSize; ++a)
        s.data.push_back(mem.read8(kDataBase + a));
    return s;
}

MachineState
runOnReference(const Program &p, unsigned seed)
{
    Memory mem(kMemBytes);
    PageTable pt;
    pt.mapRange(0, kMemBytes, PageOwner::User, true, true);
    fillMemory(mem, seed);
    ReferenceCpu ref(mem, pt);
    ref.loadProgram(p);
    ref.setReg(15, kDataBase);
    const ReferenceResult r = ref.run(0);
    EXPECT_TRUE(r.halted);
    MachineState s;
    for (RegId i = 0; i < kNumIntRegs; ++i)
        s.regs[i] = ref.reg(i);
    for (Addr a = 0; a < kDataSize; ++a)
        s.data.push_back(mem.read8(kDataBase + a));
    return s;
}

void
expectSameState(const MachineState &ooo, const MachineState &ref,
                unsigned seed, const char *config_name)
{
    for (RegId i = 0; i < kNumIntRegs; ++i) {
        ASSERT_EQ(ooo.regs[i], ref.regs[i])
            << "seed " << seed << " config " << config_name
            << " register r" << int(i);
    }
    ASSERT_EQ(ooo.data, ref.data)
        << "seed " << seed << " config " << config_name
        << " memory differs";
}

class DifferentialFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DifferentialFuzz, BaselineMatchesReference)
{
    std::mt19937 rng(GetParam());
    const Program p = randomProgram(rng);
    const MachineState ref = runOnReference(p, GetParam());
    const MachineState ooo = runOnOoo(p, CpuConfig{}, GetParam());
    expectSameState(ooo, ref, GetParam(), "baseline");
}

TEST_P(DifferentialFuzz, EveryDefensePreservesSemantics)
{
    std::mt19937 rng(GetParam() + 1000);
    const Program p = randomProgram(rng);
    const MachineState ref = runOnReference(p, GetParam());

    struct NamedConfig
    {
        const char *name;
        void (*set)(CpuConfig &);
    };
    const NamedConfig configs[] = {
        {"fenceSpeculativeLoads",
         [](CpuConfig &c) {
             c.defense.fenceSpeculativeLoads = true;
         }},
        {"blockSpeculativeForwarding",
         [](CpuConfig &c) {
             c.defense.blockSpeculativeForwarding = true;
         }},
        {"blockTaintedTransmit",
         [](CpuConfig &c) {
             c.defense.blockTaintedTransmit = true;
         }},
        {"invisibleSpeculation",
         [](CpuConfig &c) { c.defense.invisibleSpeculation = true; }},
        {"cleanupSpec",
         [](CpuConfig &c) { c.defense.cleanupSpec = true; }},
        {"conditionalSpeculation",
         [](CpuConfig &c) {
             c.defense.conditionalSpeculation = true;
         }},
        {"noBranchPrediction",
         [](CpuConfig &c) { c.defense.noBranchPrediction = true; }},
        {"safeStoreBypass",
         [](CpuConfig &c) { c.defense.safeStoreBypass = true; }},
        {"noStoreBypassSilicon",
         [](CpuConfig &c) { c.vuln.storeBypass = false; }},
        {"allHardened",
         [](CpuConfig &c) {
             c.defense.fenceSpeculativeLoads = true;
             c.defense.blockSpeculativeForwarding = true;
             c.defense.invisibleSpeculation = true;
             c.defense.safeStoreBypass = true;
             c.vuln = VulnConfig{false, false, false, false,
                                 false, false, false};
         }},
    };
    for (const NamedConfig &nc : configs) {
        CpuConfig cfg;
        nc.set(cfg);
        const MachineState ooo = runOnOoo(p, cfg, GetParam());
        expectSameState(ooo, ref, GetParam(), nc.name);
    }
}

TEST_P(DifferentialFuzz, TimingParametersDoNotChangeSemantics)
{
    std::mt19937 rng(GetParam() + 2000);
    const Program p = randomProgram(rng);
    const MachineState ref = runOnReference(p, GetParam());
    CpuConfig cfg;
    cfg.permCheckLatency = 1 + GetParam() % 60;
    cfg.exceptionDeliveryLatency = GetParam() % 30;
    cfg.cache.missLatency = 20 + (GetParam() % 400);
    cfg.fetchWidth = 1 + GetParam() % 4;
    cfg.robSize = 8 + GetParam() % 56;
    const MachineState ooo = runOnOoo(p, cfg, GetParam());
    expectSameState(ooo, ref, GetParam(), "timing-sweep");
}

TEST_P(DifferentialFuzz, TinyRobsMatchReference)
{
    // With one to four ROB entries, every dispatch reuses a slot
    // that a commit or a squash has just vacated, so an entry built
    // over its predecessor must start exactly as a fresh one.
    std::mt19937 rng(GetParam() + 3000);
    const Program p = randomProgram(rng);
    const MachineState ref = runOnReference(p, GetParam());
    for (std::size_t rob = 1; rob <= 4; ++rob) {
        CpuConfig cfg;
        cfg.robSize = rob;
        const MachineState ooo = runOnOoo(p, cfg, GetParam());
        const std::string name = "rob " + std::to_string(rob);
        expectSameState(ooo, ref, GetParam(), name.c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(0u, 40u));

} // namespace
