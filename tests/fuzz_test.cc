/**
 * @file
 * Differential fuzzing: random programs run on the out-of-order
 * core must commit exactly the architectural state the sequential
 * reference model produces — under the default configuration AND
 * under every hardware defense configuration.  This is the property
 * that makes defenses acceptable at all: they may change *timing*
 * and *micro-architectural* state, never semantics.
 *
 * The same programs also pin the core's timing: TimingPin folds
 * every run's cycle-exact counters into one hash per configuration,
 * so a change to how the pipeline schedules work that moves any
 * program's cycles, squashes or fills fails there.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

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
 * via a base register (some of them offset by a masked data
 * register), ending in halt.  RdTsc is excluded (its
 * value is timing, legitimately different between models).
 */
/**
 * A draw from [lo, hi].  std::mt19937's output is specified, but the
 * standard distributions are not, so this keeps every generated
 * program -- and the timing hashes pinned below -- the same under
 * every standard library.
 */
int
draw(std::mt19937 &rng, int lo, int hi)
{
    return lo + static_cast<int>(rng() % static_cast<std::uint32_t>(
                                             hi - lo + 1));
}

Program
randomProgram(std::mt19937 &rng)
{
    const int body = draw(rng, 8, 40);
    const auto reg = [&rng] {
        return static_cast<RegId>(draw(rng, 1, 10));
    };
    const auto imm = [&rng] { return draw(rng, -64, 64); };
    const auto off = [&rng] { return draw(rng, 0, 0x7f); };

    Program p;
    // r15 = data base (preset by the harness).
    for (int k = 0; k < body; ++k) {
        const int roll = draw(rng, 0, 99);
        const RegId rd = reg();
        const RegId ra = reg();
        const RegId rb = reg();
        if (roll < 12) {
            p.emit(movImm(rd, imm()));
        } else if (roll < 40) {
            switch (roll % 7) {
              case 0: p.emit(add(rd, ra, rb)); break;
              case 1: p.emit(sub(rd, ra, rb)); break;
              case 2: p.emit(andr(rd, ra, rb)); break;
              case 3: p.emit(orr(rd, ra, rb)); break;
              case 4: p.emit(xorr(rd, ra, rb)); break;
              case 5: p.emit(addImm(rd, ra, imm())); break;
              default: p.emit(shrImm(rd, ra, roll % 8)); break;
            }
        } else if (roll < 52) {
            // Aligned in-region load: offset in [0, 0x7f8], 8B.
            p.emit(load64(rd, 15, (off() & ~7)));
        } else if (roll < 58) {
            // A load whose address is data: it waits for its
            // producer, and STT and store disambiguation see it.
            p.emit(andImm(11, ra, 0x7f8));
            p.emit(add(11, 11, 15));
            p.emit(load64(rd, 11, 0));
        } else if (roll < 68) {
            p.emit(store64(15, (off() & ~7), rb));
        } else if (roll < 72) {
            // A store whose address is data: younger loads may
            // bypass it and later be squashed.
            p.emit(andImm(12, ra, 0x7f8));
            p.emit(add(12, 12, 15));
            p.emit(store64(12, 0, rb));
        } else if (roll < 78) {
            p.emit(load8(rd, 15, off()));
        } else if (roll < 84) {
            p.emit(store8(15, off(), rb));
        } else if (roll < 90) {
            // Forward branch over the next few instructions.
            const std::int64_t target = static_cast<std::int64_t>(
                p.size() + 2 + (roll % 3));
            const Cond cond =
                static_cast<Cond>(roll % 6);
            p.emit(branch(cond, ra, rb, target));
        } else if (roll < 94) {
            p.emit(clflush(15, off() & ~7));
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
    for (Addr a = 0; a < kDataSize; ++a)
        mem.write8(kDataBase + a,
                   static_cast<std::uint8_t>(draw(rng, 0, 255)));
}

struct MachineState
{
    std::array<Word, kNumIntRegs> regs{};
    std::vector<std::uint8_t> data;
};

/** Run @p p on the out-of-order core; its counters go to
 *  @p stats_out when given. */
MachineState
runOnOoo(const Program &p, const CpuConfig &config, unsigned seed,
         CpuStats *stats_out = nullptr)
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
    if (stats_out)
        *stats_out = cpu.stats();
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

struct NamedConfig
{
    const char *name;
    void (*set)(CpuConfig &);
};

/** Every hardware defense, the fixed silicon and all of it at once. */
const NamedConfig kDefenseConfigs[] = {
    {"fenceSpeculativeLoads",
     [](CpuConfig &c) { c.defense.fenceSpeculativeLoads = true; }},
    {"blockSpeculativeForwarding",
     [](CpuConfig &c) { c.defense.blockSpeculativeForwarding = true; }},
    {"blockTaintedTransmit",
     [](CpuConfig &c) { c.defense.blockTaintedTransmit = true; }},
    {"invisibleSpeculation",
     [](CpuConfig &c) { c.defense.invisibleSpeculation = true; }},
    {"cleanupSpec", [](CpuConfig &c) { c.defense.cleanupSpec = true; }},
    {"conditionalSpeculation",
     [](CpuConfig &c) { c.defense.conditionalSpeculation = true; }},
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

    for (const NamedConfig &nc : kDefenseConfigs) {
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

/** FNV-1a over the bytes of 64-bit words, low byte first. */
struct Fnv1a
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (word >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

TEST(TimingPin, EveryConfigKeepsItsCycleExactCounters)
{
    // Each configuration runs the same 400 generated programs and
    // folds every run's counters into one hash.  The hashes were
    // recorded on the per-cycle polling pipeline, so they pin that
    // any faster way of scheduling the same work (skipping idle
    // cycles, polling only the entries an event reached) keeps every
    // cycle, squash, fill and exception where it was.  The extra
    // configurations reach what the defense ones do not: ROBs of one
    // to three entries, zero-cycle authorization and branch
    // resolution, and NDA, STT and conditional speculation at once.
    const NamedConfig extra[] = {
        {"baseline", [](CpuConfig &) {}},
        {"rob 1", [](CpuConfig &c) { c.robSize = 1; }},
        {"rob 2", [](CpuConfig &c) { c.robSize = 2; }},
        {"rob 3", [](CpuConfig &c) { c.robSize = 3; }},
        {"zeroLatency",
         [](CpuConfig &c) {
             c.permCheckLatency = 0;
             c.branchResolveLatency = 0;
         }},
        {"nda+stt+conditional",
         [](CpuConfig &c) {
             c.defense.blockSpeculativeForwarding = true;
             c.defense.blockTaintedTransmit = true;
             c.defense.conditionalSpeculation = true;
         }},
    };
    struct Pin
    {
        const char *name;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {"fenceSpeculativeLoads", 0x2745cac75df22a08ull},
        {"blockSpeculativeForwarding", 0x8eb12d706f0a7fbbull},
        {"blockTaintedTransmit", 0x25d4f20dcbf25210ull},
        {"invisibleSpeculation", 0x7d96fccb66202204ull},
        {"cleanupSpec", 0xfacb1fd7697fd133ull},
        {"conditionalSpeculation", 0x298e392959f6ff39ull},
        {"noBranchPrediction", 0x32ec00fddd937544ull},
        {"safeStoreBypass", 0xa5da74d53e247bd7ull},
        {"noStoreBypassSilicon", 0xa5da74d53e247bd7ull},
        {"allHardened", 0x2745cac75df22a08ull},
        {"baseline", 0xe54b3441fcd11bc6ull},
        {"rob 1", 0x191e0d5284fff2ccull},
        {"rob 2", 0xf81729eb8892db58ull},
        {"rob 3", 0xb791a7872d726f3full},
        {"zeroLatency", 0x37f4e1eb39aa5b38ull},
        {"nda+stt+conditional", 0x6d2bf189a8f5c4faull},
    };
    std::vector<NamedConfig> configs(std::begin(kDefenseConfigs),
                                     std::end(kDefenseConfigs));
    configs.insert(configs.end(), std::begin(extra), std::end(extra));
    ASSERT_EQ(configs.size(), std::size(pins));

    for (std::size_t c = 0; c < configs.size(); ++c) {
        ASSERT_STREQ(configs[c].name, pins[c].name);
        CpuConfig cfg;
        configs[c].set(cfg);
        Fnv1a fnv;
        for (unsigned seed = 0; seed < 400; ++seed) {
            std::mt19937 rng(seed + 4000);
            CpuStats st;
            runOnOoo(randomProgram(rng), cfg, seed, &st);
            for (const std::uint64_t v :
                 {st.cycles, st.committed, st.squashed,
                  st.branchMispredicts, st.memOrderViolations,
                  st.speculativeFills, st.exceptions})
                fnv.add(v);
        }
        EXPECT_EQ(fnv.hash, pins[c].hash)
            << configs[c].name << ": 0x" << std::hex << fnv.hash;
    }
}

} // namespace
