#include "spectre.hh"

#include "phase.hh"

using namespace specsec::uarch;

namespace specsec::attacks
{

namespace
{

/** Registers used by the attack programs. */
constexpr RegId rIdx = 1;    ///< attacker-controlled index
constexpr RegId rPtr = 2;    ///< address of the slow (flushed) word
constexpr RegId rBase = 3;   ///< victim data base
constexpr RegId rProbe = 4;  ///< probe array base
constexpr RegId rSlow = 5;   ///< value loaded from [rPtr]
constexpr RegId rByte = 6;   ///< the secret byte
constexpr RegId rAddr = 7;   ///< computed address
constexpr RegId rEnc = 8;    ///< encoded probe offset
constexpr RegId rSend = 9;   ///< probe address
constexpr RegId rSink = 10;  ///< send target
constexpr RegId rVal = 11;   ///< attacker-chosen store value
constexpr RegId rIdx2 = 12;  ///< reloaded index
constexpr RegId rIdxPtr = 13;///< address of the index variable
constexpr RegId rTable = 14; ///< table base

/** Emit the "use + send" tail: encode rByte and touch the probe. */
void
emitSend(Program &p, unsigned shift)
{
    p.emit(shlImm(rEnc, rByte, shift));
    p.emit(add(rSend, rProbe, rEnc));
    p.emit(load8(rSink, rSend, 0));
}

/** Bounds-check-bypass program shared by v1/v1.1/v1.2. */
struct BoundsProgram
{
    Program program;
    std::size_t bailPc = 0;
};

} // anonymous namespace

AttackResult
runSpectreV1(const CpuConfig &config, const AttackOptions &opt)
{
    Scenario s(config);
    Cpu &cpu = s.cpu();
    const auto secret = defaultSecret(opt.secretLen);

    ChannelHarness ch(cpu, opt.channel);

    // Prologue: plant the secret, load the victim and train it.
    {
        const ScopedPhaseTimer prologue(Phase::Prologue);
        s.plantBytes(Layout::kUserSecret, secret);
        s.mem().write64(Layout::kVictimBound, 16);

        Program p;
        p.emit(load64(rSlow, rPtr, 0)); // bound (flushed at attack
                                        // time)
        auto bail = p.newLabel();
        p.emitBranch(Cond::Geu, rIdx, rSlow, bail); // authorization
        if (opt.softwareLfence)
            p.emit(lfence()); // strategy 1: serialize after the check
        if (opt.addressMasking)
            p.emit(andImm(rIdx, rIdx, 0xf)); // clamp into [0, 16)
        p.emit(add(rAddr, rBase, rIdx));
        p.emit(load8(rByte, rAddr, 0)); // Load S (OOB when attacking)
        emitSend(p, ch.sendShift());
        p.bind(bail);
        p.emit(halt());
        cpu.loadProgram(p);
        cpu.setPrivilege(Privilege::User);

        cpu.setReg(rPtr, Layout::kVictimBound);
        cpu.setReg(rBase, Layout::kVictimArray);
        cpu.setReg(rProbe, ch.sendBase());

        // Step 1(b): train the bounds-check branch toward not-taken.
        for (unsigned t = 0; t < opt.trainingRounds; ++t) {
            cpu.warmLine(Layout::kVictimBound);
            cpu.setReg(rIdx, t % 16);
            cpu.run(0);
        }
    }

    const std::uint64_t c0 = cpu.stats().cycles;
    const std::uint64_t f0 = cpu.stats().transientForwards;
    std::vector<int> recovered;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        ch.setup();                                  // step 1(a)
        if (opt.delayAuthorization)
            cpu.flushLineVirt(Layout::kVictimBound); // step 2: delay
        else
            cpu.warmLine(Layout::kVictimBound);
        cpu.warmLine(Layout::kUserSecret + i);       // victim-hot data
        cpu.setReg(rIdx,
                   Layout::kUserSecret + i - Layout::kVictimArray);
        cpu.run(0);
        recovered.push_back(ch.recover({
            ch.noiseSet(Layout::kVictimBound),
            ch.noiseSet(Layout::kUserSecret + i),
        }));
        // Re-train after the mispredict nudged the counter.
        cpu.warmLine(Layout::kVictimBound);
        cpu.setReg(rIdx, i % 16);
        cpu.run(0);
    }
    return scoreResult("Spectre v1", recovered, secret,
                       cpu.stats().cycles - c0,
                       cpu.stats().transientForwards - f0);
}

namespace
{

/** Shared v1.1 / v1.2 implementation: the transient store target
 *  differs (writable victim page vs. read-only page). */
AttackResult
runStoreRedirect(const char *name, Addr idx_addr,
                 const CpuConfig &config, const AttackOptions &opt)
{
    Scenario s(config);
    Cpu &cpu = s.cpu();
    const auto secret = defaultSecret(opt.secretLen);

    ChannelHarness ch(cpu, opt.channel);

    // Prologue: plant the secret, load the victim and train it.
    {
        const ScopedPhaseTimer prologue(Phase::Prologue);
        s.plantBytes(Layout::kUserSecret, secret);
        s.mem().write64(Layout::kVictimBound, 16);
        s.mem().write64(idx_addr, 0); // benign index value

        Program p;
        p.emit(load64(rSlow, rPtr, 0)); // bound (flushed)
        auto bail = p.newLabel();
        p.emitBranch(Cond::Geu, rIdx, rSlow, bail);
        if (opt.softwareLfence)
            p.emit(lfence());
        if (opt.addressMasking)
            p.emit(andImm(rIdx, rIdx, 0xf));
        p.emit(add(rAddr, rBase, rIdx));
        p.emit(store64(rAddr, 0, rVal)); // transient OOB / read-only
                                         // store
        p.emit(load64(rIdx2, rIdxPtr, 0)); // forwarded attacker value
        p.emit(add(rAddr, rTable, rIdx2));
        p.emit(load8(rByte, rAddr, 0));    // victim secret
        emitSend(p, ch.sendShift());
        p.bind(bail);
        p.emit(halt());
        cpu.loadProgram(p);
        cpu.setPrivilege(Privilege::User);

        cpu.setReg(rPtr, Layout::kVictimBound);
        cpu.setReg(rBase, Layout::kVictimArray);
        cpu.setReg(rProbe, ch.sendBase());
        cpu.setReg(rIdxPtr, idx_addr);
        cpu.setReg(rTable, Layout::kVictimTable);

        for (unsigned t = 0; t < opt.trainingRounds; ++t) {
            cpu.warmLine(Layout::kVictimBound);
            cpu.setReg(rIdx, t % 16);
            cpu.setReg(rVal, 0);
            cpu.run(0);
        }
    }

    const std::uint64_t c0 = cpu.stats().cycles;
    const std::uint64_t f0 = cpu.stats().transientForwards;
    std::vector<int> recovered;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        ch.setup();
        cpu.flushLineVirt(Layout::kVictimBound);
        cpu.warmLine(Layout::kUserSecret + i);
        cpu.setReg(rIdx, idx_addr - Layout::kVictimArray); // OOB
        cpu.setReg(rVal,
                   Layout::kUserSecret + i - Layout::kVictimTable);
        cpu.run(0);
        recovered.push_back(ch.recover({
            ch.noiseSet(Layout::kVictimBound),
            ch.noiseSet(idx_addr),
            ch.noiseSet(Layout::kUserSecret + i),
        }));
        cpu.warmLine(Layout::kVictimBound);
        cpu.setReg(rIdx, i % 16);
        cpu.setReg(rVal, 0);
        cpu.run(0);
    }
    return scoreResult(name, recovered, secret,
                       cpu.stats().cycles - c0,
                       cpu.stats().transientForwards - f0);
}

} // anonymous namespace

AttackResult
runSpectreV1_1(const CpuConfig &config, const AttackOptions &opt)
{
    return runStoreRedirect("Spectre v1.1", Layout::kVictimIdx, config,
                            opt);
}

AttackResult
runSpectreV1_2(const CpuConfig &config, const AttackOptions &opt)
{
    return runStoreRedirect("Spectre v1.2", Layout::kReadOnlyIdx,
                            config, opt);
}

AttackResult
runSpectreV2(const CpuConfig &config, const AttackOptions &opt)
{
    Scenario s(config);
    Cpu &cpu = s.cpu();
    const auto secret = defaultSecret(opt.secretLen);
    s.plantBytes(Layout::kUserSecret, secret);
    s.mem().write64(Layout::kVictimPtr, 2); // legitimate target: pc 2

    ChannelHarness ch(cpu, opt.channel);

    // Victim: indirect branch whose target loads slowly; the gadget
    // at pc 8 is legitimate victim code the attacker repurposes.
    Program victim;
    victim.emit(load64(rSlow, rPtr, 0)); // 0: target (flushed)
    victim.emit(jmpInd(rSlow));          // 1: indirect branch
    victim.emit(halt());                 // 2: legitimate target
    while (victim.size() < 8)
        victim.emit(nop());
    victim.emit(load8(rByte, rAddr, 0)); // 8: gadget: Load S
    emitSend(victim, ch.sendShift());
    victim.emit(halt());

    // Attacker: trains BTB[1] -> 8 from its own context.
    Program trainer;
    trainer.emit(movImm(rSlow, 8)); // 0
    trainer.emit(jmpInd(rSlow));    // 1: same pc as victim's branch
    while (trainer.size() < 8)
        trainer.emit(nop());
    trainer.emit(halt());           // 8

    cpu.setPrivilege(Privilege::User);

    const std::uint64_t c0 = cpu.stats().cycles;
    const std::uint64_t f0 = cpu.stats().transientForwards;
    std::vector<int> recovered;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        // Step 1(b): mistrain from the attacker context.
        cpu.contextSwitch(1);
        cpu.loadProgram(trainer);
        for (unsigned t = 0; t < opt.trainingRounds; ++t)
            cpu.run(0);

        // Victim runs with attacker-influenced register state.
        cpu.contextSwitch(0);
        cpu.loadProgram(victim);
        ch.setup();
        cpu.flushLineVirt(Layout::kVictimPtr); // delay authorization
        cpu.warmLine(Layout::kUserSecret + i);
        cpu.setReg(rPtr, Layout::kVictimPtr);
        cpu.setReg(rAddr, Layout::kUserSecret + i);
        cpu.setReg(rProbe, ch.sendBase());
        cpu.run(0);

        // Receiver measures from the attacker context.
        cpu.contextSwitch(1);
        recovered.push_back(ch.recover({
            ch.noiseSet(Layout::kVictimPtr),
            ch.noiseSet(Layout::kUserSecret + i),
        }));
    }
    return scoreResult("Spectre v2", recovered, secret,
                       cpu.stats().cycles - c0,
                       cpu.stats().transientForwards - f0);
}

AttackResult
runSpectreV4(const CpuConfig &config, const AttackOptions &opt)
{
    Scenario s(config);
    Cpu &cpu = s.cpu();
    const auto secret = defaultSecret(opt.secretLen);

    ChannelHarness ch(cpu, opt.channel);

    // Victim: store through a slow pointer, then load the same
    // address directly.  The load speculatively bypasses the store
    // and reads the stale secret.
    Program p;
    p.emit(load64(rSlow, rPtr, 0));  // 0: store address (flushed)
    p.emit(store64(rSlow, 0, rVal)); // 1: overwrite stale secret
    p.emit(load8(rByte, rBase, 0));  // 2: bypassing load (Read S)
    emitSend(p, ch.sendShift());
    p.emit(halt());
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::User);

    s.mem().write64(Layout::kVictimPtr, Layout::kStaleAddr);
    cpu.setReg(rPtr, Layout::kVictimPtr);
    cpu.setReg(rBase, Layout::kStaleAddr);
    cpu.setReg(rProbe, ch.sendBase());
    cpu.setReg(rVal, 0); // the fresh (non-secret) value

    const std::uint64_t c0 = cpu.stats().cycles;
    const std::uint64_t f0 = cpu.stats().transientForwards;
    std::vector<int> recovered;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        s.mem().write8(Layout::kStaleAddr, secret[i]); // stale data
        ch.setup();
        cpu.warmLine(Layout::kStaleAddr);
        cpu.flushLineVirt(Layout::kVictimPtr); // delay disambiguation
        cpu.run(0);
        // The committed re-execution sends rVal (0): exclude slot 0,
        // plus victim-line sets under Prime+Probe.
        recovered.push_back(ch.recover({
            0,
            ch.noiseSet(Layout::kVictimPtr),
            ch.noiseSet(Layout::kStaleAddr),
        }));
    }
    return scoreResult("Spectre v4", recovered, secret,
                       cpu.stats().cycles - c0,
                       cpu.stats().transientForwards - f0);
}

AttackResult
runSpectreRsb(const CpuConfig &config, const AttackOptions &opt)
{
    Scenario s(config);
    Cpu &cpu = s.cpu();
    const auto secret = defaultSecret(opt.secretLen);
    s.plantBytes(Layout::kUserSecret, secret);

    ChannelHarness ch(cpu, opt.channel);

    // Victim: a return whose RSB entry was consumed (underflow); the
    // actual target resolves slowly (deep stack, cold line).
    Program victim;
    victim.emit(ret());  // 0: underflowing return
    victim.emit(halt()); // 1: actual fall-through target
    while (victim.size() < 8)
        victim.emit(nop());
    victim.emit(load8(rByte, rAddr, 0)); // 8: gadget
    emitSend(victim, ch.sendShift());
    victim.emit(halt());

    // Attacker: trains BTB[0] -> 8 (the underflow fallback path).
    Program trainer;
    trainer.emit(jmpInd(rSlow)); // 0
    while (trainer.size() < 8)
        trainer.emit(nop());
    trainer.emit(halt());        // 8

    cpu.setPrivilege(Privilege::User);
    cpu.setRetResolveExtraDelay(300);

    const std::uint64_t c0 = cpu.stats().cycles;
    const std::uint64_t f0 = cpu.stats().transientForwards;
    std::vector<int> recovered;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        cpu.contextSwitch(1);
        cpu.loadProgram(trainer);
        cpu.setReg(rSlow, 8);
        for (unsigned t = 0; t < opt.trainingRounds; ++t)
            cpu.run(0);

        cpu.contextSwitch(0);
        cpu.loadProgram(victim);
        ch.setup();
        cpu.warmLine(Layout::kUserSecret + i);
        cpu.setReg(rAddr, Layout::kUserSecret + i);
        cpu.setReg(rProbe, ch.sendBase());
        if (opt.rsbStuffing)
            cpu.rsb().stuff(1); // benign stuffed target
        cpu.run(0);

        cpu.contextSwitch(1);
        recovered.push_back(
            ch.recover({ch.noiseSet(Layout::kUserSecret + i)}));
    }
    cpu.setRetResolveExtraDelay(0);
    return scoreResult("Spectre RSB", recovered, secret,
                       cpu.stats().cycles - c0,
                       cpu.stats().transientForwards - f0);
}

AttackResult
runSpoiler(const CpuConfig &config, const AttackOptions &opt)
{
    (void)opt;
    Scenario s(config);
    Cpu &cpu = s.cpu();

    // Candidate pages 0..15 are identity phys-mapped at 0x500000 +
    // j*4K; the probe target sits at 0x600000 + hidden*4K.  The low
    // 20 physical address bits of candidate j match the target's iff
    // j == hidden: the 1MB alias Spoiler detects by timing.
    constexpr int kCandidates = 16;
    const int hidden = 11;
    for (int j = 0; j < kCandidates; ++j) {
        Pte pte;
        pte.physPage = (0x500000 / kPageSize) + static_cast<Addr>(j);
        s.pageTable().map(Layout::kSpoilerBase +
                              static_cast<Addr>(j) * kPageSize,
                          pte);
    }
    Pte target;
    target.physPage =
        (0x600000 / kPageSize) + static_cast<Addr>(hidden);
    s.pageTable().map(Layout::kScratch, target);

    // r5 = candidate address (same page offset as the load target),
    // store data comes off a dependency chain so the store lingers
    // in the store buffer while the load issues.
    Program p;
    p.emit(movImm(rVal, 1));
    for (int k = 0; k < 8; ++k)
        p.emit(add(rVal, rVal, rVal));
    p.emit(store64(rSlow, 0, rVal));
    p.emit(nop());
    p.emit(nop());
    p.emit(load8(rByte, rBase, 0));
    p.emit(halt());
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::User);
    cpu.setReg(rBase, Layout::kScratch + 0x40);

    const std::uint64_t c0 = cpu.stats().cycles;
    std::uint64_t best_cycles = 0;
    int best_j = -1;
    for (int j = 0; j < kCandidates; ++j) {
        const Addr candidate = Layout::kSpoilerBase +
                               static_cast<Addr>(j) * kPageSize + 0x40;
        cpu.warmLine(candidate);
        cpu.warmLine(Layout::kScratch + 0x40);
        cpu.setReg(rSlow, candidate);
        const RunResult r = cpu.run(0);
        if (r.cycles > best_cycles) {
            best_cycles = r.cycles;
            best_j = j;
        }
    }
    return scoreResult("Spoiler", {best_j},
                       {static_cast<std::uint8_t>(hidden)},
                       cpu.stats().cycles - c0, 0);
}

} // namespace specsec::attacks
