/**
 * @file
 * Adding a new attack in ONE file: the out-of-tree proof that the
 * ScenarioCatalog is the extension seam the paper's composition
 * claim (Section V-A) demands.
 *
 * This example defines a *composed* variant that exists nowhere in
 * `src/attacks` and has no AttackVariant enumerator: a bounds-check
 * bypass (the Spectre v1 trigger) whose transient gadget does a
 * pointer *chase* — it loads an attacker-planted pointer
 * out-of-bounds and dereferences it to reach the secret — built
 * entirely from the public attack_kit pieces (Scenario,
 * ChannelHarness, scoreResult) and the uarch ISA.  It registers an
 * AttackDescriptor (graph hook from core::composeAttack, execute
 * from attacks::statsCollectingExecute) and then drives the FULL
 * campaign pipeline over it:
 *
 *   - rows resolved by registry name (`spec.attackNames`),
 *   - streaming JSONL export while workers finish cells,
 *   - a 2-shard run merged back and byte-compared against the
 *     1-process report,
 *   - a persistent ResultCache (second invocation executes 0 cells).
 *
 * Exit status is the verdict: 0 only if the new attack leaks on the
 * baseline core, is blocked by the strategy-1 fence defense, and
 * every pipeline invariant above holds.  CI runs it twice and
 * byte-compares the cold and warm exports.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attacks/runner.hh"
#include "campaign/campaign.hh"
#include "campaign/sink.hh"
#include "core/catalog.hh"
#include "core/composer.hh"
#include "tool/cli.hh"
#include "tool/report.hh"
#include "tool/stream_export.hh"

using namespace specsec;
using namespace specsec::attacks;
using uarch::Addr;
using uarch::Cond;
using uarch::Cpu;
using uarch::Privilege;
using uarch::Program;
using uarch::RegId;

namespace
{

/** Registers used by the gadget program. */
constexpr RegId rIdx = 1;    ///< attacker-controlled index
constexpr RegId rPtr = 2;    ///< address of the (flushed) bound
constexpr RegId rBase = 3;   ///< victim data base
constexpr RegId rProbe = 4;  ///< probe array base
constexpr RegId rSlow = 5;   ///< bound loaded from [rPtr]
constexpr RegId rChase = 6;  ///< pointer loaded out-of-bounds
constexpr RegId rByte = 7;   ///< the secret byte, via the pointer
constexpr RegId rAddr = 8;   ///< computed OOB address
constexpr RegId rEnc = 9;    ///< encoded probe offset
constexpr RegId rSend = 10;  ///< probe address
constexpr RegId rSink = 11;  ///< send target

/** Where the attacker plants the chased pointer (out of bounds). */
constexpr Addr kPointerSlot = Layout::kScratch;

/**
 * The composed attack, built from attack_kit steps: train the
 * bounds-check branch (step 1b), flush the bound (step 2), then let
 * the transient window load a planted *pointer* from out of bounds
 * and dereference it to the secret (step 3) before sending the byte
 * through the covert channel (steps 4, 5).  One more dependent load
 * than Spectre v1 — the chase — so it needs a wider speculation
 * window, and the strategy-1 fence kills it just the same.
 */
AttackResult
runSpectreV1PtrChase(const uarch::CpuConfig &config,
                     const AttackOptions &opt)
{
    Scenario s(config);
    Cpu &cpu = s.cpu();
    const auto secret = defaultSecret(opt.secretLen);
    s.plantBytes(Layout::kUserSecret, secret);
    s.mem().write64(Layout::kVictimBound, 16);
    // Benign in-bounds "pointers" for the training runs, so the
    // committed gadget path dereferences something mapped.
    s.mem().write64(Layout::kVictimArray, Layout::kVictimPtr);
    s.mem().write64(Layout::kVictimArray + 8, Layout::kVictimPtr);

    ChannelHarness ch(cpu, opt.channel);

    Program p;
    p.emit(uarch::load64(rSlow, rPtr, 0)); // bound (flushed later)
    auto bail = p.newLabel();
    p.emitBranch(Cond::Geu, rIdx, rSlow, bail); // authorization
    if (opt.softwareLfence)
        p.emit(uarch::lfence()); // strategy 1: serialize the check
    if (opt.addressMasking)
        p.emit(uarch::andImm(rIdx, rIdx, 0xf));
    p.emit(uarch::add(rAddr, rBase, rIdx));
    p.emit(uarch::load64(rChase, rAddr, 0)); // OOB: planted pointer
    p.emit(uarch::load8(rByte, rChase, 0));  // chase: the secret
    p.emit(uarch::shlImm(rEnc, rByte, ch.sendShift()));
    p.emit(uarch::add(rSend, rProbe, rEnc));
    p.emit(uarch::load8(rSink, rSend, 0)); // send
    p.bind(bail);
    p.emit(uarch::halt());
    cpu.loadProgram(p);
    cpu.setPrivilege(Privilege::User);

    cpu.setReg(rPtr, Layout::kVictimBound);
    cpu.setReg(rBase, Layout::kVictimArray);
    cpu.setReg(rProbe, ch.sendBase());

    // Step 1(b): train the bounds-check branch toward not-taken
    // (8-byte-aligned in-bounds indices keep the chase benign).
    for (unsigned t = 0; t < opt.trainingRounds; ++t) {
        cpu.warmLine(Layout::kVictimBound);
        cpu.setReg(rIdx, (t % 2) * 8);
        cpu.run(0);
    }

    const std::uint64_t c0 = cpu.stats().cycles;
    const std::uint64_t f0 = cpu.stats().transientForwards;
    std::vector<int> recovered;
    for (std::size_t i = 0; i < secret.size(); ++i) {
        s.mem().write64(kPointerSlot, Layout::kUserSecret + i);
        ch.setup();                                  // step 1(a)
        if (opt.delayAuthorization)
            cpu.flushLineVirt(Layout::kVictimBound); // step 2
        else
            cpu.warmLine(Layout::kVictimBound);
        // Victim-hot data: the pointer and the secret line, so the
        // transient chase fits inside the speculation window.
        cpu.warmLine(kPointerSlot);
        cpu.warmLine(Layout::kUserSecret + i);
        cpu.setReg(rIdx, kPointerSlot - Layout::kVictimArray);
        cpu.run(0);
        recovered.push_back(ch.recover({
            ch.noiseSet(Layout::kVictimBound),
            ch.noiseSet(kPointerSlot),
            ch.noiseSet(Layout::kUserSecret + i),
        }));
        // Re-train after the mispredict nudged the counter.
        cpu.warmLine(Layout::kVictimBound);
        cpu.setReg(rIdx, (i % 2) * 8);
        cpu.run(0);
    }
    return scoreResult("Spectre v1 pointer-chase", recovered, secret,
                       cpu.stats().cycles - c0,
                       cpu.stats().transientForwards - f0);
}

/**
 * Register the attack.  This is everything a new scenario needs:
 * no AttackVariant edit, no switch edits, no src/attacks change.
 */
const core::AttackDescriptor &
registerPtrChase()
{
    core::AttackDescriptor d;
    d.name = "Spectre v1 pointer-chase";
    d.aliases = {"spectre-v1-ptr-chase", "ptr-chase"};
    d.klass = core::AttackClass::SpectreType;
    d.cve = "N/A (composed out-of-tree)";
    d.paperSection = "Sec. V-A";
    // The graph is a point in the paper's 3-D composition space:
    // conditional-branch trigger x memory source x chosen channel.
    d.buildGraph = [](core::CovertChannelKind channel) {
        return core::composeAttack(
            {core::TriggerKind::ConditionalBranch,
             core::SecretSource::Memory, channel});
    };
    d.execute = statsCollectingExecute(runSpectreV1PtrChase);
    return core::ScenarioCatalog::instance().registerAttack(
        std::move(d));
}

/** The demo campaign: the new attack (by alias) next to its in-tree
 *  ancestor, across three defense columns and both channels. */
campaign::ScenarioSpec
demoSpec()
{
    const core::ScenarioCatalog &catalog =
        core::ScenarioCatalog::instance();
    campaign::ScenarioSpec spec;
    spec.name = "custom-attack";
    spec.variants = {core::AttackVariant::SpectreV1};
    spec.attackNames = {"ptr-chase"}; // resolved via the registry
    spec.defenses.push_back({"baseline", nullptr});
    for (const char *defense :
         {"Context-sensitive fencing",
          "Speculative Taint Tracking (STT)"}) {
        const core::DefenseDescriptor *d =
            catalog.findDefense(defense);
        if (d != nullptr)
            spec.defenses.push_back({d->info.name, d->apply});
    }
    spec.channels = {core::CovertChannelKind::FlushReload,
                     core::CovertChannelKind::PrimeProbe};
    return spec;
}

bool
expectCell(const campaign::CampaignReport &report, std::size_t row,
           std::size_t col, char want)
{
    const char got = report.cellGlyph(row, col);
    if (got == want)
        return true;
    std::fprintf(stderr,
                 "FAIL: cell (%s, %s) is '%c', expected '%c'\n",
                 report.rowLabels[row].c_str(),
                 report.colLabels[col].c_str(), got, want);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonl_path = "custom-attack.jsonl";
    std::string cache_path;
    for (tool::cli::Args args(argc, argv); args.next();) {
        if (args.is("--jsonl"))
            jsonl_path = args.value();
        else if (args.is("--cache-file"))
            cache_path = args.value();
        else {
            std::fprintf(stderr,
                         "usage: %s [--jsonl FILE] "
                         "[--cache-file FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    const core::AttackDescriptor &descriptor = registerPtrChase();
    std::printf("registered '%s' (slot %u, %s)\n",
                descriptor.name.c_str(),
                static_cast<unsigned>(descriptor.id),
                descriptor.isExtension() ? "extension" : "builtin");

    // The registered graph hook works like any built-in's.
    const core::AttackGraph graph = core::buildAttackGraph(
        descriptor.id, descriptor.defaultChannel);
    std::printf("attack graph '%s': %zu operations, vulnerable=%s\n",
                graph.name().c_str(), graph.tsg().nodeCount(),
                graph.isVulnerable() ? "yes" : "no");

    const campaign::ScenarioSpec spec = demoSpec();

    // Persistent cache: a second invocation with the same
    // --cache-file executes zero cells.
    campaign::ResultCache cache;
    campaign::CampaignEngine::Options engine_opts;
    engine_opts.cache = &cache;
    if (!cache_path.empty())
        tool::cli::loadCache(cache_path, cache);
    const campaign::CampaignEngine engine(engine_opts);

    // 1-process run, streaming the JSONL export as workers finish.
    campaign::ReportSink report_sink;
    std::ofstream jsonl_stream(jsonl_path, std::ios::binary);
    if (!jsonl_stream) {
        std::fprintf(stderr, "cannot write %s\n",
                     jsonl_path.c_str());
        return 1;
    }
    tool::JsonlStreamSink jsonl_sink(jsonl_stream, false);
    engine.run(spec, {&report_sink, &jsonl_sink});
    jsonl_stream.flush();
    const campaign::CampaignReport report =
        report_sink.takeReport();
    std::printf("\n%s\n", report.successMatrixText().c_str());
    std::printf("executed %zu unique of %zu expanded scenarios "
                "(%zu cache hits)\n",
                report.executedCount, report.expandedCount,
                report.cacheHits);

    // 2-shard run of the same spec, merged back: must be
    // byte-identical to the 1-process run in every timing-free
    // export.
    campaign::CampaignReport merged =
        engine.run(spec, campaign::ShardRange{0, 2});
    const campaign::CampaignReport shard1 =
        engine.run(spec, campaign::ShardRange{1, 2});
    std::string merge_error;
    if (!merged.merge(shard1, &merge_error)) {
        std::fprintf(stderr, "FAIL: shard merge: %s\n",
                     merge_error.c_str());
        return 1;
    }

    bool ok = true;
    if (tool::campaignJson(merged, false) !=
        tool::campaignJson(report, false)) {
        std::fprintf(stderr, "FAIL: sharded-then-merged export "
                             "differs from 1-process export\n");
        ok = false;
    } else {
        std::printf("sharded+merged export byte-identical to "
                    "1-process export\n");
    }

    // The verdicts that make this a meaningful CI gate: the new
    // attack leaks on the baseline core and dies under strategy-1
    // fencing and STT, matching its in-tree ancestor.
    for (std::size_t row = 0; row < report.rowLabels.size(); ++row) {
        ok &= expectCell(report, row, 0, 'L');
        ok &= expectCell(report, row, 1, '.');
        ok &= expectCell(report, row, 2, '.');
    }

    if (!cache_path.empty())
        ok &= tool::cli::saveCache(cache_path, cache);
    std::printf("wrote %s\n%s\n", jsonl_path.c_str(),
                ok ? "OK: out-of-tree attack ran the full pipeline"
                   : "FAILED");
    return ok ? 0 : 1;
}
