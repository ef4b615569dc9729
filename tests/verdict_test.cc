/**
 * @file
 * Tests for the verdict subsystem (src/verdict/): the analytic
 * model's judgements against the simulator, strategy-4 semantics on
 * degenerate and OR-join graphs, backend name parsing, cross-backend
 * cache isolation, the differential pin format, the CleanupSpec x
 * Prime+Probe divergence no golden reaches, and the triage
 * backend's byte-identity + strictly-fewer-simulations contract.
 */

#include <gtest/gtest.h>

#include <set>

#include "campaign/campaign.hh"
#include "core/attack_graph.hh"
#include "core/security_dependency.hh"
#include "regress/specs.hh"
#include "tool/report.hh"
#include "tool/schema.hh"
#include "verdict/differential.hh"
#include "verdict/model.hh"
#include "verdict/verdict.hh"

namespace
{

using namespace specsec;
using namespace specsec::campaign;
using specsec::core::AttackGraph;
using specsec::core::AttackStep;
using specsec::core::AttackVariant;
using specsec::core::DefenseStrategy;
using specsec::core::ModelVerdict;
using specsec::core::NodeRole;
using specsec::graph::EdgeKind;
using specsec::graph::NodeId;

// ---------------------------------------------------------------
// applyDefense strategy 4 on shapes the sweep never exercises.

/** A Meltdown-shaped graph: no predictor, no mistrain -> trigger
 *  edge anywhere — strategy 4 has nothing to splice. */
AttackGraph
meltdownShape()
{
    AttackGraph g;
    const NodeId fault = g.addOperation(
        "privilege check", NodeRole::Authorization,
        AttackStep::DelayedAuth);
    const NodeId access = g.addOperation(
        "load kernel byte", NodeRole::SecretAccess,
        AttackStep::Access);
    const NodeId use = g.addOperation("compute index",
                                      NodeRole::Use,
                                      AttackStep::UseSend);
    const NodeId send = g.addOperation("load probe",
                                       NodeRole::Send,
                                       AttackStep::UseSend);
    const NodeId receive = g.addOperation("reload probe",
                                          NodeRole::Receive,
                                          AttackStep::Receive);
    g.addDependency(access, fault, EdgeKind::Data);
    g.addDependency(access, use, EdgeKind::Data);
    g.addDependency(use, send, EdgeKind::Address);
    g.addDependency(send, receive, EdgeKind::Resource);
    return g;
}

TEST(DefenseStrategy4, NoMistrainTriggerEdgeIsANoOp)
{
    AttackGraph g = meltdownShape();
    const std::size_t nodes = g.tsg().nodeCount();
    const std::size_t edges = g.tsg().edgeCount();
    ASSERT_TRUE(g.isVulnerable());

    const auto added =
        core::applyDefense(g, DefenseStrategy::ClearPredictions);

    // Nothing to protect: no edges inserted, no flush node
    // materialized, and the graph must be untouched — a no-op
    // defense must not count as "blocked".
    EXPECT_TRUE(added.empty());
    EXPECT_EQ(g.tsg().nodeCount(), nodes);
    EXPECT_EQ(g.tsg().edgeCount(), edges);
    EXPECT_TRUE(g.isVulnerable());
    EXPECT_FALSE(core::defenseBlocks(
        meltdownShape(), DefenseStrategy::ClearPredictions));
}

/** Fig. 4 shape: two independent mistrain sources feeding the same
 *  trigger (an OR-join — either source alone steers the transient
 *  path), continuing into the usual access/use/send chain. */
struct OrJoinShape
{
    AttackGraph g;
    NodeId mistrainA, mistrainB, trigger, resolve, access, use,
        send, receive;

    OrJoinShape()
    {
        mistrainA = g.addOperation("mistrain (same address)",
                                   NodeRole::MistrainPredictor,
                                   AttackStep::Setup);
        mistrainB = g.addOperation("mistrain (aliased address)",
                                   NodeRole::MistrainPredictor,
                                   AttackStep::Setup);
        trigger = g.addOperation("victim branch",
                                 NodeRole::Trigger,
                                 AttackStep::DelayedAuth);
        resolve = g.addOperation("branch resolution",
                                 NodeRole::Authorization,
                                 AttackStep::DelayedAuth);
        access = g.addOperation("load S", NodeRole::SecretAccess,
                                AttackStep::Access);
        use = g.addOperation("compute R", NodeRole::Use,
                             AttackStep::UseSend);
        send = g.addOperation("load R", NodeRole::Send,
                              AttackStep::UseSend);
        receive = g.addOperation("reload", NodeRole::Receive,
                                 AttackStep::Receive);
        g.addDependency(mistrainA, trigger, EdgeKind::Resource);
        g.addDependency(mistrainB, trigger, EdgeKind::Resource);
        g.addDependency(trigger, resolve, EdgeKind::Data);
        g.addDependency(trigger, access, EdgeKind::Control);
        g.addDependency(access, use, EdgeKind::Data);
        g.addDependency(use, send, EdgeKind::Address);
        g.addDependency(send, receive, EdgeKind::Resource);
    }
};

TEST(DefenseStrategy4, OrJoinNeedsEveryMistrainSourceCut)
{
    OrJoinShape s;
    ASSERT_TRUE(s.g.isVulnerable());

    // Cutting one of the two OR-joined sources leaves the other
    // steering the trigger: still vulnerable.
    AttackGraph partial = s.g;
    partial.tsg().removeEdge(s.mistrainA, s.trigger);
    const NodeId flush = partial.addOperation(
        "Flush predictor state (context switch)",
        NodeRole::PredictorFlush, AttackStep::Setup);
    partial.addDependency(s.mistrainA, flush, EdgeKind::Resource);
    partial.addSecurityDependency(flush, s.trigger);
    EXPECT_TRUE(partial.isVulnerable());

    // applyDefense splices a flush into EVERY mistrain -> trigger
    // influence — one security edge per OR-joined source — and only
    // then is the attack blocked.
    AttackGraph full = s.g;
    const auto added =
        core::applyDefense(full, DefenseStrategy::ClearPredictions);
    EXPECT_EQ(added.size(), 2u);
    for (const auto &e : added)
        EXPECT_EQ(e.kind, EdgeKind::Security);
    EXPECT_FALSE(full.isVulnerable());
    EXPECT_TRUE(core::defenseBlocks(
        s.g, DefenseStrategy::ClearPredictions));
}

// ---------------------------------------------------------------
// Backend names: parse, fold, suggest.

TEST(VerdictBackend, ParseAcceptsFoldedNames)
{
    using verdict::VerdictBackend;
    VerdictBackend b{};
    EXPECT_TRUE(verdict::parseBackend("simulator", b));
    EXPECT_EQ(b, VerdictBackend::Simulator);
    EXPECT_TRUE(verdict::parseBackend("MODEL", b));
    EXPECT_EQ(b, VerdictBackend::Model);
    EXPECT_TRUE(verdict::parseBackend("Differential", b));
    EXPECT_EQ(b, VerdictBackend::Differential);
    EXPECT_TRUE(verdict::parseBackend("tri-age", b));
    EXPECT_EQ(b, VerdictBackend::Triage);
    EXPECT_TRUE(verdict::parseBackend("STATIC", b));
    EXPECT_EQ(b, VerdictBackend::Static);

    EXPECT_FALSE(verdict::parseBackend("hardware", b));
    EXPECT_FALSE(verdict::parseBackend("", b));

    const auto names = verdict::backendNames();
    ASSERT_EQ(names.size(), 5u);
    for (const std::string &name : names) {
        EXPECT_TRUE(verdict::parseBackend(name, b)) << name;
        EXPECT_EQ(verdict::backendName(b), name);
    }
}

TEST(VerdictBackend, UnknownNameGetsSuggestion)
{
    const std::string msg =
        verdict::unknownBackendMessage("simluator");
    EXPECT_NE(msg.find("unknown backend 'simluator'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("simulator"), std::string::npos) << msg;

    // Hopeless input still lists the valid names.
    const std::string listing =
        verdict::unknownBackendMessage("zzzz");
    for (const std::string &name : verdict::backendNames())
        EXPECT_NE(listing.find(name), std::string::npos)
            << listing;
}

// ---------------------------------------------------------------
// The analytic model against ground truth it must reproduce.

TEST(VerdictModel, SpotChecksMatchThePaperTable)
{
    const CpuConfig base;
    const AttackOptions options;

    // Undefended baseline: the canonical variants all leak.
    for (AttackVariant v :
         {AttackVariant::SpectreV1, AttackVariant::Meltdown,
          AttackVariant::Foreshadow, AttackVariant::Ridl}) {
        const auto j = verdict::modelJudgement(v, base, options);
        EXPECT_EQ(j.verdict, ModelVerdict::Leak)
            << j.evidence;
        EXPECT_FALSE(j.evidence.empty());
    }

    // Ablating the forwarding path an attack requires ->
    // Inapplicable; an attack that never used it still leaks.
    CpuConfig ablated = base;
    ablated.vuln.meltdown = false;
    EXPECT_EQ(verdict::modelJudgement(AttackVariant::Meltdown,
                                      ablated, options)
                  .verdict,
              ModelVerdict::Inapplicable);
    EXPECT_EQ(verdict::modelJudgement(AttackVariant::SpectreV1,
                                      ablated, options)
                  .verdict,
              ModelVerdict::Leak);

    // A mechanism in scope blocks: fencing speculative loads cuts
    // Spectre v1's transient access.
    CpuConfig fenced = base;
    fenced.defense.fenceSpeculativeLoads = true;
    const auto blocked = verdict::modelJudgement(
        AttackVariant::SpectreV1, fenced, options);
    EXPECT_EQ(blocked.verdict, ModelVerdict::Blocked);
    EXPECT_FALSE(blocked.evidence.empty());

    // Off-default timing knob: the graph carries no cycle counts,
    // the model must abstain and name the knob.
    CpuConfig timed = base;
    timed.permCheckLatency = 5;
    const auto undecided = verdict::modelJudgement(
        AttackVariant::SpectreV1, timed, options);
    EXPECT_EQ(undecided.verdict, ModelVerdict::Undecided);
    EXPECT_NE(undecided.evidence.find("permCheckLatency"),
              std::string::npos)
        << undecided.evidence;
}

TEST(VerdictModel, JudgementsAreKeptPerChannel)
{
    // The model makes each rule's and the baseline's judgement once
    // per (variant, channel) and copies it afterwards.  The covert
    // send is a node of the channel's graph, so the evidence judged
    // on one channel must never answer for the other, whichever
    // channel is judged first.
    CpuConfig stt;
    stt.defense.blockTaintedTransmit = true;
    AttackOptions flushReload, primeProbe;
    primeProbe.channel = core::CovertChannelKind::PrimeProbe;
    for (const CpuConfig &config : {CpuConfig{}, stt}) {
        for (int pass = 0; pass < 2; ++pass) {
            const auto pp = verdict::modelJudgement(
                AttackVariant::SpectreV1, config, primeProbe);
            const auto fr = verdict::modelJudgement(
                AttackVariant::SpectreV1, config, flushReload);
            EXPECT_NE(pp.evidence.find("Load R: evict attacker line"),
                      std::string::npos)
                << pp.evidence;
            EXPECT_NE(fr.evidence.find("Load R to cache"),
                      std::string::npos)
                << fr.evidence;
        }
    }
}

// ---------------------------------------------------------------
// The result cache holds simulations only.

TEST(VerdictCache, ModelBackendLeavesTheCacheUntouched)
{
    // A model run neither reads nor writes the cache: a prediction
    // never passes for a measurement, and a simulator run that
    // follows executes every unique cell.
    ScenarioSpec spec;
    spec.name = "poison-check";
    spec.variants = {AttackVariant::SpectreV1,
                     AttackVariant::Meltdown};

    ResultCache cache;
    CampaignEngine::Options model_opts;
    model_opts.workers = 1;
    model_opts.cache = &cache;
    model_opts.backend = verdict::VerdictBackend::Model;
    const CampaignReport model = CampaignEngine(model_opts).run(spec);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
    EXPECT_EQ(model.cacheHits, 0u);

    CampaignEngine::Options sim_opts;
    sim_opts.workers = 1;
    sim_opts.cache = &cache;
    const CampaignReport sim =
        CampaignEngine(sim_opts).run(spec);
    EXPECT_EQ(sim.cacheHits, 0u);
    EXPECT_EQ(sim.executedCount, sim.uniqueCount);
    EXPECT_EQ(cache.size(), sim.uniqueCount);
}

// ---------------------------------------------------------------
// Differential pin format.

TEST(Differential, JsonRoundTripsAndComparesByKey)
{
    verdict::DisagreementSet set;
    set.spec = "unit-spec";
    verdict::Disagreement d;
    d.key = "3;48;...";
    d.row = "Spectre v2";
    d.col = "Disable branch prediction";
    d.model = "blocked";
    d.simulator = "leak";
    d.evidence = "flush spliced into every mistrain->trigger edge";
    d.rationale = "stall applies to conditional branches only";
    set.disagreements.push_back(d);

    const std::string text = verdict::disagreementJson(set);
    std::string error;
    const auto parsed =
        verdict::parseDisagreementJson(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->spec, set.spec);
    ASSERT_EQ(parsed->disagreements.size(), 1u);
    EXPECT_EQ(parsed->disagreements[0], d);
    // Stable bytes: serializing the parse reproduces the text.
    EXPECT_EQ(verdict::disagreementJson(*parsed), text);

    // Pinned == fresh: no drift.
    EXPECT_TRUE(verdict::compareDisagreements(set, set).empty());

    // A fresh, unpinned disagreement drifts.
    verdict::DisagreementSet fresh = set;
    verdict::Disagreement extra = d;
    extra.key = "4;48;...";
    extra.rationale.clear(); // fresh entries carry no rationale
    fresh.disagreements.push_back(extra);
    EXPECT_EQ(verdict::compareDisagreements(set, fresh).size(), 1u);

    // A pinned divergence that vanishes drifts too.
    verdict::DisagreementSet none;
    none.spec = set.spec;
    EXPECT_EQ(verdict::compareDisagreements(set, none).size(), 1u);

    // Same key, changed verdict pair: drift, not silence.
    verdict::DisagreementSet flipped = set;
    flipped.disagreements[0].model = "leak";
    flipped.disagreements[0].simulator = "blocked";
    EXPECT_EQ(verdict::compareDisagreements(set, flipped).size(),
              1u);

    EXPECT_FALSE(
        verdict::parseDisagreementJson("{\"bogus\": 1}", &error)
            .has_value());
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------
// The triage contract over every committed golden spec: exports
// byte-identical to the simulator backend, strictly fewer cells
// simulated in aggregate, honest per-spec counters.

TEST(Triage, ByteIdenticalExportsWithStrictlyFewerSimulations)
{
    std::size_t sim_total = 0, triage_total = 0;
    std::size_t replicated_total = 0;
    for (const regress::NamedSpec &named :
         regress::registeredSpecs()) {
        CampaignEngine::Options sim_opts;
        sim_opts.workers = 1;
        const CampaignReport sim =
            CampaignEngine(sim_opts).run(named.spec);

        CampaignEngine::Options triage_opts;
        triage_opts.workers = 1;
        triage_opts.backend = verdict::VerdictBackend::Triage;
        const CampaignReport triage =
            CampaignEngine(triage_opts).run(named.spec);

        // The acceptance bar: timing-free exports byte-identical.
        EXPECT_EQ(tool::campaignJson(triage, false),
                  tool::campaignJson(sim, false))
            << named.name;
        EXPECT_EQ(tool::campaignCsv(triage, false),
                  tool::campaignCsv(sim, false))
            << named.name;

        // Executed + cached + replicated covers the unique grid.
        EXPECT_EQ(triage.executedCount + triage.cacheHits +
                      triage.replicatedCells,
                  triage.uniqueCount)
            << named.name;
        EXPECT_LE(triage.executedCount, sim.executedCount)
            << named.name;

        // Every cell carries a model verdict annotation.
        EXPECT_EQ(triage.modelDecided + triage.modelUndecided,
                  triage.uniqueCount)
            << named.name;

        sim_total += sim.executedCount;
        triage_total += triage.executedCount;
        replicated_total += triage.replicatedCells;
    }
    // Strictly fewer simulator executions across the suite, carried
    // by the option-redundant specs (table2-industry and friends).
    EXPECT_LT(triage_total, sim_total);
    EXPECT_GT(replicated_total, 0u);
}

TEST(Triage, LooksEachUniqueExecutionUpOnce)
{
    // Simulated or replicated, every unique cell costs one cache
    // lookup, and only the real executions are stored.
    for (const regress::NamedSpec &named :
         regress::registeredSpecs()) {
        ResultCache cache;
        CampaignEngine::Options opts;
        opts.workers = 1;
        opts.cache = &cache;
        opts.backend = verdict::VerdictBackend::Triage;
        const CampaignReport report =
            CampaignEngine(opts).run(named.spec);
        EXPECT_EQ(cache.misses(), report.uniqueCount) << named.name;
        EXPECT_EQ(cache.hits(), 0u) << named.name;
        EXPECT_EQ(cache.size(), report.executedCount) << named.name;
    }
}

TEST(Triage, LaterCachedClassmateServesTheClass)
{
    // Meltdown's runner never reads softwareLfence, so its none and
    // lfence cells form one class.  With only the lfence cell
    // cached, that hit serves the earlier, uncached member too.
    ScenarioSpec spec;
    spec.variants = {AttackVariant::Meltdown};
    spec.mitigations = {*SoftwareMitigation::byName("none"),
                        *SoftwareMitigation::byName("lfence")};
    ScenarioSpec warm = spec;
    warm.mitigations = {spec.mitigations[1]};

    ResultCache cache;
    CampaignEngine::Options opts;
    opts.workers = 1;
    opts.cache = &cache;
    CampaignEngine(opts).run(warm);
    ASSERT_EQ(cache.size(), 1u);

    opts.backend = verdict::VerdictBackend::Triage;
    const CampaignReport triage = CampaignEngine(opts).run(spec);
    EXPECT_EQ(triage.uniqueCount, 2u);
    EXPECT_EQ(triage.executedCount, 0u);
    EXPECT_EQ(triage.cacheHits, 1u);
    EXPECT_EQ(triage.replicatedCells, 1u);
    EXPECT_EQ(cache.size(), 1u);

    const CampaignReport sim =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);
    ASSERT_EQ(triage.outcomes.size(), sim.outcomes.size());
    for (std::size_t i = 0; i < sim.outcomes.size(); ++i) {
        EXPECT_EQ(triage.outcomes[i].result, sim.outcomes[i].result);
        EXPECT_EQ(triage.outcomes[i].stats, sim.outcomes[i].stats);
    }
}

TEST(Differential, GoldenSpecsOnlyDisagreeWherePinned)
{
    // The one divergence a golden spec reaches lives in
    // table2-industry; every other spec must agree cell-for-cell
    // (CleanupSpec on Prime+Probe, which no spec runs, is the next
    // test's).  (The full pin check
    // against golden/differential-*.json is specsec_regress's job;
    // this guards the counters' plumbing.)
    for (const regress::NamedSpec &named :
         regress::registeredSpecs()) {
        CampaignEngine::Options opts;
        opts.workers = 1;
        opts.backend = verdict::VerdictBackend::Differential;
        const CampaignReport report =
            CampaignEngine(opts).run(named.spec);
        EXPECT_EQ(report.modelDecided + report.modelUndecided,
                  report.uniqueCount)
            << named.name;
        if (named.name == "table2-industry") {
            EXPECT_EQ(report.disagreements, 1u) << named.name;
        } else {
            EXPECT_EQ(report.disagreements, 0u) << named.name;
        }

        // Annotations, not results: no export shows them, so the
        // differential export is byte-identical to the simulator's.
        std::set<std::string> agreements;
        for (const ScenarioOutcome &o : report.outcomes) {
            EXPECT_FALSE(o.modelVerdict.empty());
            agreements.insert(o.agreement);
            ScenarioOutcome bare = o;
            bare.modelVerdict = bare.agreement = bare.evidence = "";
            EXPECT_EQ(tool::outcomeJson(o, true),
                      tool::outcomeJson(bare, true));
        }
        for (const std::string &a : agreements)
            EXPECT_TRUE(a == "agree" || a == "disagree" ||
                        a == "undecided")
                << a;
    }
}

TEST(Differential, CleanupSpecDivergesOnPrimeProbeOnly)
{
    // Unpinned by any golden: the model's cleanupSpec rule cuts
    // every attack's Prime+Probe eviction send, while the
    // simulator's undo flushes only the lines squashed loads
    // installed and restores no attacker line they evicted, so
    // every row still leaks under cleanup(3).  On Flush+Reload the
    // two agree.
    for (const core::CovertChannelKind channel :
         {core::CovertChannelKind::PrimeProbe,
          core::CovertChannelKind::FlushReload}) {
        ScenarioSpec spec = ScenarioSpec::defenseMatrix();
        spec.channels = {channel};
        CampaignEngine::Options opts;
        opts.workers = 1;
        opts.backend = verdict::VerdictBackend::Differential;
        const CampaignReport report = CampaignEngine(opts).run(spec);
        const bool pp = channel == core::CovertChannelKind::PrimeProbe;
        EXPECT_EQ(report.disagreements, pp ? 18u : 0u);

        std::set<std::size_t> rows;
        for (const ScenarioOutcome &o : report.outcomes) {
            if (o.agreement != "disagree")
                continue;
            EXPECT_EQ(o.colLabel, "cleanup(3)") << o.rowLabel;
            EXPECT_EQ(o.modelVerdict, "blocked") << o.rowLabel;
            EXPECT_NE(o.evidence.find("cleanupSpec"), std::string::npos)
                << o.evidence;
            EXPECT_TRUE(o.result.leaked) << o.rowLabel;
            rows.insert(o.row);
        }
        EXPECT_EQ(rows.size(), pp ? report.rowLabels.size() : 0u);
    }
}

} // namespace
