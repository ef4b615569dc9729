/**
 * @file
 * The `gate` workload: the golden gate CI pays on every commit, run
 * in-process on one worker.  An op is one full pass with a fresh
 * ResultCache:
 *
 *   1. every regress::registeredSpecs() spec under the differential
 *      backend, compared against golden/<spec>.json and
 *      golden/differential-<spec>.json;
 *   2. the same specs under the static backend (its simulations are
 *      cache hits), compared against golden/<spec>.json and
 *      golden/differential-static-<spec>.json;
 *   3. lint::lintAttack on every attack with a static program,
 *      compared against golden/lint-<attack>.json.
 *
 * A pass fails on any matrix drift, unpinned divergence or lint
 * drift.  The goldens are parsed once, at set-up.  The timed phase
 * runs in rounds of kPassesPerBlock passes (about half a second).
 */

#include <algorithm>
#include <cstdio>

#include "lint/lint.hh"
#include "perfbench.hh"
#include "regress/golden.hh"
#include "regress/specs.hh"
#include "tool/report.hh"
#include "verdict/differential.hh"

namespace perfbench
{

using namespace specsec;

namespace
{

/** One gated spec with everything it is compared against. */
struct GatedSpec
{
    const regress::NamedSpec *named = nullptr;
    regress::GoldenMatrix matrix;
    verdict::DisagreementSet differentialPins;
    verdict::DisagreementSet staticPins;
    /// Per gridIndex: first grid point of its unique execution.
    std::vector<char> executes;
};

constexpr std::size_t kPassesPerBlock = 10;

struct GatePlan
{
    std::vector<GatedSpec> specs;
    std::vector<std::pair<const core::AttackDescriptor *,
                          lint::LintReport>>
        lints;
};

/** Reads a pin file; an absent file pins nothing. */
bool
loadPins(const std::string &path, const std::string &spec,
         verdict::DisagreementSet &pins, std::string &error)
{
    pins.spec = spec;
    std::string text;
    if (!tool::readTextFile(path, text))
        return true;
    const auto parsed = verdict::parseDisagreementJson(text, &error);
    if (!parsed) {
        error = path + ": " + error;
        return false;
    }
    pins = *parsed;
    return true;
}

/** Parses every golden, pin and lint file the gate compares with. */
bool
loadGoldens(const Options &options, GatePlan &plan, std::string &error)
{
    const std::string &dir = options.goldenDir;
    for (const regress::NamedSpec &named : regress::registeredSpecs()) {
        GatedSpec g;
        g.named = &named;
        std::string text;
        const std::string path = dir + "/" + named.name + ".json";
        if (!tool::readTextFile(path, text)) {
            error = "cannot read " + path;
            return false;
        }
        const auto matrix = regress::parseGoldenJson(text, &error);
        if (!matrix) {
            error = path + ": " + error;
            return false;
        }
        g.matrix = *matrix;
        if (!loadPins(dir + "/differential-" + named.name + ".json",
                      named.name, g.differentialPins, error) ||
            !loadPins(dir + "/differential-static-" + named.name +
                          ".json",
                      named.name, g.staticPins, error))
            return false;
        const campaign::ExpandedGrid grid =
            campaign::dedupGrid(named.spec);
        g.executes.resize(grid.expanded.size());
        for (std::size_t i = 0; i < grid.expanded.size(); ++i)
            g.executes[i] = grid.uniqueIndices[grid.dupOf[i]] == i;
        plan.specs.push_back(std::move(g));
    }
    for (const core::AttackDescriptor *d :
         core::ScenarioCatalog::instance().attacks()) {
        if (!d->staticProgram)
            continue;
        const std::string path =
            dir + "/lint-" + lint::lintFileSlug(d->name) + ".json";
        std::string text;
        if (!tool::readTextFile(path, text)) {
            error = "cannot read " + path;
            return false;
        }
        auto pinned = lint::parseLintReportJson(text, &error);
        if (!pinned) {
            error = path + ": " + error;
            return false;
        }
        plan.lints.emplace_back(d, std::move(*pinned));
    }
    return true;
}

/** What one pass did, for failures and the per-layer ledger. */
struct PassStats
{
    std::uint64_t drift = 0;
    std::vector<std::string> driftLines;
    GuestWork work;
    std::vector<double> cellMs;
    std::size_t outcomes = 0;
    std::size_t expanded = 0, executed = 0, cacheHits = 0;
    std::size_t cacheMisses = 0;
    std::size_t modelDecided = 0, modelUndecided = 0;
    double compareMs = 0.0, lintMs = 0.0;
};

/** Collects a report; sums executed guest work; traces cells. */
class GateSink : public campaign::OutcomeSink
{
  public:
    GateSink(const GatedSpec &spec, PassStats &stats, Tracer &tracer,
             std::uint64_t op, std::uint32_t runSpan)
        : spec_(spec), stats_(stats), tracer_(tracer), op_(op),
          runSpan_(runSpan)
    {
    }

    void begin(const campaign::CampaignHeader &h) override
    {
        report.begin(h);
    }

    void
    consume(const campaign::ScenarioOutcome &o) override
    {
        const auto t0 = Clock::now();
        report.consume(o);
        const auto t1 = Clock::now();
        ++stats_.outcomes;
        // Cache hits carry no wall time; duplicates share it.
        const bool executed =
            o.wallMillis > 0.0 && o.gridIndex < spec_.executes.size() &&
            spec_.executes[o.gridIndex];
        if (executed) {
            stats_.work.add(o.stats);
            stats_.cellMs.push_back(o.wallMillis);
        }
        if (runSpan_ != Tracer::kNoParent) {
            if (executed)
                tracer_.record(
                    "timed", "attacks.cell", op_,
                    t0 - std::chrono::nanoseconds(static_cast<
                             std::int64_t>(o.wallMillis * 1e6)),
                    t0, runSpan_);
            tracer_.record("timed", "campaign.sink", op_, t0, t1,
                           runSpan_);
        }
    }

    void end(const campaign::CampaignFooter &f) override
    {
        report.end(f);
    }

    campaign::ReportSink report;

  private:
    const GatedSpec &spec_;
    PassStats &stats_;
    Tracer &tracer_;
    std::uint64_t op_;
    std::uint32_t runSpan_;
};

/** The run's disagreements, one per distinct scenario key. */
verdict::DisagreementSet
freshDisagreements(const std::string &spec,
                   const campaign::CampaignReport &report)
{
    verdict::DisagreementSet set;
    set.spec = spec;
    std::vector<std::string> seen;
    for (const campaign::ScenarioOutcome &o : report.outcomes) {
        if (o.agreement != "disagree")
            continue;
        const std::string key =
            campaign::scenarioKey(o.variant, o.config, o.options);
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            continue;
        seen.push_back(key);
        verdict::Disagreement d;
        d.key = key;
        d.row = o.rowLabel;
        d.col = o.colLabel;
        d.model = o.modelVerdict;
        d.simulator = o.result.leaked ? "leak" : "blocked";
        d.evidence = o.evidence;
        set.disagreements.push_back(std::move(d));
    }
    return set;
}

void
noteDrift(PassStats &stats, const std::string &line)
{
    ++stats.drift;
    if (stats.driftLines.size() < 8)
        stats.driftLines.push_back("# gate drift: " + line);
}

/** One full gate pass against @p cache (fresh per pass). */
void
runPass(const GatePlan &plan, campaign::ResultCache &cache,
        Tracer &tracer, bool traced, std::uint64_t op, PassStats &stats)
{
    const auto passStart = Clock::now();
    const std::uint32_t passSpan =
        traced ? tracer.record("timed", "gate.pass", op, passStart,
                               passStart)
               : Tracer::kNoParent;
    for (const verdict::VerdictBackend backend :
         {verdict::VerdictBackend::Differential,
          verdict::VerdictBackend::Static}) {
        campaign::CampaignEngine::Options eo;
        eo.workers = 1;
        eo.cache = &cache;
        eo.backend = backend;
        const campaign::CampaignEngine engine(eo);
        const bool differential =
            backend == verdict::VerdictBackend::Differential;
        for (const GatedSpec &spec : plan.specs) {
            const auto r0 = Clock::now();
            const std::uint32_t runSpan =
                traced ? tracer.record("timed", "campaign.run", op, r0,
                                       r0, passSpan)
                       : Tracer::kNoParent;
            GateSink sink(spec, stats, tracer, op, runSpan);
            engine.run(spec.named->spec, {&sink});
            tracer.close(runSpan, Clock::now());
            const campaign::CampaignReport report =
                sink.report.takeReport();
            stats.expanded += report.expandedCount;
            stats.executed += report.executedCount;
            stats.cacheHits += report.cacheHits;
            if (differential) {
                stats.modelDecided += report.modelDecided;
                stats.modelUndecided += report.modelUndecided;
            }

            const auto c0 = Clock::now();
            regress::GoldenMatrix actual = regress::GoldenMatrix::fromReport(
                report, spec.matrix.hasAccuracy);
            actual.absEps = spec.matrix.absEps;
            const regress::MatrixDiff diff =
                regress::compareGolden(spec.matrix, actual);
            if (!diff.empty())
                noteDrift(stats, spec.named->name + ": " +
                                     regress::renderDiff(diff));
            const std::vector<std::string> pinDrift =
                verdict::compareDisagreements(
                    differential ? spec.differentialPins
                                 : spec.staticPins,
                    freshDisagreements(spec.named->name, report));
            for (const std::string &line : pinDrift)
                noteDrift(stats, spec.named->name + ": " + line);
            const auto c1 = Clock::now();
            stats.compareMs += msBetween(c0, c1);
            if (traced)
                tracer.record("timed", "regress.compare", op, c0, c1,
                              passSpan);
        }
    }
    const auto l0 = Clock::now();
    for (const auto &[attack, pinned] : plan.lints)
        for (const std::string &line :
             lint::compareLintReports(pinned, lint::lintAttack(*attack)))
            noteDrift(stats, attack->name + ": " + line);
    const auto l1 = Clock::now();
    stats.lintMs = msBetween(l0, l1);
    if (traced)
        tracer.record("timed", "lint.pass", op, l0, l1, passSpan);
    stats.cacheMisses = cache.misses();
    tracer.close(passSpan, Clock::now());
}

} // namespace

bool
setupGate(const Options &options)
{
    GatePlan plan;
    std::string error;
    if (!loadGoldens(options, plan, error)) {
        std::fprintf(stderr, "gate set-up: %s\n", error.c_str());
        return false;
    }
    campaign::ResultCache cache;
    Tracer off(false);
    PassStats stats;
    runPass(plan, cache, off, false, 0, stats);
    return true;
}

Report
runGate(const Options &options, Tracer &tracer)
{
    Report rep;
    SetupSampler setup(options);
    if (!setup.sampleBefore()) {
        rep.fatal = "set-up sampling failed";
        return rep;
    }
    GatePlan plan;
    if (!loadGoldens(options, plan, rep.fatal))
        return rep;

    // The first, cold pass is set-up (lazy catalogs, arena pool,
    // warm-attack snapshots); it is checked like every other pass.
    const auto account = [&rep](const PassStats &stats) {
        ++rep.attempted;
        if (stats.drift) {
            ++rep.failed;
            for (const std::string &line : stats.driftLines)
                if (rep.notes.size() < 16)
                    rep.notes.push_back(line);
        }
    };
    {
        campaign::ResultCache cache;
        PassStats cold;
        runPass(plan, cache, tracer, false, 0, cold);
        account(cold);
    }

    campaign::ResultCache roundCache;
    PassStats round;
    CounterSnapshot roundCounters;
    GuestWork timedWork;
    std::vector<double> tracedMs, untracedMs, cellMs, lintMs, compareMs;
    Timeline timeline(static_cast<std::size_t>(options.seconds * 100) +
                      kPassesPerBlock);
    const CounterSnapshot timedBefore = CounterSnapshot::now();
    const auto t0 = Clock::now();
    for (std::uint64_t pass = 0;; ++pass) {
        if (pass % kPassesPerBlock == 0)
            timeline.beginBlock();
        const bool traced = options.trace && pass % 2 == 1;
        campaign::ResultCache fresh;
        campaign::ResultCache &cache = pass == 0 ? roundCache : fresh;
        PassStats stats;
        const CounterSnapshot before = CounterSnapshot::now();
        const auto p0 = Clock::now();
        runPass(plan, cache, tracer, traced, pass + 1, stats);
        const double ms = msSince(p0);
        account(stats);
        timeline.addOp(ms, stats.work.cycles);
        (traced ? tracedMs : untracedMs).push_back(ms);
        timedWork.cycles += stats.work.cycles;
        timedWork.committed += stats.work.committed;
        timedWork.squashed += stats.work.squashed;
        if (tracer.enabled())
            cellMs.insert(cellMs.end(), stats.cellMs.begin(),
                          stats.cellMs.end());
        lintMs.push_back(stats.lintMs);
        compareMs.push_back(stats.compareMs);
        if (pass == 0) {
            roundCounters = CounterSnapshot::now().minus(before);
            round = std::move(stats);
        }
        if ((pass + 1) % kPassesPerBlock != 0)
            continue;
        timeline.endBlock();
        const double elapsedMs = msSince(t0);
        if (!setup.sampleIfDue(elapsedMs)) {
            rep.fatal = "set-up sampling failed";
            return rep;
        }
        const bool needTraced = options.trace && tracedMs.empty();
        if (!needTraced && elapsedMs >= options.seconds * 1000.0)
            break;
    }
    const CounterSnapshot timed = CounterSnapshot::now().minus(timedBefore);
    char line[192];
    std::snprintf(line, sizeof line,
                  "# gate: %zu specs, %zu lint files, %zu timed passes "
                  "in %zu rounds, %zu cells/pass (%zu executed, %zu "
                  "cached), %zu set-up samples",
                  plan.specs.size(), plan.lints.size(), timeline.ops(),
                  timeline.blocks(), round.expanded, round.executed,
                  round.cacheHits, setup.count());
    rep.notes.push_back(line);
    timeline.report(rep, !options.trace);
    rep.correct = rep.failed == 0;

    Metrics &out = rep.metrics;
    if (!options.trace) {
        out.set("setup_s", setup.value(), "s");
        return rep;
    }

    ProbeInputs probes;
    for (const auto &[key, entry] : roundCache.snapshot())
        probes.verdictKeys.push_back(key);
    probes.cache = &roundCache;
    runProbes(options, probes, tracer, out);

    setCellLayerMetrics(out, roundCounters, round.work, timed, timedWork,
                        cellMs);
    std::vector<double> expand;
    for (int r = 0; r < 3; ++r) {
        const auto e0 = Clock::now();
        for (const GatedSpec &spec : plan.specs)
            campaign::dedupGrid(spec.named->spec);
        expand.push_back(msSince(e0));
    }
    out.set("campaign.expand_ms", median(expand), "ms");
    const auto totals = tracer.totals("timed");
    const auto get = [&totals](const char *name, bool self) {
        const auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : (self ? it->second.selfMs : it->second.totalMs);
    };
    const double tracedOutcomes =
        static_cast<double>(round.outcomes) *
        static_cast<double>(tracedMs.size());
    out.set("campaign.engine_us_per_cell",
            1000.0 * get("campaign.run", true) / tracedOutcomes, "us");
    out.set("campaign.sink_us_per_cell",
            1000.0 * get("campaign.sink", false) / tracedOutcomes, "us");
    out.set("campaign.cells_expanded", static_cast<double>(round.expanded),
            "count");
    out.set("campaign.cells_executed", static_cast<double>(round.executed),
            "count");
    out.set("campaign.cache_hits", static_cast<double>(round.cacheHits),
            "count");
    out.set("campaign.cache_misses", static_cast<double>(round.cacheMisses),
            "count");
    out.set("verdict.model_decided", static_cast<double>(round.modelDecided),
            "count");
    out.set("verdict.model_undecided",
            static_cast<double>(round.modelUndecided), "count");
    out.set("lint.ms_per_pass", median(lintMs), "ms");
    out.set("regress.compare_ms_per_pass", median(compareMs), "ms");
    out.set("trace.overhead_pct",
            100.0 * (median(tracedMs) / median(untracedMs) - 1.0), "%");
    return rep;
}

} // namespace perfbench
