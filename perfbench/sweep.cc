/**
 * @file
 * The `sweep` workload: ROADMAP item 1's large knob sweep through
 * CampaignEngine::run on one worker, streaming the JSONL export into
 * a discarding stream.  An op is one executed cell, timed as the
 * interval between consecutive outcomes at the benchmark's sink.
 *
 * Grid: the 18 non-Spoiler variants x the 8 defense-matrix columns
 * x 3 seeded ROB sizes x 3 seeded permission-check latencies x
 * {fr, pp} x {none, kpti, lfence, addr-mask} = 10,368 cells, about
 * two seconds per pass.  ROB 48 and latency 30 are always drawn, so
 * the 144 defense-matrix cells are in the grid; a cell among them
 * fails when its leak bit disagrees with golden/defense-matrix.json.
 */

#include <cstdio>
#include <unordered_map>

#include "perfbench.hh"
#include "regress/golden.hh"
#include "tool/report.hh"
#include "tool/stream_export.hh"

namespace perfbench
{

using namespace specsec;
using campaign::ExpandedGrid;
using campaign::ScenarioOutcome;
using campaign::ScenarioSpec;

namespace
{

/**
 * The seeded grid: the default ROB size and latency, each with a
 * drawn pair mirrored around it (48 -/+ 8..32, 30 -/+ 5..20).  Guest
 * cycles grow linearly with the latency from 10 up and ROB sizes from
 * 16 to 192 change no guest work on this grid, so every seed's pass
 * does the same work; the mirrored ROB sizes also keep the memory of
 * per-size state the same.
 */
ScenarioSpec
sweepSpec(std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t robDelta = 8 * (1 + rng.below(4));
    const unsigned latDelta = 5 * (1 + static_cast<unsigned>(rng.below(4)));
    ScenarioSpec spec = ScenarioSpec::defenseMatrix();
    spec.name = "perfbench-sweep";
    spec.robSizes = {48 - robDelta, 48, 48 + robDelta};
    spec.permCheckLatencies = {30 - latDelta, 30, 30 + latDelta};
    spec.channels = {core::CovertChannelKind::FlushReload,
                     core::CovertChannelKind::PrimeProbe};
    for (const char *m : {"none", "kpti", "lfence", "addr-mask"})
        spec.mitigations.push_back(
            *campaign::SoftwareMitigation::byName(m));
    return spec;
}

/** The grid plus what each grid point must produce. */
struct SweepPlan
{
    ScenarioSpec spec;
    ExpandedGrid grid;
    /// Per gridIndex: the golden leak bit of the defense-matrix cell
    /// with the same key, or -1 outside the default slice.
    std::vector<std::int8_t> expected;
    /// Per gridIndex: first grid point of its unique execution.
    std::vector<char> executes;
    std::vector<std::string> defaultKeys;
};

bool
planSweep(const Options &options, SweepPlan &plan, std::string &error)
{
    plan.spec = sweepSpec(options.seed);
    plan.grid = campaign::dedupGrid(plan.spec);

    std::string text;
    const std::string path = options.goldenDir + "/defense-matrix.json";
    if (!tool::readTextFile(path, text)) {
        error = "cannot read " + path;
        return false;
    }
    const auto golden = regress::parseGoldenJson(text, &error);
    if (!golden) {
        error = path + ": " + error;
        return false;
    }
    std::unordered_map<std::string, std::int8_t> goldenLeak;
    for (const campaign::Scenario &s :
         campaign::expandGrid(ScenarioSpec::defenseMatrix())) {
        std::size_t r = 0, c = 0;
        while (r < golden->rows.size() && golden->rows[r] != s.rowLabel)
            ++r;
        while (c < golden->cols.size() && golden->cols[c] != s.colLabel)
            ++c;
        if (r == golden->rows.size() || c == golden->cols.size() ||
            golden->cells[r][c].pattern.size() != 1) {
            error = path + ": no single-run cell for " + s.rowLabel +
                    " x " + s.colLabel;
            return false;
        }
        goldenLeak[s.key] = golden->cells[r][c].pattern[0] == '1';
    }

    const std::size_t n = plan.grid.expanded.size();
    plan.expected.assign(n, -1);
    plan.executes.assign(n, 0);
    for (std::size_t g = 0; g < n; ++g) {
        const campaign::Scenario &s = plan.grid.expanded[g];
        plan.executes[g] =
            plan.grid.uniqueIndices[plan.grid.dupOf[g]] == g;
        const auto it = goldenLeak.find(s.key);
        if (it != goldenLeak.end() && plan.executes[g]) {
            plan.expected[g] = it->second;
            plan.defaultKeys.push_back(s.key);
        }
    }
    if (plan.defaultKeys.size() != goldenLeak.size()) {
        error = "sweep grid misses defense-matrix cells";
        return false;
    }
    return true;
}

/** Forwards every callback to @p inner, timing consume() calls. */
class TimedSink : public campaign::OutcomeSink
{
  public:
    explicit TimedSink(campaign::OutcomeSink &inner)
        : inner_(inner)
    {
    }

    void begin(const campaign::CampaignHeader &h) override
    {
        inner_.begin(h);
    }
    void
    consume(const campaign::ScenarioOutcome &o) override
    {
        lastStart = Clock::now();
        inner_.consume(o);
        lastEnd = Clock::now();
    }
    void end(const campaign::CampaignFooter &f) override
    {
        inner_.end(f);
    }

    /// The last consume() interval (single-threaded engines only).
    Clock::time_point lastStart{}, lastEnd{};

  private:
    campaign::OutcomeSink &inner_;
};

/**
 * The benchmark's own sink, attached after the export sink: times
 * each executed cell, sums its guest work, keeps the default slice's
 * leak bits for the pass-end golden compare, and records the cell's
 * spans in traced passes.
 */
class SweepSink : public campaign::OutcomeSink
{
  public:
    SweepSink(const SweepPlan &plan, Tracer &tracer,
              const TimedSink &exportSink)
        : plan_(plan), tracer_(tracer), export_(exportSink)
    {
    }

    void
    consume(const ScenarioOutcome &o) override
    {
        const auto t = Clock::now();
        if (!plan_.executes[o.gridIndex])
            return;
        if (timeline) {
            timeline->addOp(msBetween(prev, t), o.stats.cycles);
            if (tracer_.enabled())
                cellMs.push_back(o.wallMillis);
        }
        if (traced) {
            const std::uint64_t op = opId;
            const std::uint32_t span = tracer_.record(
                "timed", "sweep.cell", op, prev, t, runSpan);
            const auto cellEnd = export_.lastStart;
            tracer_.record(
                "timed", "attacks.cell", op,
                cellEnd - std::chrono::nanoseconds(static_cast<
                              std::int64_t>(o.wallMillis * 1e6)),
                cellEnd, span);
            tracer_.record("timed", "campaign.sink", op,
                           export_.lastStart, export_.lastEnd, span);
        }
        ++opId;
        prev = t;
        work.add(o.stats);
        ++cells;
        if (collect && collect->size() < kCollectCells)
            collect->store(plan_.grid.expanded[o.gridIndex].key,
                           {o.result, o.stats});
        if (plan_.expected[o.gridIndex] >= 0)
            observed.emplace_back(o.gridIndex, o.result.leaked);
    }

    void end(const campaign::CampaignFooter &f) override { footer = f; }

    /** The pass-end golden compare: @return mismatching cells. */
    std::uint64_t
    compareDefaultSlice()
    {
        std::uint64_t bad = 0;
        for (const auto &[g, leaked] : observed)
            bad += (plan_.expected[g] == 1) != leaked;
        bad += plan_.defaultKeys.size() - observed.size();
        observed.clear();
        return bad;
    }

    static constexpr std::size_t kCollectCells = 2304;

    /// Set in the timed phase: every executed cell is an op.
    Timeline *timeline = nullptr;
    bool traced = false;
    /// When set, the first kCollectCells results are stored here.
    campaign::ResultCache *collect = nullptr;
    Clock::time_point prev{};
    std::uint32_t runSpan = Tracer::kNoParent;
    std::uint64_t opId = 0;
    std::uint64_t cells = 0;
    GuestWork work;
    std::vector<double> cellMs;
    std::vector<std::pair<std::size_t, bool>> observed;
    campaign::CampaignFooter footer;

  private:
    const SweepPlan &plan_;
    Tracer &tracer_;
    const TimedSink &export_;
};

/** Stops a set-up child at its first outcome. */
class FirstOutcomeSink : public campaign::OutcomeSink
{
  public:
    void consume(const ScenarioOutcome &) override { setupDone(); }
};

} // namespace

bool
setupSweep(const Options &options)
{
    SweepPlan plan;
    std::string error;
    if (!planSweep(options, plan, error)) {
        std::fprintf(stderr, "sweep set-up: %s\n", error.c_str());
        return false;
    }
    CountingStream discard;
    tool::JsonlStreamSink jsonl(discard);
    FirstOutcomeSink first;
    campaign::CampaignEngine(campaign::CampaignEngine::Options{1})
        .run(plan.spec, {&jsonl, &first});
    return false; // unreachable: the first outcome exits
}

Report
runSweep(const Options &options, Tracer &tracer)
{
    Report rep;
    SetupSampler setup(options);
    if (!setup.sampleBefore()) {
        rep.fatal = "set-up sampling failed";
        return rep;
    }
    SweepPlan plan;
    if (!planSweep(options, plan, rep.fatal))
        return rep;

    const campaign::CampaignEngine engine(
        campaign::CampaignEngine::Options{1});
    CountingStream discard;
    tool::JsonlStreamSink jsonl(discard);
    TimedSink exportSink(jsonl);
    SweepSink sink(plan, tracer, exportSink);
    const std::vector<campaign::OutcomeSink *> sinks = {&exportSink,
                                                        &sink};

    // Untimed warm-up pass: fills the arena pool and the warm-attack
    // snapshots, so every timed pass does identical work.  Its first
    // cells become the persistence and daemon probes' cache.
    campaign::ResultCache warmCells;
    sink.collect = &warmCells;
    engine.run(plan.spec, sinks);
    sink.collect = nullptr;
    rep.failed += sink.compareDefaultSlice();
    rep.attempted += sink.cells;
    const std::uint64_t exportBytes = discard.bytes();

    // Timed phase: whole passes, one block each, until --seconds is
    // reached (rounded to the nearer pass end).  Traced runs
    // alternate traced and untraced passes to measure the tracing
    // overhead.
    CounterSnapshot roundCounters;
    GuestWork roundWork;
    std::vector<double> tracedPassMs, untracedPassMs, compareMs;
    Timeline timeline(static_cast<std::size_t>(options.seconds * 8000) +
                      2 * plan.grid.expanded.size());
    sink.timeline = &timeline;
    sink.work = GuestWork{};
    sink.cells = 0;
    const CounterSnapshot timedBefore = CounterSnapshot::now();
    const auto t0 = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        const CounterSnapshot passBefore = CounterSnapshot::now();
        const GuestWork workBefore = sink.work;
        const std::uint64_t bytesBefore = discard.bytes();
        sink.traced = options.trace && pass % 2 == 1;
        const auto passStart = timeline.beginBlock();
        sink.prev = passStart;
        sink.runSpan = sink.traced
                           ? tracer.record("timed", "campaign.run", pass,
                                           passStart, passStart)
                           : Tracer::kNoParent;
        engine.run(plan.spec, sinks);
        const auto passEnd = timeline.endBlock();
        tracer.close(sink.runSpan, passEnd);
        const double ms = msBetween(passStart, passEnd);
        (sink.traced ? tracedPassMs : untracedPassMs).push_back(ms);

        const auto c0 = Clock::now();
        rep.failed += sink.compareDefaultSlice();
        const auto c1 = Clock::now();
        compareMs.push_back(msBetween(c0, c1));
        if (sink.traced)
            tracer.record("timed", "regress.compare", pass, c0, c1);
        if (discard.bytes() - bytesBefore != exportBytes) {
            rep.correct = false;
            rep.notes.push_back("# sweep: JSONL export size changed "
                                "between passes");
        }
        if (pass == 0) {
            roundCounters = CounterSnapshot::now().minus(passBefore);
            roundWork.cycles = sink.work.cycles - workBefore.cycles;
            roundWork.committed =
                sink.work.committed - workBefore.committed;
            roundWork.squashed = sink.work.squashed - workBefore.squashed;
        }
        const double elapsedMs = msSince(t0);
        if (!setup.sampleIfDue(elapsedMs)) {
            rep.fatal = "set-up sampling failed";
            return rep;
        }
        const bool needTraced = options.trace && tracedPassMs.empty();
        if (!needTraced && elapsedMs + ms / 2.0 >= options.seconds * 1000.0)
            break;
    }
    const CounterSnapshot timed = CounterSnapshot::now().minus(timedBefore);
    sink.timeline = nullptr;
    rep.attempted += sink.cells;

    char line[256];
    std::snprintf(line, sizeof line,
                  "# sweep: %zu cells/pass (%zu unique), %zu timed "
                  "passes, %llu cells, rob {%zu,%zu,%zu} lat {%u,%u,%u}, "
                  "%zu set-up samples",
                  plan.grid.expanded.size(),
                  plan.grid.uniqueIndices.size(), timeline.blocks(),
                  static_cast<unsigned long long>(sink.cells),
                  plan.spec.robSizes[0], plan.spec.robSizes[1],
                  plan.spec.robSizes[2], plan.spec.permCheckLatencies[0],
                  plan.spec.permCheckLatencies[1],
                  plan.spec.permCheckLatencies[2], setup.count());
    rep.notes.push_back(line);
    timeline.report(rep, !options.trace);
    rep.correct = rep.correct && rep.failed == 0;

    Metrics &out = rep.metrics;
    if (!options.trace) {
        out.set("setup_s", setup.value(), "s");
        return rep;
    }

    ProbeInputs probes;
    probes.verdictKeys = plan.defaultKeys;
    probes.cache = &warmCells;
    runProbes(options, probes, tracer, out);

    setCellLayerMetrics(out, roundCounters, roundWork, timed, sink.work,
                        sink.cellMs);
    std::vector<double> expand;
    for (int r = 0; r < 3; ++r) {
        const auto e0 = Clock::now();
        campaign::dedupGrid(plan.spec);
        expand.push_back(msSince(e0));
    }
    out.set("campaign.expand_ms", median(expand), "ms");
    const auto totals = tracer.totals("timed");
    const auto total = [&totals](const char *name, bool self) {
        const auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : (self ? it->second.selfMs : it->second.totalMs);
    };
    const double tracedCells = static_cast<double>(
        totals.count("sweep.cell") ? totals.at("sweep.cell").count : 1);
    out.set("campaign.engine_us_per_cell",
            1000.0 *
                (total("campaign.run", true) +
                 total("sweep.cell", true)) /
                tracedCells,
            "us");
    out.set("campaign.sink_us_per_cell",
            1000.0 * total("campaign.sink", false) / tracedCells, "us");
    out.set("campaign.cells_expanded",
            static_cast<double>(plan.grid.expanded.size()), "count");
    out.set("campaign.cells_executed",
            static_cast<double>(sink.footer.executedCount), "count");
    out.set("campaign.cache_hits", static_cast<double>(sink.footer.cacheHits),
            "count");
    out.set("campaign.cache_misses", 0.0, "count");
    out.set("regress.compare_ms_per_pass", median(compareMs), "ms");
    out.set("trace.overhead_pct",
            100.0 * (median(tracedPassMs) / median(untracedPassMs) - 1.0),
            "%");
    return rep;
}

} // namespace perfbench
