/**
 * @file
 * Verdict-backend throughput: the analytic model (verdict/model.hh)
 * judging the full variant x defense matrix vs. the cycle-accurate
 * simulator executing it, plus the triage backend's simulate
 * fraction (the share of unique cells it still runs: one per class
 * of cells with equal canonicalOptions keys, whatever the model
 * says).
 * The model-vs-simulator speedup is the number the CI perf gate
 * pins: the whole point of an analysis-only backend is that judging
 * a cell is at least an order of magnitude cheaper than simulating
 * it.  The static analyzer is gated on the cells it decides (their
 * rate against the simulator's, and their count).  Writes the
 * headline numbers to BENCH_verdict.json.
 *
 * Both backends keep their graph and program judgements per
 * (variant, channel, mechanism) and per (variant, lfence, mask) for
 * the life of the process (verdict::detail::Memo), and the untimed
 * pass before each timed loop makes each of them once.  So the
 * timed loops mostly measure memo hits -- the gates, the key walk
 * and a judgement copy -- which is what a cell costs a long-lived
 * process (the daemon, a gate run's later specs), not the first
 * judgement of an attack.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"
#include "verdict/verdict.hh"

using namespace specsec;
using namespace specsec::campaign;

namespace
{

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_verdict.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }

    bench::header("verdict backends: model vs. simulator");
    const ScenarioSpec spec = ScenarioSpec::defenseMatrix();
    const ExpandedGrid grid = dedupGrid(spec);
    std::printf("grid: %zu unique of %zu expanded scenarios\n",
                grid.uniqueIndices.size(), grid.expanded.size());

    // Warm-up (untimed): touches lazily initialized catalogs, so
    // both timed passes below measure steady state.
    CampaignEngine::Options serial_opts;
    serial_opts.workers = 1;
    CampaignEngine(serial_opts).run(spec);
    for (const std::size_t u : grid.uniqueIndices) {
        const Scenario &s = grid.expanded[u];
        verdict::judgeScenario(s.variant, s.config, s.options);
    }

    // Simulator: the serial engine run, so the per-cell rate is
    // comparable to the single-threaded judging loop below.  One run
    // takes ~10 ms, too short to time, so it repeats until the runs'
    // own wall clocks add up to the loops' 200 ms below.
    CampaignReport sim;
    std::size_t simulated = 0;
    double sim_ms = 0.0;
    do {
        sim = CampaignEngine(serial_opts).run(spec);
        simulated += sim.executedCount;
        sim_ms += sim.wallMillis;
    } while (sim_ms < 200.0);
    const double sim_rate =
        1000.0 * static_cast<double>(simulated) / sim_ms;

    // Model: judge every unique cell analytically.  Repeat the
    // sweep until the timed region is long enough for a stable
    // rate — one pass over a few hundred cells is microseconds.
    std::size_t decided = 0, undecided = 0;
    std::size_t passes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double model_ms = 0.0;
    do {
        decided = undecided = 0;
        for (const std::size_t u : grid.uniqueIndices) {
            const Scenario &s = grid.expanded[u];
            const core::ModelJudgement judged =
                verdict::judgeScenario(s.variant, s.config,
                                       s.options);
            ++(judged.decided() ? decided : undecided);
        }
        ++passes;
        model_ms = millisSince(t0);
    } while (model_ms < 200.0);
    const double judged_cells = static_cast<double>(
        passes * grid.uniqueIndices.size());
    const double model_rate =
        model_ms > 0.0 ? 1000.0 * judged_cells / model_ms : 0.0;
    const double speedup =
        sim_rate > 0.0 ? model_rate / sim_rate : 0.0;

    bench::rule();
    std::printf("%-10s %8s %14s\n", "backend", "unique",
                "cells/sec");
    std::printf("%-10s %8zu %14.1f\n", "simulator",
                sim.uniqueCount, sim_rate);
    std::printf("%-10s %8zu %14.1f\n", "model",
                grid.uniqueIndices.size(), model_rate);
    std::printf("model vs. simulator: %.1fx "
                "(%zu decided, %zu undecided)\n",
                speedup, decided, undecided);

    // Static: the Fig. 9 program analyzer judging the same grid.
    // The first judgement per (variant, lfence, mask) builds and
    // analyzes the attack's static program (graph construction +
    // race queries); the untimed pass that picks the decided cells
    // makes it, so the timed loop re-judges from the memo and must
    // still beat cycle-accurate simulation.  Most cells abstain
    // almost for free, so only the decided cells are timed: a rate
    // over abstentions would say nothing about the analysis.
    bench::header("static backend: analyzer vs. simulator");
    std::vector<const Scenario *> static_cells;
    for (const std::size_t u : grid.uniqueIndices) {
        const Scenario &s = grid.expanded[u];
        if (verdict::judgeScenarioStatic(s.variant, s.config,
                                         s.options)
                .decided())
            static_cells.push_back(&s);
    }
    const std::size_t static_decided = static_cells.size();
    const std::size_t static_undecided =
        grid.uniqueIndices.size() - static_decided;
    std::size_t redecided = 0;
    const auto s0 = std::chrono::steady_clock::now();
    double static_ms = 0.0;
    do {
        for (const Scenario *s : static_cells)
            redecided += verdict::judgeScenarioStatic(
                             s->variant, s->config, s->options)
                             .decided();
        static_ms = millisSince(s0);
    } while (static_ms < 200.0);
    const double static_rate =
        static_ms > 0.0 ? 1000.0 * static_cast<double>(redecided) /
                              static_ms
                        : 0.0;
    const double static_speedup =
        sim_rate > 0.0 ? static_rate / sim_rate : 0.0;
    std::printf("%-10s %8zu %14.1f\n", "static", static_decided,
                static_rate);
    std::printf("static vs. simulator on decided cells: %.1fx "
                "(%zu decided, %zu undecided)\n",
                static_speedup, static_decided, static_undecided);

    // Triage: how much of the grid still needs the simulator once
    // options-canonical classmates share one run, and whether the
    // export stays byte-identical to the simulator backend's.
    bench::header("triage backend: simulate fraction");
    CampaignEngine::Options triage_opts;
    triage_opts.workers = 1;
    triage_opts.backend = verdict::VerdictBackend::Triage;
    const CampaignReport triage =
        CampaignEngine(triage_opts).run(spec);
    const double simulate_fraction =
        triage.uniqueCount
            ? static_cast<double>(triage.executedCount) /
                  static_cast<double>(triage.uniqueCount)
            : 1.0;
    const bool identical = triage.successMatrixText() ==
                           sim.successMatrixText();
    std::printf("simulated %zu of %zu unique cells (%.0f%%), "
                "%zu replicated from options-canonical classmates\n",
                triage.executedCount, triage.uniqueCount,
                100.0 * simulate_fraction, triage.replicatedCells);
    std::printf("success matrices identical: %s\n",
                identical ? "yes" : "NO — BUG");
    if (!identical)
        return 1;

    bench::BenchJson out;
    out.set("bench", std::string("verdict"));
    out.set("grid_unique",
            static_cast<double>(grid.uniqueIndices.size()));
    out.set("sim_cells_per_sec", sim_rate);
    out.set("model_cells_per_sec", model_rate);
    out.set("model_vs_sim_speedup", speedup);
    out.set("model_decided", static_cast<double>(decided));
    out.set("model_undecided", static_cast<double>(undecided));
    out.set("static_decided_cells_per_sec", static_rate);
    out.set("static_decided_vs_sim_speedup", static_speedup);
    out.set("static_decided", static_cast<double>(static_decided));
    out.set("static_undecided",
            static_cast<double>(static_undecided));
    out.set("triage_simulate_fraction", simulate_fraction);
    out.set("triage_replicated_cells",
            static_cast<double>(triage.replicatedCells));
    if (!out.save(json_path))
        return 1;
    return 0;
}
