/**
 * @file
 * Campaign engine throughput: the full variant x defense matrix
 * (the paper's Table II-style sweep) executed serially and across
 * the worker pool, reporting scenarios/sec and the speedup, and
 * verifying the success matrices are identical.  Also times the
 * same sweep submitted to an in-process campaign daemon (cold and
 * cache-warm) against the offline engine, counts the heap
 * allocations and times the expansion of ROADMAP item 1's
 * 55,296-cell knob sweep, and writes the headline numbers to
 * BENCH_campaign.json for CI artifact upload.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>

#include "attacks/phase.hh"
#include "bench_util.hh"
#include "campaign/campaign.hh"
#include "campaign/sink.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "tool/report.hh"
#include "tool/stream_export.hh"

using namespace specsec;
using namespace specsec::campaign;

namespace
{

/// Every heap allocation this process makes through operator new.
std::atomic<std::uint64_t> allocations{0};

/** ROADMAP item 1's knob sweep: the defense matrix x 8 ROB sizes x
 *  6 latencies x {fr, pp} x 4 software mitigations. */
ScenarioSpec
roadmapSweep()
{
    ScenarioSpec spec = ScenarioSpec::defenseMatrix();
    spec.robSizes = {16, 32, 48, 64, 96, 128, 160, 192};
    spec.permCheckLatencies = {10, 20, 30, 40, 50, 60};
    spec.channels = {core::CovertChannelKind::FlushReload,
                     core::CovertChannelKind::PrimeProbe};
    for (const char *m : {"none", "kpti", "lfence", "addr-mask"})
        spec.mitigations.push_back(*SoftwareMitigation::byName(m));
    return spec;
}

} // namespace

// Counting replacements for the global allocation functions; the
// array and nothrow forms forward to these.
void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

int
main(int argc, char **argv)
{
    unsigned parallel_workers =
        std::max(4u, std::thread::hardware_concurrency());
    std::string json_path = "BENCH_campaign.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--workers") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            const unsigned long n =
                std::strtoul(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || n == 0) {
                std::fprintf(stderr,
                             "--workers: '%s' is not a positive "
                             "integer\n", argv[i]);
                return 2;
            }
            parallel_workers = static_cast<unsigned>(n);
        }
    }

    bench::header("campaign engine: serial vs. parallel sweep");
    const ScenarioSpec spec = ScenarioSpec::defenseMatrix();
    std::printf("grid: %zu variants x %zu defenses = %zu scenarios\n",
                spec.variants.size(), spec.defenses.size(),
                spec.gridSize());

    // Warm-up, excluded from every timed region below: one full
    // pass touches every lazily initialized catalog, so the timed
    // runs measure steady-state sweep throughput rather than
    // one-time set-up.
    CampaignEngine(CampaignEngine::Options{parallel_workers})
        .run(spec);

    const CampaignReport serial =
        CampaignEngine(CampaignEngine::Options{1}).run(spec);
    const CampaignReport parallel =
        CampaignEngine(CampaignEngine::Options{parallel_workers})
            .run(spec);

    bench::rule();
    std::printf("%-10s %8s %8s %12s %14s\n", "mode", "workers",
                "unique", "wall (ms)", "scenarios/sec");
    std::printf("%-10s %8u %8zu %12.1f %14.1f\n", "serial",
                serial.workers, serial.uniqueCount,
                serial.wallMillis, serial.scenariosPerSecond());
    std::printf("%-10s %8u %8zu %12.1f %14.1f\n", "parallel",
                parallel.workers, parallel.uniqueCount,
                parallel.wallMillis, parallel.scenariosPerSecond());
    const double speedup = parallel.wallMillis > 0.0
                               ? serial.wallMillis / parallel.wallMillis
                               : 0.0;
    std::printf("speedup: %.2fx (%u hardware threads)\n", speedup,
                std::thread::hardware_concurrency());

    const bool agree =
        serial.successMatrixText() == parallel.successMatrixText();
    std::printf("success matrices identical: %s\n",
                agree ? "yes" : "NO — BUG");
    if (!agree)
        return 1;

    // Steady state: the unique cells executed once untimed, then
    // once timed, with grid expansion outside the timed region; the
    // phase profile of the timed pass is the breakdown emitted into
    // the JSON artifact.
    bench::header("steady state: unique keys, one worker");
    const CampaignEngine oneWorker(CampaignEngine::Options{1});
    const ExpandedGrid grid = dedupGrid(spec);
    const CampaignHeader gridHeader = runHeader(spec, grid, {}, 1);
    const double uniqueCells =
        static_cast<double>(grid.uniqueIndices.size());
    std::chrono::steady_clock::time_point t0;
    for (int pass = 0; pass < 2; ++pass) {
        attacks::resetPhaseProfile();
        t0 = std::chrono::steady_clock::now();
        oneWorker.run(grid, gridHeader, {});
    }
    const double steadyMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    const attacks::PhaseProfile phases = attacks::phaseProfile();
    std::printf("%.0f unique keys: %.1f scenarios/sec\n", uniqueCells,
                steadyMs > 0.0 ? 1000.0 * uniqueCells / steadyMs : 0.0);

    // Per-phase attribution of the timed pass.
    const double totalNs =
        static_cast<double>(phases.totalNanos > 0 ? phases.totalNanos
                                                  : 1);
    const auto pct = [totalNs](std::uint64_t ns) {
        return 100.0 * static_cast<double>(ns) / totalNs;
    };
    std::printf("phases (%llu cells): build %.1f%%  prologue %.1f%%"
                "  body %.1f%%  teardown %.1f%%\n",
                static_cast<unsigned long long>(phases.cells),
                pct(phases.buildNanos), pct(phases.prologueNanos),
                pct(phases.bodyNanos()), pct(phases.teardownNanos));

    // Sink overhead: the same parallel sweep collecting a report
    // only, vs. additionally streaming ordered CSV + JSONL exports
    // as workers finish.  Streaming should cost noise — the export
    // work rides on worker threads that would otherwise idle-wait.
    bench::header("sink overhead: collect vs. collect+streaming");
    const CampaignEngine engine(
        CampaignEngine::Options{parallel_workers});
    const auto timeRun = [&](const std::vector<OutcomeSink *> &s) {
        const auto t0 = std::chrono::steady_clock::now();
        engine.run(spec, s);
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    ReportSink collect_only;
    const double collectMs = timeRun({&collect_only});

    ReportSink collect;
    std::ostringstream csv_out, jsonl_out;
    tool::CsvStreamSink csv_sink(csv_out);
    tool::JsonlStreamSink jsonl_sink(jsonl_out);
    const double streamMs =
        timeRun({&collect, &csv_sink, &jsonl_sink});

    std::printf("%-22s %12s\n", "sinks", "wall (ms)");
    std::printf("%-22s %12.1f\n", "report", collectMs);
    std::printf("%-22s %12.1f\n", "report+csv+jsonl", streamMs);
    std::printf("streaming overhead: %+.1f%%\n",
                collectMs > 0.0
                    ? 100.0 * (streamMs - collectMs) / collectMs
                    : 0.0);

    const bool stream_ok =
        csv_out.str() ==
            tool::campaignCsv(collect.report(), false) &&
        jsonl_out.str() ==
            tool::campaignJsonl(collect.report(), false);
    std::printf("streamed exports match batch exporters: %s\n",
                stream_ok ? "yes" : "NO — BUG");
    if (!stream_ok)
        return 1;

    // Server mode: the identical sweep submitted to an in-process
    // daemon.  Cold pays one execution per unique cell plus the
    // wire round trips; warm is pure protocol + shared-cache cost,
    // the latency a second CI client actually sees.
    bench::header("server mode: offline vs. remote submit");
    serve::Server::Options server_options;
    server_options.workers = parallel_workers;
    serve::Server server(server_options);
    std::string error;
    double coldMs = 0.0, warmMs = 0.0;
    double warm_hit_rate = 0.0;
    bool remote_ok = false;
    if (!server.start(&error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }
    std::thread serving([&server] { server.serveForever(); });
    {
        serve::Client client;
        if (!client.connect({"127.0.0.1", server.port()},
                            &error)) {
            std::fprintf(stderr, "connect: %s\n", error.c_str());
            server.stop();
            serving.join();
            return 1;
        }
        ReportSink cold_sink;
        auto t0 = std::chrono::steady_clock::now();
        bool ok = client.run(spec, {&cold_sink}, {}, &error);
        coldMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        ReportSink warm_sink;
        t0 = std::chrono::steady_clock::now();
        ok = ok && client.run(spec, {&warm_sink}, {}, &error);
        warmMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
        const CampaignReport cold_report = cold_sink.takeReport();
        const CampaignReport warm = warm_sink.takeReport();
        if (!ok)
            std::fprintf(stderr, "remote run: %s\n",
                         error.c_str());
        warm_hit_rate =
            warm.uniqueCount
                ? static_cast<double>(warm.cacheHits) /
                      static_cast<double>(warm.uniqueCount)
                : 0.0;
        remote_ok =
            ok &&
            tool::campaignJson(cold_report, false) ==
                tool::campaignJson(parallel, false) &&
            warm.executedCount == 0;
    }
    server.stop();
    serving.join();

    std::printf("%-22s %12s %14s\n", "mode", "wall (ms)",
                "cache hits");
    std::printf("%-22s %12.1f %14s\n", "offline (report)",
                collectMs, "-");
    std::printf("%-22s %12.1f %14s\n", "remote cold", coldMs, "0%");
    std::printf("%-22s %12.1f %13.0f%%\n", "remote warm", warmMs,
                100.0 * warm_hit_rate);
    std::printf("remote overhead (cold vs. offline): %+.1f%%\n",
                collectMs > 0.0
                    ? 100.0 * (coldMs - collectMs) / collectMs
                    : 0.0);
    std::printf("remote byte-identical, warm fully cached: %s\n",
                remote_ok ? "yes" : "NO — BUG");
    if (!remote_ok)
        return 1;

    // The engine's per-run set-up on a grid large enough to time:
    // expansion, dedup and the fan-out a whole-grid run builds.
    // Allocations are exact; the rate is reported, not gated.
    bench::header("grid expansion: ROADMAP sweep, dedup + fan-out");
    const ScenarioSpec sweep = roadmapSweep();
    const std::vector<std::size_t> sweepPoints =
        dedupGrid(sweep).shard(0, 1);
    const double sweepCells = static_cast<double>(sweepPoints.size());
    std::uint64_t expandAllocs = 0;
    {
        const std::uint64_t a0 = allocations.load();
        const ExpandedGrid grid = dedupGrid(sweep);
        const OutcomeFanOut fanOut(grid, sweepPoints, {});
        expandAllocs = allocations.load() - a0;
    }
    std::size_t expansions = 0;
    double expandMs = 0.0;
    const auto e0 = std::chrono::steady_clock::now();
    while (expandMs < 1000.0) {
        const ExpandedGrid grid = dedupGrid(sweep);
        const OutcomeFanOut fanOut(grid, sweepPoints, {});
        ++expansions;
        expandMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - e0)
                       .count();
    }
    const double expandAllocsPerCell =
        static_cast<double>(expandAllocs) / sweepCells;
    const double expandCellsPerSec =
        1000.0 * sweepCells * static_cast<double>(expansions) / expandMs;
    std::printf("%.0f cells: %.3f allocations per cell, %.0f cells/sec "
                "(%zu expansions in %.0f ms)\n",
                sweepCells, expandAllocsPerCell, expandCellsPerSec,
                expansions, expandMs);

    bench::BenchJson out;
    out.set("bench", std::string("campaign"));
    out.set("grid_scenarios",
            static_cast<double>(spec.gridSize()));
    out.set("serial_scenarios_per_sec",
            serial.scenariosPerSecond());
    out.set("parallel_scenarios_per_sec",
            parallel.scenariosPerSecond());
    out.set("parallel_speedup", speedup);
    out.set("phase_cells", static_cast<double>(phases.cells));
    out.set("phase_build_pct", pct(phases.buildNanos));
    out.set("phase_prologue_pct", pct(phases.prologueNanos));
    out.set("phase_body_pct", pct(phases.bodyNanos()));
    out.set("phase_teardown_pct", pct(phases.teardownNanos));
    out.set("streaming_overhead_pct",
            collectMs > 0.0
                ? 100.0 * (streamMs - collectMs) / collectMs
                : 0.0);
    out.set("offline_wall_ms", collectMs);
    out.set("serve_cold_wall_ms", coldMs);
    out.set("serve_warm_wall_ms", warmMs);
    out.set("serve_warm_cache_hit_rate", warm_hit_rate);
    out.set("expand_allocs_per_cell", expandAllocsPerCell);
    out.set("expand_cells_per_s", expandCellsPerSec);
    if (!out.save(json_path))
        return 1;

    std::printf("\n%s", parallel.successMatrixText().c_str());
    return 0;
}
