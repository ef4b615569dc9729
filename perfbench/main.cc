/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload sweep|gate --seed N --seconds S
 *             --trace 0|1 [--root DIR] [--golden-dir DIR]
 *
 * Runs one workload in this process, checks its outputs, and prints
 * as the last stdout line one JSON object {correct, attempted,
 * failed, metrics}: the end-to-end metrics untraced, the per-layer
 * metrics with --trace 1.  See README.md in this directory.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <unordered_map>

#include "attacks/phase.hh"
#include "attacks/snapshot.hh"
#include "perfbench.hh"

extern char **environ;

namespace perfbench
{

namespace
{

/** Every end-to-end metric, in output order. */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"ops_per_s", "1/s"},          {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},           {"guest_cycles_per_s", "1/s"},
    {"peak_rss_mb", "MB"},         {"setup_s", "s"},
};

/** Every per-layer metric, in output order. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"uarch.guest_cycles", "count"},
    {"uarch.committed", "count"},
    {"uarch.squashed", "count"},
    {"uarch.ns_per_guest_cycle", "ns"},
    {"uarch.fr_round_us", "us"},
    {"uarch.pp_round_us", "us"},
    {"attacks.cell_us_p50", "us"},
    {"attacks.cell_us_p90", "us"},
    {"attacks.build_us_per_cell", "us"},
    {"attacks.prologue_us_per_cell", "us"},
    {"attacks.body_us_per_cell", "us"},
    {"attacks.teardown_us_per_cell", "us"},
    {"attacks.cells", "count"},
    {"attacks.arenas_forked", "count"},
    {"attacks.arenas_rebuilt", "count"},
    {"attacks.warm_hits", "count"},
    {"attacks.warm_misses", "count"},
    {"campaign.expand_ms", "ms"},
    {"campaign.engine_us_per_cell", "us"},
    {"campaign.sink_us_per_cell", "us"},
    {"campaign.cells_expanded", "count"},
    {"campaign.cells_executed", "count"},
    {"campaign.cache_hits", "count"},
    {"campaign.cache_misses", "count"},
    {"campaign.persist_load_ms", "ms"},
    {"campaign.persist_save_ms", "ms"},
    {"campaign.persist_bytes", "bytes"},
    {"verdict.model_us_per_cell", "us"},
    {"verdict.static_us_per_cell", "us"},
    {"verdict.model_decided", "count"},
    {"verdict.model_undecided", "count"},
    {"lint.ms_per_pass", "ms"},
    {"regress.compare_ms_per_pass", "ms"},
    {"serve.requests", "count"},
    {"serve.executed", "count"},
    {"serve.cache_hits", "count"},
    {"serve.submit_ms_p50", "ms"},
    {"serve.lookup_ms_per_submit", "ms"},
    {"serve.judge_ms_per_submit", "ms"},
    {"serve.framing_ms_per_submit", "ms"},
    {"serve.wire_ms_p50", "ms"},
    {"host.ref_ms", "ms"},
    {"host.minor_faults", "count"},
    {"host.invol_ctx_switches", "count"},
    {"trace.overhead_pct", "%"},
};

int
usage(const char *argv0, const char *problem)
{
    std::fprintf(stderr,
                 "%s\nusage: %s --workload sweep|gate --seed N "
                 "--seconds S --trace 0|1 [--root DIR] "
                 "[--golden-dir DIR]\n",
                 problem, argv0);
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || text[0] == '-')
        return false;
    out = v;
    return true;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Usage
usageNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.minorFaults = ru.ru_minflt;
    u.involCtxSwitches = ru.ru_nivcsw;
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

double
hostRefMs()
{
    std::vector<double> runs;
    for (int rep = 0; rep < 5; ++rep) {
        std::mt19937_64 rng(12345);
        std::vector<std::uint64_t> v(100000);
        const auto t0 = Clock::now();
        for (std::uint64_t &x : v)
            x = rng();
        std::sort(v.begin(), v.end());
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        for (std::size_t i = 0; i < v.size(); ++i)
            m[v[i] >> 40] += i;
        std::uint64_t sum = 0;
        for (const auto &kv : m)
            sum += kv.second;
        runs.push_back(msSince(t0));
        if (sum == 0)
            std::fprintf(stderr, "host ref: empty map\n");
    }
    return median(runs);
}

/** Children before the timed phase, and the least time between two
 *  children during it. */
constexpr unsigned kSetupSamplesBefore = 4;
constexpr double kSetupIntervalMs = 1500.0;

bool
SetupSampler::sampleBefore()
{
    for (unsigned i = 0; i < kSetupSamplesBefore; ++i)
        if (!sampleOne())
            return false;
    return true;
}

bool
SetupSampler::sampleIfDue(double elapsedMs)
{
    if (elapsedMs < nextDueMs_)
        return true;
    nextDueMs_ = elapsedMs + kSetupIntervalMs;
    return sampleOne();
}

bool
SetupSampler::sampleOne()
{
    if (options_.trace)
        return true;
    const std::string seed = std::to_string(options_.seed);
    std::vector<std::string> args = {
        "perfbench",    "--workload",   options_.workload,
        "--seed",       seed,           "--root",
        options_.root,  "--golden-dir", options_.goldenDir,
        "--work-dir",   options_.workDir, "--setup-probe"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = 0;
    const auto t0 = Clock::now();
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        return false;
    }
    // The child prints one line the moment its set-up is done;
    // set-up time is spawn -> that line (process start, library
    // initialisation and the workload's set-up).
    std::string line;
    double seconds = -1.0;
    char c = 0;
    while (read(fds[0], &c, 1) == 1) {
        if (c == '\n') {
            if (line == "setup-done" && seconds < 0.0)
                seconds = msSince(t0) / 1000.0;
            line.clear();
        } else {
            line += c;
        }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        seconds < 0.0)
        return false;
    samples_.push_back(seconds);
    return true;
}

void
setupDone()
{
    std::printf("setup-done\n");
    std::fflush(stdout);
    std::_Exit(0);
}

CounterSnapshot
CounterSnapshot::now()
{
    CounterSnapshot s;
    const specsec::attacks::PhaseProfile p =
        specsec::attacks::phaseProfile();
    s.phaseCells = p.cells;
    s.buildNs = p.buildNanos;
    s.prologueNs = p.prologueNanos;
    s.teardownNs = p.teardownNanos;
    s.totalNs = p.totalNanos;
    const specsec::attacks::ScenarioForkStats f =
        specsec::attacks::scenarioForkStats();
    s.forked = f.forked;
    s.rebuilt = f.rebuilt;
    const specsec::attacks::WarmSnapshotStats w =
        specsec::attacks::warmSnapshotStats();
    s.warmHits = w.hits;
    s.warmMisses = w.misses;
    return s;
}

CounterSnapshot
CounterSnapshot::minus(const CounterSnapshot &b) const
{
    CounterSnapshot d;
    d.phaseCells = phaseCells - b.phaseCells;
    d.buildNs = buildNs - b.buildNs;
    d.prologueNs = prologueNs - b.prologueNs;
    d.teardownNs = teardownNs - b.teardownNs;
    d.totalNs = totalNs - b.totalNs;
    d.forked = forked - b.forked;
    d.rebuilt = rebuilt - b.rebuilt;
    d.warmHits = warmHits - b.warmHits;
    d.warmMisses = warmMisses - b.warmMisses;
    return d;
}

std::uint64_t
CounterSnapshot::bodyNs() const
{
    const std::uint64_t attributed = buildNs + prologueNs + teardownNs;
    return totalNs > attributed ? totalNs - attributed : 0;
}

void
setCellLayerMetrics(Metrics &out, const CounterSnapshot &round,
                    const GuestWork &roundWork,
                    const CounterSnapshot &timed,
                    const GuestWork &timedWork,
                    const std::vector<double> &cellMs)
{
    out.set("uarch.guest_cycles", static_cast<double>(roundWork.cycles),
            "count");
    out.set("uarch.committed", static_cast<double>(roundWork.committed),
            "count");
    out.set("uarch.squashed", static_cast<double>(roundWork.squashed),
            "count");
    out.set("uarch.ns_per_guest_cycle",
            timedWork.cycles ? static_cast<double>(timed.bodyNs()) /
                                   static_cast<double>(timedWork.cycles)
                             : 0.0,
            "ns");
    out.set("attacks.cell_us_p50", 1000.0 * quantile(cellMs, 0.5), "us");
    out.set("attacks.cell_us_p90", 1000.0 * quantile(cellMs, 0.9), "us");
    const double cells =
        static_cast<double>(timed.phaseCells ? timed.phaseCells : 1);
    const auto perCell = [cells](std::uint64_t ns) {
        return static_cast<double>(ns) / 1000.0 / cells;
    };
    out.set("attacks.build_us_per_cell", perCell(timed.buildNs), "us");
    out.set("attacks.prologue_us_per_cell", perCell(timed.prologueNs),
            "us");
    out.set("attacks.body_us_per_cell", perCell(timed.bodyNs()), "us");
    out.set("attacks.teardown_us_per_cell", perCell(timed.teardownNs),
            "us");
    out.set("attacks.cells", static_cast<double>(round.phaseCells),
            "count");
    out.set("attacks.arenas_forked", static_cast<double>(round.forked),
            "count");
    out.set("attacks.arenas_rebuilt", static_cast<double>(round.rebuilt),
            "count");
    out.set("attacks.warm_hits", static_cast<double>(round.warmHits),
            "count");
    out.set("attacks.warm_misses", static_cast<double>(round.warmMisses),
            "count");
}

} // namespace perfbench

using namespace perfbench;

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    Options options;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-probe") {
            options.setupProbe = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(argv[0], ("missing value for " + arg).c_str());
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, n))
                return usage(argv[0], "--seed: not an unsigned integer");
            options.seed = n;
            haveSeed = true;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            options.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(options.seconds > 0))
                return usage(argv[0], "--seconds: not a positive number");
            haveSeconds = true;
        } else if (arg == "--trace") {
            if (!parseUnsigned(value, n) || n > 1)
                return usage(argv[0], "--trace: expected 0 or 1");
            options.trace = n == 1;
            haveTrace = true;
        } else if (arg == "--root") {
            options.root = value;
        } else if (arg == "--golden-dir") {
            options.goldenDir = value;
        } else if (arg == "--work-dir") {
            options.workDir = value;
        } else {
            return usage(argv[0], ("unknown option " + arg).c_str());
        }
    }
    if (options.workload != "sweep" && options.workload != "gate")
        return usage(argv[0], "--workload: expected sweep or gate");
    if (options.goldenDir.empty())
        options.goldenDir = options.root + "/golden";

    if (options.setupProbe) {
        const bool ok = options.workload == "sweep" ? setupSweep(options)
                                                    : setupGate(options);
        if (!ok)
            return 1;
        setupDone();
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage(argv[0], "--seed, --seconds and --trace are required");

    const std::string buildRoot = options.root + "/.bench_build";
    const std::string ownWorkDir =
        buildRoot + "/work/" + options.workload + "-" +
        std::to_string(static_cast<long>(getpid()));
    std::error_code ec;
    std::filesystem::create_directories(ownWorkDir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s\n", ownWorkDir.c_str());
        return 1;
    }
    options.workDir = ownWorkDir;
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);

    Tracer tracer(options.trace);
    const double refBefore = hostRefMs();
    const Usage usageBefore = usageNow();
    Report report = options.workload == "sweep" ? runSweep(options, tracer)
                                                : runGate(options, tracer);
    const Usage usageAfter = usageNow();
    if (!report.fatal.empty()) {
        std::fprintf(stderr, "perfbench %s: %s\n",
                     options.workload.c_str(), report.fatal.c_str());
        std::filesystem::remove_all(ownWorkDir, ec);
        return 1;
    }
    const double refAfter = hostRefMs();

    const double minorFaults = static_cast<double>(
        usageAfter.minorFaults - usageBefore.minorFaults);
    const double involCtx = static_cast<double>(
        usageAfter.involCtxSwitches - usageBefore.involCtxSwitches);
    char host[192];
    std::snprintf(host, sizeof host,
                  "# host ref_ms before=%.3f after=%.3f minor_faults=%.0f "
                  "invol_ctx_switches=%.0f wall_s=%.3f",
                  refBefore, refAfter, minorFaults, involCtx,
                  msSince(processStart) / 1000.0);
    report.notes.push_back(host);

    const auto &expected = options.trace ? kPerLayer : kEndToEnd;
    if (options.trace) {
        report.metrics.set("host.ref_ms", (refBefore + refAfter) / 2.0,
                           "ms");
        report.metrics.set("host.minor_faults", minorFaults, "count");
        report.metrics.set("host.invol_ctx_switches", involCtx, "count");
        // One file per workload, overwritten by its next traced run: a
        // long sweep trace is tens of MB.
        const std::string traceDir = buildRoot + "/traces";
        std::filesystem::create_directories(traceDir, ec);
        const std::string tracePath =
            traceDir + "/" + options.workload + ".json";
        if (tracer.writeChromeTrace(tracePath))
            report.notes.push_back("# trace: " +
                                   std::to_string(tracer.size()) +
                                   " spans written to " + tracePath);
        else
            report.notes.push_back("# trace NOT written: " + tracePath);
    } else {
        report.metrics.set("peak_rss_mb", usageAfter.maxRssMb, "MB");
    }
    std::filesystem::remove_all(ownWorkDir, ec);

    for (const std::string &note : report.notes)
        std::printf("%s\n", note.c_str());

    std::string json = "{\"correct\": ";
    json += report.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool complete = true;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &[name, unit] = expected[i];
        double value = 0.0;
        bool found = false;
        for (const Metric &m : report.metrics.all()) {
            if (m.name == name) {
                value = m.value;
                found = true;
            }
        }
        if (!found) {
            std::fprintf(stderr, "metric %s was not measured\n", name);
            complete = false;
        }
        json += std::string(i ? ", " : "") + "\"" + name +
                "\": {\"value\": " + jsonNumber(value) +
                ", \"unit\": \"" + unit + "\"}";
    }
    json += "}}";
    if (!complete)
        return 3;
    std::printf("%s\n", json.c_str());
    return 0;
}
