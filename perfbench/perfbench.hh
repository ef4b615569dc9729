/**
 * @file
 * Shared pieces of the repository benchmark (see README.md here):
 * command-line options, seeded draws, the metric ledger, the timed
 * phase's block timeline, span tracing, host diagnostics, set-up
 * sampling, and the per-layer probes a traced run adds.
 *
 * The benchmark only calls the specsec library's public API; every
 * span is recorded from this directory's files around those calls.
 */

#ifndef SPECSEC_PERFBENCH_PERFBENCH_HH
#define SPECSEC_PERFBENCH_PERFBENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sink.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Child mode: run the workload's set-up only, report when it is
    /// done and exit (how setup_s is sampled).
    bool setupProbe = false;
    std::string root = ".";
    std::string goldenDir; ///< default: <root>/golden
    std::string workDir;   ///< work files; under <root>/.bench_build
};

/** Deterministic draws from the command-line seed (splitmix64). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n); n > 0. */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Sample quantile with linear interpolation; 0 for no samples. */
double quantile(std::vector<double> values, double q);

double median(const std::vector<double> &values);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Insertion-ordered metric ledger; set() overwrites by name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** What one workload run reports. */
struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Untraced run: the end-to-end metrics.  Traced run: the
    /// per-layer metrics.
    Metrics metrics;
    /// Human-readable lines printed before the result.
    std::vector<std::string> notes;
    /// Set when the workload could not run at all (missing inputs):
    /// the process then exits non-zero without a result.
    std::string fatal;
};

/**
 * Host speed reference: a fixed sort + hash-map kernel (such work
 * follows the host's slow phases; a pure ALU loop barely moves),
 * median of five runs, in ms.  Run before and after a workload, never
 * inside its timed phase, so a run in a slow host phase can be seen
 * as one.
 */
double hostRefMs();

/**
 * The drift check's limits on how much slower the last half of a
 * timed phase may run than its first half.  Past kDriftBound (the
 * end-to-end bound BENCHMARK.json gives every timing metric) a run is
 * flagged; past kDriftFail (twice the time) its last half's ops count
 * as failed.  Host phases alone have moved one half against the other
 * by up to +58%, and single rounds of one run by at most 1.9x, so
 * only the flag can fire on unchanged code.
 */
constexpr double kDriftBound = 0.25;
constexpr double kDriftFail = 1.0;

/**
 * The timed phase as rounds of identical work: one sweep pass, or a
 * fixed number of gate passes.  Every round runs the same ops in the
 * same order, so op k of one round (its slot) repeats op k of every
 * other.  Work between rounds (set-up children) lies outside them.
 *
 * Op latencies live in storage touched up front, so their number
 * never shows in peak_rss_mb.
 */
class Timeline
{
  public:
    explicit Timeline(std::size_t expectedOps);

    /** Start a round; @return its start. */
    Clock::time_point beginBlock();
    void addOp(double ms, std::uint64_t cycles);
    /** End the round; @return its end. */
    Clock::time_point endBlock();

    std::size_t ops() const { return opCount_; }
    std::size_t blocks() const { return blocks_.size(); }

    /**
     * Sets ops_per_s, op_ms_p50, op_ms_p90 and guest_cycles_per_s
     * from each slot's best time over the rounds: the host these were
     * built on has slow phases that run the same work 1.3-1.7x slower
     * for seconds at a time, and a slot's best time is its work's own
     * speed.  ops_per_s is a round of best times (slots over their
     * sum), p50/p90 are taken over the slots.  Appends the whole
     * phase's figures and the drift check to @p rep.notes.
     *
     * Drift check: a round of the last half's best times against one
     * of the first half's, flagged past kDriftBound and failed past
     * kDriftFail, so a slowdown that grows within a run does not hide
     * behind the best times.
     */
    void report(Report &rep, bool endToEnd) const;

  private:
    struct Block
    {
        double ms = 0.0; ///< its first op's start to its last op's end
        std::uint64_t cycles = 0;
        std::size_t firstOp = 0, ops = 0;
    };

    /** Each slot's best ms over rounds [from, to). */
    std::vector<double> best(std::size_t from, std::size_t to) const;

    std::vector<float> opMs_;
    std::size_t opCount_ = 0;
    std::vector<Block> blocks_;
    Clock::time_point blockStart_{};
};

/**
 * In-memory span recorder, written out as Chrome trace-event JSON
 * when the workload ends.  Spans carry a name, start, end, parent
 * span and the op id shared by every span of one op; a category
 * separates the timed phase from probe work.  Disabled tracers record
 * nothing.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t kNoParent = 0xffffffffu;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a finished span; @return its id (kNoParent when off). */
    std::uint32_t record(const char *category, const char *name,
                         std::uint64_t op, Clock::time_point start,
                         Clock::time_point end,
                         std::uint32_t parent = kNoParent);

    /** Re-time a span recorded earlier (parents close last). */
    void close(std::uint32_t id, Clock::time_point end);

    /** Per-name totals of one category. */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0; ///< total minus child spans
    };
    std::map<std::string, Totals> totals(const char *category) const;

    std::size_t size() const;

    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *category;
        const char *name;
        std::uint64_t op;
        std::int64_t startNs;
        std::int64_t endNs;
        std::uint32_t parent;
        std::uint32_t thread;
    };

    std::vector<double> childMs() const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, std::uint32_t> threads_;
};

/** Resource usage of this process (getrusage). */
struct Usage
{
    long minorFaults = 0;
    long involCtxSwitches = 0;
    double maxRssMb = 0.0;
};
Usage usageNow();

/**
 * Samples setup_s: runs set-up-only children of this binary, each
 * timed from spawn until it reports its set-up done.  A few run
 * before the timed phase and more between its rounds, spread over
 * it, so the fastest of them (what value() reports) comes from the
 * same fast host phases as the timed figures.  A no-op in traced
 * runs.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(const Options &options) : options_(options) {}

    /** The children before the timed phase. */
    bool sampleBefore();
    /** One child when enough of the timed phase has passed since
     *  the last; @return false when it could not run. */
    bool sampleIfDue(double elapsedMs);

    double value() const
    {
        return samples_.empty()
                   ? 0.0
                   : *std::min_element(samples_.begin(), samples_.end());
    }
    std::size_t count() const { return samples_.size(); }

  private:
    bool sampleOne();

    const Options &options_;
    std::vector<double> samples_;
    double nextDueMs_ = 0.0;
};

/** Inputs of the per-layer probes (see probes.cc). */
struct ProbeInputs
{
    /// Cells judged by the verdict probe.
    std::vector<std::string> verdictKeys;
    /// The workload's results: saved and loaded by the persistence
    /// probe, and the daemon probe's --cache-file.
    const specsec::campaign::ResultCache *cache = nullptr;
};

/**
 * The per-layer probes, run untimed after a traced workload's timed
 * phase: channel-harness rounds on a baseline Cpu, lint over every
 * attack, the verdict backends over @p in.verdictKeys, persistence
 * round trips of @p in.cache, and an in-process daemon whose
 * --cache-file holds @p in.cache answering submits of 64 of its keys.
 * Fills the matching per-layer metrics; workloads overwrite the ones
 * their own timed phase measures directly.
 */
void runProbes(const Options &options, const ProbeInputs &in,
               Tracer &tracer, Metrics &out);

/** Per-pass deltas of the library's process-wide counters. */
struct CounterSnapshot
{
    std::uint64_t phaseCells = 0;
    std::uint64_t buildNs = 0, prologueNs = 0, teardownNs = 0,
                  totalNs = 0;
    std::uint64_t forked = 0, rebuilt = 0;
    std::uint64_t warmHits = 0, warmMisses = 0;

    static CounterSnapshot now();
    CounterSnapshot minus(const CounterSnapshot &before) const;
    std::uint64_t bodyNs() const;
};

/** Guest work summed over executed cells (exact). */
struct GuestWork
{
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    std::uint64_t squashed = 0;

    void add(const specsec::uarch::CpuStats &stats)
    {
        cycles += stats.cycles;
        committed += stats.committed;
        squashed += stats.squashed;
    }
};

/**
 * Report the uarch/attacks per-layer metrics from executed cells:
 * exact counters from @p round (one fixed round of the workload) and
 * @p roundWork, timings from @p timed / @p cellMs / @p timedWork.
 */
void setCellLayerMetrics(Metrics &out, const CounterSnapshot &round,
                         const GuestWork &roundWork,
                         const CounterSnapshot &timed,
                         const GuestWork &timedWork,
                         const std::vector<double> &cellMs);

/** The two workloads. */
Report runSweep(const Options &options, Tracer &tracer);
Report runGate(const Options &options, Tracer &tracer);

/**
 * Ends a set-up-only child: reports that set-up is complete and
 * exits at once (set-up state dies with it).
 */
[[noreturn]] void setupDone();

/** An ostream that discards what it is given, counting bytes. */
class CountingStream : public std::ostream
{
  public:
    CountingStream() : std::ostream(&buf_) {}
    std::uint64_t bytes() const { return buf_.bytes; }

  private:
    struct Buf : std::streambuf
    {
        std::uint64_t bytes = 0;
        int_type overflow(int_type c) override
        {
            if (c != traits_type::eof())
                ++bytes;
            return traits_type::not_eof(c);
        }
        std::streamsize xsputn(const char *, std::streamsize n) override
        {
            bytes += static_cast<std::uint64_t>(n);
            return n;
        }
    };
    Buf buf_;
};

/** Set-up-only entry points for SetupSampler's children. */
bool setupSweep(const Options &options);
bool setupGate(const Options &options);

} // namespace perfbench

#endif // SPECSEC_PERFBENCH_PERFBENCH_HH
