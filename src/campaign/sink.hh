/**
 * @file
 * OutcomeSink: the streaming consumer side of the campaign engine.
 *
 * CampaignEngine::run pushes every ScenarioOutcome into the caller's
 * sinks as its backing unique execution completes, instead of
 * collecting a whole CampaignReport in memory first.  That is what
 * lets very large grids export incrementally (src/tool/
 * stream_export.hh), report live progress, and fan out across
 * processes as shards whose reports merge afterwards.
 *
 * Contract, per engine run:
 *   - begin(header) once, from the driving thread, before any work;
 *     the header names the spec, the full-grid shape, and exactly
 *     which gridIndices this (shard of a) run will emit.
 *   - consume(outcome) once per grid point the run covers — from
 *     any worker thread, in completion order.  Implementations must
 *     be thread-safe; outcomes carry their gridIndex, so sinks that
 *     need grid order either reorder on the fly (stream_export) or
 *     place by index and flush ordered at end (ReportSink).
 *   - end(footer) once, from the driving thread, after the worker
 *     pool drains, with the run's provenance counters.
 */

#ifndef SPECSEC_CAMPAIGN_SINK_HH
#define SPECSEC_CAMPAIGN_SINK_HH

#include <cstdio>
#include <mutex>
#include <optional>

#include "campaign.hh"

namespace specsec::campaign
{

/**
 * Everything known about a run before the first cell executes: a
 * run record is this header, one outcome per announced grid point,
 * and a footer.
 */
struct CampaignHeader : RunInfo
{
    /// The expanded gridIndices this run will emit, ascending (grid
    /// order).  Covers the whole grid when shardCount == 1.
    std::vector<std::size_t> gridIndices;
};

/** Run provenance, known only after the worker pool drains. */
struct CampaignFooter : RunCounters
{
};

/**
 * The header a run of shard @p shard of @p spec announces, @p grid
 * being dedupGrid(spec).  The engine, the remote client and a resumed
 * run all build it here, so their headers are byte-identical.
 * @p workers is the executing side's pool size.
 */
CampaignHeader runHeader(const ScenarioSpec &spec,
                         const ExpandedGrid &grid, ShardRange shard,
                         unsigned workers);

/** Receives a run's outcomes as workers complete them. */
class OutcomeSink
{
  public:
    virtual ~OutcomeSink() = default;

    virtual void begin(const CampaignHeader &header);
    virtual void consume(const ScenarioOutcome &outcome) = 0;
    virtual void end(const CampaignFooter &footer);
};

/**
 * The unique executions behind a run's grid points, and the fan-out
 * that turns one execution's result into one ScenarioOutcome per
 * grid point it backs.  The engine and the remote client both stream
 * their outcomes through it.  @p grid must outlive it.
 *
 * Executions are three flat arrays filled by one counting pass over
 * the grid points, so building one costs a few allocations per run,
 * none per execution: execution n runs expanded[scenarios_[n]] and
 * backs points_[first_[n] .. first_[n + 1]).
 */
class OutcomeFanOut
{
  public:
    /** Back @p gridIndices (ascending positions into
     *  @p grid.expanded), streaming into @p sinks.  Any subset
     *  works (a shard, a resume's missing points): an execution is
     *  the uniqueIndices entry of a dupOf value some point has. */
    OutcomeFanOut(const ExpandedGrid &grid,
                  const std::vector<std::size_t> &gridIndices,
                  std::vector<OutcomeSink *> sinks);

    /** Unique executions, in ascending unique position. */
    std::size_t size() const { return scenarios_.size(); }

    /** The scenario execution @p n runs. */
    const Scenario &scenario(std::size_t n) const
    {
        return grid_.expanded[scenarios_[n]];
    }

    /**
     * Hand every sink one copy of @p outcome (result, stats, wall
     * time, verdict annotations) per grid point execution @p n
     * backs, each carrying that point's cell fields.  Safe from
     * worker threads, as the sinks are.
     */
    void emit(std::size_t n, ScenarioOutcome outcome) const;

  private:
    const ExpandedGrid &grid_;
    std::vector<OutcomeSink *> sinks_;
    /// Per execution: the index into expanded of the one it runs.
    std::vector<std::size_t> scenarios_;
    /// size() + 1 offsets into points_.
    std::vector<std::size_t> first_;
    /// Indices into expanded, each execution's ascending.
    std::vector<std::size_t> points_;
};

/**
 * The sink the classic collect-then-return API is built on:
 * accumulates a CampaignReport.  Outcomes are placed by gridIndex as
 * they arrive (any order, any thread) and flushed into grid order at
 * end(), so the finished report is byte-identical to what the
 * pre-streaming engine produced — including for shard runs, where
 * the report covers only the shard's grid points.
 */
class ReportSink : public OutcomeSink
{
  public:
    void begin(const CampaignHeader &header) override;
    void consume(const ScenarioOutcome &outcome) override;
    void end(const CampaignFooter &footer) override;

    /** Valid after end(). */
    const CampaignReport &report() const { return report_; }
    CampaignReport takeReport() { return std::move(report_); }

  private:
    std::mutex mutex_;
    CampaignReport report_;
    /// Slot per emitted grid point, indexed by position in the
    /// header's gridIndices list.
    std::vector<std::optional<ScenarioOutcome>> slots_;
    std::unordered_map<std::size_t, std::size_t> slotOf_;
};

/**
 * Live progress to a stream (default stderr): a counter line
 * rewritten in place every @p every completions and at the end.
 * Purely observational — attaches to any run without touching the
 * deterministic outputs.
 */
class ProgressSink : public OutcomeSink
{
  public:
    explicit ProgressSink(std::FILE *out = stderr,
                          std::size_t every = 16)
        : out_(out), every_(every == 0 ? 1 : every)
    {
    }

    void begin(const CampaignHeader &header) override;
    void consume(const ScenarioOutcome &outcome) override;
    void end(const CampaignFooter &footer) override;

    std::size_t completed() const;

  private:
    void render(std::size_t done);

    mutable std::mutex mutex_;
    std::FILE *out_;
    std::size_t every_;
    std::size_t total_ = 0;
    std::size_t done_ = 0;
    std::string name_;
};

} // namespace specsec::campaign

#endif // SPECSEC_CAMPAIGN_SINK_HH
