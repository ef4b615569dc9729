#include "sink.hh"

#include <algorithm>

namespace specsec::campaign
{

void
OutcomeSink::begin(const CampaignHeader &)
{
}

void
OutcomeSink::end(const CampaignFooter &)
{
}

OutcomeFanOut::OutcomeFanOut(const ExpandedGrid &grid,
                             const std::vector<std::size_t> &gridIndices,
                             std::vector<OutcomeSink *> sinks)
    : grid_(grid), sinks_(std::move(sinks))
{
    // Count each unique position's points, turn the counts of the
    // backed positions into offsets, then place every point; the
    // points arrive ascending, so each execution's stay ascending.
    std::vector<std::size_t> next(grid.uniqueIndices.size(), 0);
    for (const std::size_t e : gridIndices)
        ++next[grid.dupOf[e]];
    const std::size_t executions = static_cast<std::size_t>(
        next.size() - std::count(next.begin(), next.end(), 0));
    scenarios_.reserve(executions);
    first_.reserve(executions + 1);
    first_.push_back(0);
    for (std::size_t p = 0; p < next.size(); ++p) {
        if (next[p] == 0)
            continue;
        scenarios_.push_back(grid.uniqueIndices[p]);
        const std::size_t begin = first_.back();
        first_.push_back(begin + next[p]);
        next[p] = begin;
    }
    points_.resize(gridIndices.size());
    for (const std::size_t e : gridIndices)
        points_[next[grid.dupOf[e]]++] = e;
}

void
OutcomeFanOut::emit(std::size_t n, ScenarioOutcome outcome) const
{
    for (std::size_t i = first_[n]; i < first_[n + 1]; ++i) {
        const Scenario &point = grid_.expanded[points_[i]];
        outcome.variant = point.variant;
        outcome.row = point.row;
        outcome.col = point.col;
        outcome.gridIndex = point.gridIndex;
        outcome.rowLabel = point.rowLabel;
        outcome.colLabel = point.colLabel;
        outcome.config = point.config;
        outcome.options = point.options;
        for (OutcomeSink *sink : sinks_)
            sink->consume(outcome);
    }
}

void
ReportSink::begin(const CampaignHeader &header)
{
    std::lock_guard<std::mutex> lock(mutex_);
    report_ = CampaignReport{};
    static_cast<RunInfo &>(report_) = header;
    slots_.assign(header.gridIndices.size(), std::nullopt);
    slotOf_.clear();
    slotOf_.reserve(header.gridIndices.size());
    for (std::size_t i = 0; i < header.gridIndices.size(); ++i)
        slotOf_.emplace(header.gridIndices[i], i);
}

void
ReportSink::consume(const ScenarioOutcome &outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slotOf_.find(outcome.gridIndex);
    if (it == slotOf_.end())
        return; // not announced in begin(); drop rather than corrupt
    slots_[it->second] = outcome;
}

void
ReportSink::end(const CampaignFooter &footer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    report_.outcomes.clear();
    report_.outcomes.reserve(slots_.size());
    // Slots are ordered by the header's ascending gridIndices, so
    // this flush is the deterministic grid order regardless of the
    // completion order consume() observed.
    for (std::optional<ScenarioOutcome> &slot : slots_)
        if (slot)
            report_.outcomes.push_back(std::move(*slot));
    slots_.clear();
    slotOf_.clear();
    static_cast<RunCounters &>(report_) = footer;
    report_.recomputeCells();
}

void
ProgressSink::begin(const CampaignHeader &header)
{
    std::lock_guard<std::mutex> lock(mutex_);
    name_ = header.name;
    if (header.shardCount > 1) {
        char buf[48];
        std::snprintf(buf, sizeof buf, " [shard %zu/%zu]",
                      header.shardIndex, header.shardCount);
        name_ += buf;
    }
    total_ = header.gridIndices.size();
    done_ = 0;
    render(0);
}

void
ProgressSink::consume(const ScenarioOutcome &)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    if (done_ % every_ == 0 || done_ == total_)
        render(done_);
}

void
ProgressSink::end(const CampaignFooter &footer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    render(done_);
    if (out_)
        std::fprintf(out_,
                     "  (%zu executed, %zu cached, %.1f ms)\n",
                     footer.executedCount, footer.cacheHits,
                     footer.wallMillis);
}

std::size_t
ProgressSink::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

void
ProgressSink::render(std::size_t done)
{
    if (!out_)
        return;
    std::fprintf(out_, "\r%s: %zu/%zu scenarios", name_.c_str(),
                 done, total_);
    std::fflush(out_);
}

} // namespace specsec::campaign
