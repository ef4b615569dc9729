#include "stream_export.hh"

#include <sstream>

#include "report.hh"
#include "schema.hh"

namespace specsec::tool
{

namespace
{

std::string
num(double value)
{
    return formatDouble(value, DoubleStyle::Fixed4);
}

std::string
jsonlSummaryLine(const campaign::RunCounters &counters, unsigned workers)
{
    std::ostringstream os;
    os << "{\"type\": \"summary\", \"executedCount\": "
       << counters.executedCount
       << ", \"cacheHits\": " << counters.cacheHits
       << ", \"workers\": " << workers
       << ", \"wallMillis\": " << num(counters.wallMillis)
       << ", \"scenariosPerSecond\": "
       << num(counters.scenariosPerSecond()) << "}\n";
    return os.str();
}

std::string
jsonlOutcomeLine(const campaign::ScenarioOutcome &o,
                 bool include_timing)
{
    std::string out = "{\"type\": \"outcome\", \"record\": ";
    out += outcomeJson(o, include_timing);
    out += "}\n";
    return out;
}

} // namespace

std::string
jsonlHeaderRecord(const campaign::RunInfo &run)
{
    std::ostringstream os;
    os << "{\"type\": \"header\", \"name\": \"" << jsonEscape(run.name)
       << "\", \"expandedCount\": " << run.expandedCount
       << ", \"uniqueCount\": " << run.uniqueCount
       << ", \"shardIndex\": " << run.shardIndex
       << ", \"shardCount\": " << run.shardCount
       << ", \"rows\": " << jsonStringArray(run.rowLabels)
       << ", \"cols\": " << jsonStringArray(run.colLabels) << "}\n";
    return os.str();
}

std::string
campaignJsonl(const campaign::CampaignReport &report,
              bool include_timing)
{
    std::string out = jsonlHeaderRecord(report);
    for (const campaign::ScenarioOutcome &o : report.outcomes)
        out += jsonlOutcomeLine(o, include_timing);
    if (include_timing)
        out += jsonlSummaryLine(report, report.workers);
    return out;
}

void
OrderedStreamSink::begin(const campaign::CampaignHeader &header)
{
    std::lock_guard<std::mutex> lock(mutex_);
    seqOf_.clear();
    seqOf_.reserve(header.gridIndices.size());
    for (std::size_t i = 0; i < header.gridIndices.size(); ++i)
        seqOf_.emplace(header.gridIndices[i], i);
    pending_.clear();
    next_ = 0;
    total_ = header.gridIndices.size();
    writeHeader(header);
}

void
OrderedStreamSink::consume(const campaign::ScenarioOutcome &outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = seqOf_.find(outcome.gridIndex);
    if (it == seqOf_.end())
        return; // not announced in begin(); drop
    const std::size_t seq = it->second;
    if (seq != next_) {
        pending_.emplace(seq, outcome);
        return;
    }
    // In order: release it and every consecutive buffered record.
    writeOutcome(outcome);
    ++next_;
    for (auto hit = pending_.find(next_); hit != pending_.end();
         hit = pending_.find(next_)) {
        writeOutcome(hit->second);
        pending_.erase(hit);
        ++next_;
    }
}

void
OrderedStreamSink::end(const campaign::CampaignFooter &footer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Every announced record has been released (the engine emits
    // each exactly once); flush any stragglers defensively so a
    // buggy producer still yields a complete, ordered file.
    while (next_ < total_ && !pending_.empty()) {
        const auto hit = pending_.find(next_);
        if (hit != pending_.end()) {
            writeOutcome(hit->second);
            pending_.erase(hit);
        }
        ++next_;
    }
    writeFooter(footer);
}

std::size_t
OrderedStreamSink::bufferedNow() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

void
OrderedStreamSink::writeFooter(const campaign::CampaignFooter &)
{
}

void
CsvStreamSink::writeHeader(const campaign::CampaignHeader &)
{
    out_ << campaignCsvHeader(timing_);
}

void
CsvStreamSink::writeOutcome(const campaign::ScenarioOutcome &o)
{
    out_ << campaignCsvRow(o, timing_);
}

void
JsonlStreamSink::writeHeader(const campaign::CampaignHeader &h)
{
    workers_ = h.workers;
    if (!suppress_header_)
        out_ << jsonlHeaderRecord(h);
}

void
JsonlStreamSink::writeOutcome(const campaign::ScenarioOutcome &o)
{
    out_ << jsonlOutcomeLine(o, timing_);
}

void
JsonlStreamSink::writeFooter(const campaign::CampaignFooter &f)
{
    if (timing_)
        out_ << jsonlSummaryLine(f, workers_);
    out_ << std::flush;
}

} // namespace specsec::tool
