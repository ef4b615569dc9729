/**
 * @file
 * Incremental campaign export: OutcomeSinks that write JSONL / CSV
 * records to a stream as scenario executions complete, instead of
 * serializing a collected CampaignReport afterwards.  This is how
 * very large grids export without holding every outcome in memory,
 * and how long runs leave a usable partial export behind when
 * interrupted.
 *
 * Both sinks write records in deterministic grid order even though
 * outcomes arrive in completion order: an in-order release window
 * (indexed by the run's announced gridIndices) buffers early
 * arrivals and flushes every consecutive record as soon as its
 * predecessors land.  Memory is bounded by the completion-order
 * skew, not the grid size.  The streamed bytes are identical to the
 * batch exporters by construction — both sides share the per-record
 * formatters in schema.hh:
 *
 *     CsvStreamSink   == tool::campaignCsv(report, timing)
 *     JsonlStreamSink == tool::campaignJsonl(report, timing)
 */

#ifndef SPECSEC_TOOL_STREAM_EXPORT_HH
#define SPECSEC_TOOL_STREAM_EXPORT_HH

#include <mutex>
#include <ostream>
#include <unordered_map>

#include "campaign/sink.hh"

namespace specsec::tool
{

/**
 * JSONL rendering of a campaign, one self-describing record per
 * line: a "header" record (spec name, labels, grid shape, shard),
 * then one "outcome" record per grid cell in grid order — each the
 * same object campaignJson() puts in its outcomes array — and, only
 * when @p include_timing is set, a closing "summary" record with
 * the run's provenance (executed/cached/wall).  Timing-free output
 * is a pure function of the spec, like every other export.
 */
std::string campaignJsonl(const campaign::CampaignReport &report,
                          bool include_timing = false);

/**
 * The exact header line (trailing '\n' included) JsonlStreamSink
 * and campaignJsonl() write — exposed so a resuming client
 * (src/serve/client.hh) can validate a killed run's replayed prefix
 * against what a fresh run would have written, byte for byte.
 */
std::string jsonlHeaderRecord(const campaign::RunInfo &run);

/**
 * Grid-order release window shared by the streaming exporters:
 * subclasses only say how to render a header, one outcome, and a
 * footer; arrival-order buffering and in-order release live here.
 */
class OrderedStreamSink : public campaign::OutcomeSink
{
  public:
    void begin(const campaign::CampaignHeader &header) final;
    void consume(const campaign::ScenarioOutcome &outcome) final;
    void end(const campaign::CampaignFooter &footer) final;

    /** Records buffered right now (test/diagnostic hook). */
    std::size_t bufferedNow() const;

  protected:
    virtual void
    writeHeader(const campaign::CampaignHeader &header) = 0;
    virtual void
    writeOutcome(const campaign::ScenarioOutcome &outcome) = 0;
    virtual void writeFooter(const campaign::CampaignFooter &footer);

  private:
    mutable std::mutex mutex_;
    /// Release position of each announced gridIndex.
    std::unordered_map<std::size_t, std::size_t> seqOf_;
    /// Early arrivals keyed by release position, erased on flush —
    /// the buffer holds only the reorder skew, never the grid.
    std::unordered_map<std::size_t, campaign::ScenarioOutcome>
        pending_;
    std::size_t next_ = 0;
    std::size_t total_ = 0;
};

/** Streams campaignCsv() bytes: header line, then ordered rows. */
class CsvStreamSink final : public OrderedStreamSink
{
  public:
    explicit CsvStreamSink(std::ostream &out,
                           bool include_timing = false)
        : out_(out), timing_(include_timing)
    {
    }

  protected:
    void writeHeader(const campaign::CampaignHeader &) override;
    void writeOutcome(const campaign::ScenarioOutcome &o) override;

  private:
    std::ostream &out_;
    bool timing_;
};

/** Streams campaignJsonl() bytes. */
class JsonlStreamSink final : public OrderedStreamSink
{
  public:
    /**
     * @p suppress_header skips the header line: a resumed run
     * appends to a file whose header (and outcome prefix) already
     * exist, announcing only the still-missing gridIndices in its
     * begin() header.
     */
    explicit JsonlStreamSink(std::ostream &out,
                             bool include_timing = false,
                             bool suppress_header = false)
        : out_(out), timing_(include_timing),
          suppress_header_(suppress_header)
    {
    }

  protected:
    void writeHeader(const campaign::CampaignHeader &h) override;
    void writeOutcome(const campaign::ScenarioOutcome &o) override;
    void writeFooter(const campaign::CampaignFooter &f) override;

  private:
    std::ostream &out_;
    bool timing_;
    bool suppress_header_ = false;
    unsigned workers_ = 1; ///< from the header, for the summary line
};

} // namespace specsec::tool

#endif // SPECSEC_TOOL_STREAM_EXPORT_HH
