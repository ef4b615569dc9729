/**
 * @file
 * Span recorder (Chrome trace-event output, self-time aggregation),
 * the timed phase's block timeline, and the small statistics helpers
 * the workloads share.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "perfbench.hh"

namespace perfbench
{

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

Timeline::Timeline(std::size_t expectedOps) : opMs_(expectedOps, 0.0f) {}

Clock::time_point
Timeline::beginBlock()
{
    blocks_.push_back({});
    blocks_.back().firstOp = opCount_;
    blockStart_ = Clock::now();
    return blockStart_;
}

void
Timeline::addOp(double ms, std::uint64_t cycles)
{
    if (opCount_ < opMs_.size())
        opMs_[opCount_] = static_cast<float>(ms);
    else
        opMs_.push_back(static_cast<float>(ms));
    ++opCount_;
    ++blocks_.back().ops;
    blocks_.back().cycles += cycles;
}

Clock::time_point
Timeline::endBlock()
{
    const auto end = Clock::now();
    blocks_.back().ms = msBetween(blockStart_, end);
    return end;
}

std::vector<double>
Timeline::best(std::size_t from, std::size_t to) const
{
    std::vector<double> best(blocks_.empty() ? 0 : blocks_[0].ops, 1e300);
    for (std::size_t i = from; i < to; ++i)
        for (std::size_t k = 0; k < best.size() && k < blocks_[i].ops; ++k)
            best[k] = std::min(best[k], static_cast<double>(
                                            opMs_[blocks_[i].firstOp + k]));
    return best;
}

void
Timeline::report(Report &rep, bool endToEnd) const
{
    const std::vector<double> fast = best(0, blocks_.size());
    double fastMs = 0.0;
    for (const double ms : fast)
        fastMs += ms;
    if (endToEnd && fastMs > 0.0) {
        Metrics &out = rep.metrics;
        out.set("ops_per_s", 1000.0 * static_cast<double>(fast.size()) /
                                 fastMs,
                "1/s");
        out.set("op_ms_p50", quantile(fast, 0.5), "ms");
        out.set("op_ms_p90", quantile(fast, 0.9), "ms");
        out.set("guest_cycles_per_s",
                1000.0 * static_cast<double>(blocks_[0].cycles) / fastMs,
                "1/s");
    }

    double allMs = 0.0;
    std::uint64_t allCycles = 0;
    for (const Block &b : blocks_) {
        allMs += b.ms;
        allCycles += b.cycles;
    }
    const std::vector<double> allLatency(
        opMs_.begin(),
        opMs_.begin() +
            static_cast<long>(std::min(opCount_, opMs_.size())));
    char line[320];
    std::snprintf(line, sizeof line,
                  "# best of %zu rounds for each of %zu op slots; whole "
                  "phase: %zu ops, %.6g ops/s, p50 %.6g ms, p90 %.6g ms, "
                  "%.6g guest cycles/s",
                  blocks_.size(), fast.size(), opCount_,
                  allMs > 0.0 ? 1000.0 * static_cast<double>(opCount_) /
                                    allMs
                              : 0.0,
                  quantile(allLatency, 0.5), quantile(allLatency, 0.9),
                  allMs > 0.0
                      ? 1000.0 * static_cast<double>(allCycles) / allMs
                      : 0.0);
    rep.notes.push_back(line);

    // Halves of fewer rounds are too short to rise above the host's
    // noise.
    const std::size_t half = blocks_.size() / 2;
    if (half < 3) {
        rep.notes.push_back("# drift: not checked (fewer than 6 rounds)");
        return;
    }
    double firstMs = 0.0, lastMs = 0.0;
    for (const double ms : best(0, half))
        firstMs += ms;
    for (const double ms : best(blocks_.size() - half, blocks_.size()))
        lastMs += ms;
    const double drift = firstMs > 0.0 ? lastMs / firstMs - 1.0 : 0.0;
    std::snprintf(line, sizeof line,
                  "# drift: a round of the last half's best op times "
                  "takes %+.1f%% against the first half's (%zu rounds "
                  "each; bound %+.0f%%)",
                  100.0 * drift, half, 100.0 * kDriftBound);
    rep.notes.push_back(line);
    if (drift > kDriftFail) {
        for (std::size_t i = blocks_.size() - half; i < blocks_.size(); ++i)
            rep.failed += blocks_[i].ops;
        rep.notes.push_back("# drift: the last half's ops count as failed");
    } else if (drift > kDriftBound) {
        rep.notes.push_back("# drift: FLAGGED, past the bound (a host "
                            "phase alone has reached +58%)");
    }
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

std::uint32_t
Tracer::record(const char *category, const char *name,
               std::uint64_t op, Clock::time_point start,
               Clock::time_point end, std::uint32_t parent)
{
    if (!enabled_)
        return kNoParent;
    const auto ns = [this](Clock::time_point t) {
        return static_cast<std::int64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - epoch_)
                .count());
    };
    const std::uint64_t tid = std::hash<std::thread::id>{}(
        std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = threads_.emplace(
        tid, static_cast<std::uint32_t>(threads_.size()));
    (void)fresh;
    spans_.push_back({category, name, op, ns(start), ns(end), parent,
                      it->second});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
Tracer::close(std::uint32_t id, Clock::time_point end)
{
    if (!enabled_ || id == kNoParent)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].endNs = static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             epoch_)
            .count());
}

std::vector<double>
Tracer::childMs() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent != kNoParent && s.parent < spans_.size())
            child[s.parent] +=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
    return child;
}

std::map<std::string, Tracer::Totals>
Tracer::totals(const char *category) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> child = childMs();
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (std::string(s.category) != category)
            continue;
        Totals &t = out[s.name];
        const double ms =
            static_cast<double>(s.endNs - s.startNs) / 1e6;
        ++t.count;
        t.totalMs += ms;
        t.selfMs += ms - child[i];
    }
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"op\": %llu, \"parent\": %lld}}",
                     i ? "," : "", s.name, s.category, s.thread,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     i, static_cast<unsigned long long>(s.op),
                     s.parent == kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
