#include "tracer.hh"

#include <algorithm>

namespace perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Cpu: return "cpu";
      case Layer::Workload: return "workload";
      case Layer::Mem: return "mem";
      case Layer::Prefetch: return "prefetch";
      case Layer::Sim: return "sim";
      case Layer::Snap: return "snap";
    }
    return "?";
}

void
Tracer::merge(const Tracer &other)
{
    for (std::size_t i = 0; i < kNumLayers; ++i) {
        totals_[i].calls += other.totals_[i].calls;
        totals_[i].selfNs += other.totals_[i].selfNs;
    }
    prefetchCandidates += other.prefetchCandidates;
}

double
spanCostNs()
{
    constexpr int kSpans = 200'000;
    Tracer t;
    const std::int64_t start = nowNs();
    for (int i = 0; i < kSpans; ++i)
        Span s(t, Layer::Cpu);
    return static_cast<double>(nowNs() - start) / kSpans;
}

void
TimedPrefetcher::setAggressiveness(unsigned level)
{
    if (log_ != nullptr) {
        if (log_->full()) {
            ++log_->dropped;
        } else {
            PrefetchLog::Call c;
            c.kind = PrefetchLog::Kind::SetLevel;
            c.level = level;
            c.candEnd = log_->candidates.size();
            log_->calls.push_back(c);
        }
    }
    inner_.setAggressiveness(level);
}

void
TimedPrefetcher::reset()
{
    if (log_ != nullptr) {
        if (log_->full()) {
            ++log_->dropped;
        } else {
            PrefetchLog::Call c;
            c.kind = PrefetchLog::Kind::Reset;
            c.candEnd = log_->candidates.size();
            log_->calls.push_back(c);
        }
    }
    inner_.reset();
}

void
TimedPrefetcher::doObserve(const fdp::PrefetchObservation &obs,
                           std::vector<fdp::BlockAddr> &out,
                           std::size_t budget)
{
    const std::size_t before = out.size();
    {
        Span s(tracer_, Layer::Prefetch);
        inner_.observe(obs, out, budget);
    }
    tracer_.prefetchCandidates += out.size() - before;
    if (log_ == nullptr)
        return;
    if (log_->full()) {
        ++log_->dropped;
        return;
    }
    log_->candidates.insert(log_->candidates.end(), out.begin() + before,
                            out.end());
    PrefetchLog::Call c;
    c.kind = PrefetchLog::Kind::Observe;
    c.budget = budget;
    c.obs = obs;
    c.candEnd = log_->candidates.size();
    log_->calls.push_back(c);
}

namespace
{

/** Run every logged call against @p pf; when @p check, compare each
 *  observe's candidates with the recorded ones. */
bool
replayOnce(const PrefetchLog &log, fdp::Prefetcher &pf, bool check)
{
    std::vector<fdp::BlockAddr> out;
    std::size_t candBegin = 0;
    bool identical = true;
    for (const PrefetchLog::Call &c : log.calls) {
        switch (c.kind) {
          case PrefetchLog::Kind::SetLevel:
            pf.setAggressiveness(c.level);
            break;
          case PrefetchLog::Kind::Reset:
            pf.reset();
            break;
          case PrefetchLog::Kind::Observe:
            out.clear();
            pf.observe(c.obs, out, c.budget);
            if (check &&
                !std::equal(out.begin(), out.end(),
                            log.candidates.begin() +
                                static_cast<std::ptrdiff_t>(candBegin),
                            log.candidates.begin() +
                                static_cast<std::ptrdiff_t>(c.candEnd)))
                identical = false;
            break;
        }
        candBegin = c.candEnd;
    }
    return identical;
}

} // namespace

IsolatedReplay
replayIsolated(const PrefetchLog &log, const PrefetcherFactory &make,
               unsigned passes)
{
    IsolatedReplay r;
    for (const PrefetchLog::Call &c : log.calls)
        if (c.kind == PrefetchLog::Kind::Observe)
            ++r.observes;
    {
        const std::unique_ptr<fdp::Prefetcher> pf = make();
        r.identical = replayOnce(log, *pf, true);
    }
    if (r.observes == 0)
        return r;
    std::vector<double> ns;
    for (unsigned p = 0; p < passes; ++p) {
        const std::unique_ptr<fdp::Prefetcher> pf = make();
        const std::int64_t start = nowNs();
        replayOnce(log, *pf, false);
        ns.push_back(static_cast<double>(nowNs() - start) /
                     static_cast<double>(r.observes));
    }
    std::sort(ns.begin(), ns.end());
    r.nsPerObserve = ns[ns.size() / 2];
    return r;
}

} // namespace perfbench
