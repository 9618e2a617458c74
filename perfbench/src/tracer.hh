/**
 * @file
 * In-memory span tracer for the benchmark's traced runs.
 *
 * A span is opened around one call into a simulator layer (a core
 * step, a Workload::next, a demand access, a prefetcher observe, an
 * event-queue service call, a snapshot capture or restore). Spans nest
 * on one stack per tracer; a layer's self time is its spans' duration
 * minus the part their child spans cover. Nothing is written while the
 * simulation runs: totals are read once the run has ended.
 *
 * The decorators below put spans at the layer boundaries from outside,
 * through the simulator's public interfaces, so no simulator file
 * changes and every simulated statistic stays bit-identical.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/memory_port.hh"
#include "prefetch/prefetcher.hh"
#include "workload/workload.hh"

namespace perfbench
{

/** The simulator layers a span can be attributed to. */
enum class Layer : std::uint8_t
{
    Cpu,       ///< OooCore::step
    Workload,  ///< Workload::next (generator or trace decoder)
    Mem,       ///< MemoryPort::demandAccess (L1/L2/MSHR/DRAM enqueue)
    Prefetch,  ///< Prefetcher::observe
    Sim,       ///< EventQueue::serviceUntil (fills, DRAM grants)
    Snap,      ///< captureMachine / restoreMachine
};

inline constexpr std::size_t kNumLayers = 6;

/** Metric-name prefix of @p layer ("cpu", "workload", ...). */
const char *layerName(Layer layer);

/** Host monotonic clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-layer span totals of one traced run (single-threaded). */
class Tracer
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        std::int64_t selfNs = 0;
    };

    void
    open()
    {
        childNs_[depth_++] = 0;
    }

    void
    close(Layer layer, std::int64_t elapsed)
    {
        const std::int64_t child = childNs_[--depth_];
        Totals &t = totals_[static_cast<std::size_t>(layer)];
        ++t.calls;
        t.selfNs += elapsed - child;
        if (depth_ > 0)
            childNs_[depth_ - 1] += elapsed;
    }

    const Totals &
    totals(Layer layer) const
    {
        return totals_[static_cast<std::size_t>(layer)];
    }

    /** Add @p other's totals into this tracer (both must be idle). */
    void merge(const Tracer &other);

    /** Prefetch candidates the traced prefetchers produced. */
    std::uint64_t prefetchCandidates = 0;

  private:
    /** Deeper than any layer nesting the simulator produces
     *  (sim -> mem -> prefetch is the longest chain). */
    static constexpr std::size_t kMaxDepth = 16;

    std::array<Totals, kNumLayers> totals_{};
    std::array<std::int64_t, kMaxDepth> childNs_{};
    std::size_t depth_ = 0;
};

/** RAII span: times its scope into @p tracer under @p layer. */
class Span
{
  public:
    Span(Tracer &tracer, Layer layer)
        : tracer_(tracer), layer_(layer), start_(nowNs())
    {
        tracer_.open();
    }

    ~Span() { tracer_.close(layer_, nowNs() - start_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    Layer layer_;
    std::int64_t start_;
};

/** Host nanoseconds one empty span costs (open, two clock reads,
 *  close), measured over many spans. */
double spanCostNs();

/** Workload decorator: a span around every next(). */
class TimedWorkload : public fdp::Workload
{
  public:
    TimedWorkload(fdp::Workload &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    fdp::MicroOp
    next() override
    {
        Span s(tracer_, Layer::Workload);
        return inner_.next();
    }

    void reset() override { inner_.reset(); }
    const char *name() const override { return inner_.name(); }

  private:
    fdp::Workload &inner_;
    Tracer &tracer_;
};

/** MemoryPort decorator: a span around every demand access. */
class TimedPort : public fdp::MemoryPort
{
  public:
    TimedPort(fdp::MemoryPort &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    demandAccess(fdp::Addr addr, fdp::Addr pc, bool isWrite,
                 fdp::Cycle now, fdp::DoneFn done) override
    {
        Span s(tracer_, Layer::Mem);
        inner_.demandAccess(addr, pc, isWrite, now, std::move(done));
    }

  private:
    fdp::MemoryPort &inner_;
    Tracer &tracer_;
};

/**
 * Everything one prefetcher instance was asked to do, in order: each
 * observation with its budget and the candidates it produced, and the
 * interleaved aggressiveness changes and resets. Replaying the calls
 * into a fresh prefetcher of the same kind must yield the identical
 * candidate sequence.
 */
struct PrefetchLog
{
    enum class Kind : std::uint8_t { Observe, SetLevel, Reset };

    struct Call
    {
        Kind kind = Kind::Observe;
        unsigned level = 0;
        std::size_t budget = 0;
        fdp::PrefetchObservation obs{};
        /** End of this call's candidates in `candidates`. */
        std::size_t candEnd = 0;
    };

    /** Calls recorded before recording stops (bounds host memory). */
    std::size_t capacity = 0;
    std::vector<Call> calls;
    std::vector<fdp::BlockAddr> candidates;
    /** Calls that arrived after the log was full. */
    std::uint64_t dropped = 0;

    bool full() const { return calls.size() >= capacity; }
};

/**
 * Prefetcher decorator: a span around every observe(), and (when given
 * a log) a record of every call the machine makes into the prefetcher.
 * The FDP controller and the memory system both hold this decorator,
 * so every aggressiveness change reaches the log.
 */
class TimedPrefetcher : public fdp::Prefetcher
{
  public:
    TimedPrefetcher(fdp::Prefetcher &inner, Tracer &tracer,
                    PrefetchLog *log)
        : inner_(inner), tracer_(tracer), log_(log)
    {
    }

    void setAggressiveness(unsigned level) override;
    unsigned aggressiveness() const override
    {
        return inner_.aggressiveness();
    }
    const char *name() const override { return inner_.name(); }
    void reset() override;

    void audit() const override { inner_.audit(); }
    void saveState(fdp::SnapWriter &w) const override
    {
        inner_.saveState(w);
    }
    void loadState(fdp::SnapReader &r) override { inner_.loadState(r); }

  protected:
    void doObserve(const fdp::PrefetchObservation &obs,
                   std::vector<fdp::BlockAddr> &out,
                   std::size_t budget) override;

  private:
    fdp::Prefetcher &inner_;
    Tracer &tracer_;
    PrefetchLog *log_;
};

/** Result of replaying a PrefetchLog into a fresh prefetcher. */
struct IsolatedReplay
{
    bool identical = false;
    std::uint64_t observes = 0;
    /** Median host ns per observe over the timed replay passes. */
    double nsPerObserve = 0.0;
};

/** Builds a fresh prefetcher of the kind and start level the traced
 *  machine used. */
using PrefetcherFactory = std::function<std::unique_ptr<fdp::Prefetcher>()>;

/**
 * Replay @p log into fresh prefetchers from @p make. The first pass
 * checks the candidate sequence against the recorded one; then
 * @p passes timed passes, each on a new instance, measure the observe
 * cost with one clock read per pass instead of per call.
 */
IsolatedReplay replayIsolated(const PrefetchLog &log,
                              const PrefetcherFactory &make,
                              unsigned passes);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
