/**
 * @file
 * Mix sweep runner: one workload mix under several co-run
 * configurations, with the single-core alone baselines needed for
 * weighted/harmonic speedup, fanned out over the harness sweep pool.
 *
 * Determinism contract (DESIGN.md §10): every cell — co-run or alone
 * baseline — is an independent simulated machine whose workload seeds
 * are pure functions of the mix definition, so the result tables are
 * bit-identical for any --jobs value and across repeated runs. The
 * sweep-throughput line goes to stderr only.
 */

#ifndef FDP_MC_MIX_RUNNER_HH
#define FDP_MC_MIX_RUNNER_HH

#include <string>
#include <vector>

#include "harness/reporting.hh"
#include "mc/mc_machine.hh"
#include "mc/mc_metrics.hh"
#include "sim/table.hh"

namespace fdp
{

/** One labeled co-run configuration column of a mix sweep. */
struct McLabeledConfig
{
    std::string label;
    McRunConfig config;
};

/**
 * Run @p mix under every configuration, plus one alone-baseline run
 * per distinct per-core program per configuration (under the same
 * configuration, on an idle machine), and finalize the speedup
 * metrics. results[c] is @p configs[c]'s co-run, in argument order.
 * Cells fan out over @p jobs worker threads (0 = defaultSweepJobs(),
 * 1 = one worker running the cells in turn).
 */
std::vector<McRunResult> runMixSweep(const MixSpec &mix,
                                     const std::vector<McLabeledConfig> &configs,
                                     unsigned jobs = 0);

/**
 * Per-core detail table: one row per (configuration, core) with
 * shared IPC, speedup vs alone, bandwidth share, and pollution
 * attribution.
 */
Table buildMixCoreTable(const std::vector<McRunResult> &results);

/**
 * Headline table: one row per configuration with weighted speedup,
 * harmonic speedup, fairness, total throughput, and bus traffic.
 */
Table buildMixSummaryTable(const std::vector<McRunResult> &results);

/**
 * Append every metric of one co-run to an fdp-results-v1 document.
 * The speedup and fairness keys are emitted only when every core has
 * an alone baseline (aloneIpc > 0), as runMixSweep results do; a bare
 * runMix result carries none.
 */
void addMcRunResult(ResultsJson &json, const McRunResult &r);

} // namespace fdp

#endif // FDP_MC_MIX_RUNNER_HH
