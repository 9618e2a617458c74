#include "mc/mc_metrics.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace fdp
{

double
weightedSpeedup(const std::vector<double> &speedups)
{
    double sum = 0.0;
    for (double s : speedups)
        sum += s;
    return sum;
}

double
harmonicSpeedup(const std::vector<double> &speedups)
{
    if (speedups.empty())
        return 0.0;
    double recip = 0.0;
    for (double s : speedups) {
        if (s <= 0.0)
            return 0.0;
        recip += 1.0 / s;
    }
    return static_cast<double>(speedups.size()) / recip;
}

double
fairnessMinMax(const std::vector<double> &speedups)
{
    if (speedups.empty())
        return 0.0;
    const auto [lo, hi] =
        std::minmax_element(speedups.begin(), speedups.end());
    return *hi > 0.0 ? *lo / *hi : 0.0;
}

void
finalizeSpeedups(McRunResult &r, const std::vector<double> &aloneIpc)
{
    if (aloneIpc.size() != r.cores.size())
        fatal("co-run %s/%s has %zu cores but %zu alone baselines",
              r.mix.c_str(), r.config.c_str(), r.cores.size(),
              aloneIpc.size());
    std::vector<double> speedups;
    speedups.reserve(r.cores.size());
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        McCoreResult &c = r.cores[i];
        c.aloneIpc = aloneIpc[i];
        c.speedup = ratio(c.ipc, aloneIpc[i]);
        speedups.push_back(*c.speedup);
    }
    r.weightedSpeedup = weightedSpeedup(speedups);
    r.harmonicSpeedup = harmonicSpeedup(speedups);
    r.fairness = fairnessMinMax(speedups);
}

} // namespace fdp
