#include "sim/stats.hh"

#include <iomanip>
#include <numeric>
#include <ostream>

#include "sim/logging.hh"

namespace fdp
{

ScalarStat::ScalarStat(StatGroup *group, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (group != nullptr)
        group->scalars_.push_back(this);
}

DistributionStat::DistributionStat(StatGroup &group, std::string name,
                                   std::string desc, std::size_t buckets)
    : name_(std::move(name)), desc_(std::move(desc)), buckets_(buckets, 0)
{
    group.distributions_.push_back(this);
}

void
DistributionStat::sample(std::size_t bucket, std::uint64_t count)
{
    if (bucket >= buckets_.size())
        panic("distribution %s: bucket %zu out of %zu", name_.c_str(),
              bucket, buckets_.size());
    buckets_[bucket] += count;
}

std::uint64_t
DistributionStat::total() const
{
    return std::accumulate(buckets_.begin(), buckets_.end(),
                           std::uint64_t{0});
}

double
DistributionStat::fraction(std::size_t i) const
{
    const std::uint64_t sum = total();
    return sum == 0 ? 0.0
                    : static_cast<double>(buckets_.at(i)) /
                          static_cast<double>(sum);
}

void
DistributionStat::reset()
{
    for (auto &b : buckets_)
        b = 0;
}

void
StatGroup::dump(std::ostream &out) const
{
    for (const auto *s : scalars_) {
        out << name_ << '.' << std::setw(32) << std::left << s->name()
            << ' ' << std::setw(12) << std::right << s->value() << "  # "
            << s->desc() << '\n';
    }
    for (const auto *d : distributions_) {
        for (std::size_t i = 0; i < d->numBuckets(); ++i) {
            out << name_ << '.' << d->name() << '[' << i << "] "
                << std::setw(12) << std::right << d->bucket(i) << "  # "
                << d->desc() << '\n';
        }
    }
}

void
StatGroup::resetAll()
{
    for (auto *s : scalars_)
        s->reset();
    for (auto *d : distributions_)
        d->reset();
}

void
StatGroup::saveState(SnapWriter &w) const
{
    w.beginSection(snapName());
    w.putU32(static_cast<std::uint32_t>(scalars_.size()));
    for (const auto *s : scalars_) {
        w.putString(s->name());
        w.putU64(s->value());
    }
    w.putU32(static_cast<std::uint32_t>(distributions_.size()));
    for (const auto *d : distributions_) {
        w.putString(d->name());
        w.putU32(static_cast<std::uint32_t>(d->numBuckets()));
        for (std::size_t i = 0; i < d->numBuckets(); ++i)
            w.putU64(d->bucket(i));
    }
    w.endSection();
}

void
StatGroup::loadState(SnapReader &r)
{
    r.openSection(snapName());
    const std::uint32_t nScalars = r.getU32();
    if (nScalars != scalars_.size())
        fatal("snapshot: stat group %s has %zu scalars, snapshot has %u",
              name_.c_str(), scalars_.size(), nScalars);
    for (auto *s : scalars_) {
        const std::string name = r.getString();
        if (name != s->name())
            fatal("snapshot: stat group %s expected scalar %s, found %s",
                  name_.c_str(), s->name().c_str(), name.c_str());
        s->reset();
        *s += r.getU64();
    }
    const std::uint32_t nDists = r.getU32();
    if (nDists != distributions_.size())
        fatal("snapshot: stat group %s has %zu distributions, snapshot "
              "has %u", name_.c_str(), distributions_.size(), nDists);
    for (auto *d : distributions_) {
        const std::string name = r.getString();
        if (name != d->name())
            fatal("snapshot: stat group %s expected distribution %s, "
                  "found %s", name_.c_str(), d->name().c_str(),
                  name.c_str());
        const std::uint32_t buckets = r.getU32();
        if (buckets != d->numBuckets())
            fatal("snapshot: distribution %s has %zu buckets, snapshot "
                  "has %u", d->name().c_str(), d->numBuckets(), buckets);
        d->reset();
        for (std::size_t i = 0; i < d->numBuckets(); ++i) {
            const std::uint64_t count = r.getU64();
            if (count != 0)
                d->sample(i, count);
        }
    }
    r.closeSection();
}

} // namespace fdp
