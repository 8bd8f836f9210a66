#include "stats.hh"

namespace cenju
{

Counter &
StatGroup::counter(const std::string &name)
{
    for (auto &kv : _counters) {
        if (kv.first == name)
            return kv.second;
    }
    _counters.emplace_back(name, Counter());
    return _counters.back().second;
}

SampleStat &
StatGroup::sampleStat(const std::string &name)
{
    for (auto &kv : _samples) {
        if (kv.first == name)
            return kv.second;
    }
    _samples.emplace_back(name, SampleStat());
    return _samples.back().second;
}

} // namespace cenju
