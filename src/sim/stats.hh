/**
 * @file
 * Lightweight statistics package: counters and sample statistics.
 *
 * Each component declares its statistics once, as plain fields of
 * one block struct (MasterStats, HomeStats, NetStats, ...), so one
 * assignment resets a block and readers use the fields directly.
 * StatGroup is the by-name view for reports that look statistics up
 * by name (Transport::stats()).
 */

#ifndef CENJU_SIM_STATS_HH
#define CENJU_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>

namespace cenju
{

/** Monotonic event counter. */
class Counter
{
  public:
    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }
    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/** Running sample statistics (count / min / max / mean / stddev). */
class SampleStat
{
  public:
    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _sumSq += v * v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    double
    stddev() const
    {
        if (_count < 2)
            return 0.0;
        double n = static_cast<double>(_count);
        double var = (_sumSq - _sum * _sum / n) / (n - 1);
        return var > 0 ? std::sqrt(var) : 0.0;
    }

    /** Merge another sample set into this one. */
    void
    merge(const SampleStat &o)
    {
        _count += o._count;
        _sum += o._sum;
        _sumSq += o._sumSq;
        _min = std::min(_min, o._min);
        _max = std::max(_max, o._max);
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** A named bag of statistics: the by-name view of one block. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    Counter &counter(const std::string &name);
    SampleStat &sampleStat(const std::string &name);

    const std::string &name() const { return _name; }

    /**
     * Registration-ordered (name, statistic) pairs. A deque, not a
     * vector or Ring: counter() and sampleStat() hand out references
     * that must stay valid as later statistics register.
     */
    template <typename S>
    // cenju-lint: allow(A006): needs reference stability; a cold,
    // report-only path that no simulated event touches.
    using Registry = std::deque<std::pair<std::string, S>>;

    /** All counters, in registration order. */
    const Registry<Counter> &
    counters() const
    {
        return _counters;
    }

    /** All sample statistics, in registration order. */
    const Registry<SampleStat> &
    sampleStats() const
    {
        return _samples;
    }

  private:
    std::string _name;
    Registry<Counter> _counters;
    Registry<SampleStat> _samples;
};

} // namespace cenju

#endif // CENJU_SIM_STATS_HH
