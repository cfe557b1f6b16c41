#pragma once
// Continuous telemetry: obs::Recorder samples every registered metric slot on
// a sim-time cadence and keeps delta-encoded per-interval series —
//
//   counters   -> per-interval deltas (rates fall out of delta / width),
//   gauges     -> last value in the interval,
//   histograms -> per-interval distribution summaries (count, sum and
//                 interpolated p50/p90/p99/max from FixedHistogram
//                 bucket deltas — see FixedHistogram::delta_since).
//
// The Recorder itself never reads a clock and never touches thread-local
// state: the harness hands it an aggregated MetricSet snapshot plus the
// sim time of the sample (harness/testbed.cpp owns the sampling schedule —
// the driver's barrier hook, with a round ending at each due time in a
// one-kernel world),
// so recording is deterministic pure observation: digests are byte-identical
// with recording on or off, which tests/test_telemetry.cpp and the pinned
// sharded goldens enforce.
//
// Sample times need not be uniform: sharded barriers quantize the cadence to
// window edges, so every interval stores its actual end time and rate
// consumers (timeseries_json, the obs::slo evaluator) divide by the actual
// width. Exports: obs::timeseries_json (export.hpp) and Perfetto counter
// tracks appended to chrome_trace_json.

#include <cstdint>
#include <vector>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"

namespace focus::obs {

class Recorder {
 public:
  /// `interval` is the sampling cadence in simulated microseconds (> 0,
  /// FOCUS_CHECKed). The first interval covers (start, start + interval].
  explicit Recorder(Duration interval, SimTime start = 0);

  Duration interval() const noexcept { return interval_; }
  /// End time of the next unsampled interval: the harness runs the sim to
  /// this point (or its barrier at/after it) and calls sample().
  SimTime next_due() const noexcept {
    return (ends_.empty() ? start_ : ends_.back()) + interval_;
  }
  std::size_t num_intervals() const noexcept { return ends_.size(); }
  /// Actual end times of the recorded intervals (ascending; in sharded mode
  /// these are barrier times at/after each cadence tick, so widths vary).
  const std::vector<SimTime>& interval_ends() const noexcept { return ends_; }
  /// Width of interval `i` in µs (end minus previous end / start).
  Duration interval_width(std::size_t i) const {
    return ends_[i] - (i == 0 ? start_ : ends_[i - 1]);
  }

  /// One per-interval histogram summary.
  struct HistoPoint {
    std::uint64_t count = 0;
    double sum = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double max = 0;
  };

  /// Series for one scalar metric. A metric that first appears at interval
  /// `first` has points only from there on; earlier intervals are implicitly
  /// zero (the slot did not exist yet).
  struct ScalarTrack {
    MetricId id;
    bool gauge = false;       ///< last-value encoding instead of deltas
    std::size_t first = 0;    ///< index of the first recorded interval
    double last = 0;          ///< cumulative value at the latest sample
    std::vector<double> points;  ///< per interval: delta (counter) or value
  };

  /// Series for one histogram metric (same `first` convention).
  struct HistoTrack {
    MetricId id;
    std::size_t first = 0;
    FixedHistogram last;  ///< cumulative snapshot at the latest sample
    std::vector<HistoPoint> points;
  };

  const std::vector<ScalarTrack>& scalars() const noexcept { return scalars_; }
  const std::vector<HistoTrack>& histograms() const noexcept {
    return histos_;
  }

  /// Point of scalar track `t` at interval `i` (0 before the track's first
  /// interval). Bounds-checked convenience for evaluators/exporters.
  double scalar_point(const ScalarTrack& t, std::size_t i) const {
    return i < t.first ? 0 : t.points[i - t.first];
  }

  /// Close one interval ending at `at` (> the previous end, FOCUS_CHECKed)
  /// with `snapshot` = the cumulative aggregated metrics at `at`. Touched
  /// slots are visited in id order, so the track layout is deterministic.
  /// Hot-annotated so focus-lint holds the sampling path to hot-path hygiene
  /// (no string machinery — names are only resolved at export time).
  void sample(const MetricSet& snapshot, SimTime at);

 private:
  Duration interval_;
  SimTime start_;
  std::vector<SimTime> ends_;
  std::vector<ScalarTrack> scalars_;
  std::vector<HistoTrack> histos_;
  // MetricId.value() -> track index (kNoTrack when unseen), per slot type.
  std::vector<std::uint32_t> scalar_track_of_;
  std::vector<std::uint32_t> histo_track_of_;
};

}  // namespace focus::obs
