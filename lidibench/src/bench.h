// Shared pieces of the end-to-end benchmark: the run configuration, the
// result every workload fills in, the benchmark's own input generators
// (independent of src/workload, so a change there cannot change the inputs),
// and small measurement helpers.
#ifndef LIDIBENCH_BENCH_H_
#define LIDIBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace lidibench {

class Tracer;

/// Monotonic nanoseconds; every timestamp in the benchmark uses this clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// Non-null in the traced run: tiers are wired through a TimedTransport
  /// and tier calls are timed.
  Tracer* tracer = nullptr;
  /// Private scratch directory of this run (logs, binlogs); removed at exit.
  std::string data_dir;
  /// When the process entered main(): set-up time is measured from here.
  int64_t process_start_ns = 0;
  /// Load threads never exceed this (the host's core count).
  int max_threads = 4;
};

/// What a workload reports. End-to-end figures come from `window_*`,
/// `latencies_ns` and the set-up marks; per-layer ratios the workload counts
/// itself go into `layer` (the traced run adds span and registry figures).
struct RunResult {
  std::vector<std::string> errors;  // failed checks; empty = correct
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Operations completed inside the measured window, and its length.
  int64_t window_ops = 0;
  double window_s = 0;
  int64_t window_start_ns = 0;
  /// One latency sample per operation completed inside the window, and
  /// when it completed (same order).
  std::vector<int64_t> latencies_ns;
  std::vector<int64_t> completions_ns;
  /// process start -> topology up -> preload done.
  int64_t topology_done_ns = 0;
  int64_t preload_done_ns = 0;
  /// Peak resident set when set-up ended: the topology plus its fixed
  /// preload, before the load starts writing.
  double setup_peak_rss_mib = 0;
  /// CPU time the whole process spent inside the window.
  double window_cpu_s = 0;
  /// Registry snapshots at the window's edges (traced run only).
  lidi::obs::RegistrySnapshot snapshot_start;
  lidi::obs::RegistrySnapshot snapshot_end;
  /// Transport payload bytes inside the window (traced run only): every
  /// call's request and response, and kafka.fetch responses alone.
  int64_t window_call_bytes = 0;
  int64_t window_fetch_bytes = 0;
  /// Per-layer values only the workload can count (ratios with bases).
  std::map<std::string, double> layer;

  void Fail(std::string what) { errors.push_back(std::move(what)); }
  bool correct() const { return errors.empty(); }
  /// Marks the end of set-up (topology plus preload).
  void SetupDone();
};

/// The measured window. Load starts, warms up for kWarmupNs, and is then
/// measured for --seconds; only operations completing inside count.
struct Window {
  static constexpr int64_t kWarmupNs = 1'000'000'000;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  /// A window starting one warm-up from now.
  static Window Plan(int seconds);
  bool Contains(int64_t t) const { return t >= start_ns && t < end_ns; }
};

/// Sleeps through the warm-up and the window on the calling thread, taking
/// the process CPU time and (traced run) registry snapshots at both edges.
/// Returns when the window has closed; the caller then stops the load.
void MeasureWindow(const RunConfig& config, const Window& window,
                   lidi::obs::MetricsRegistry* registry, RunResult* result);

RunResult RunServing(const RunConfig& config);
RunResult RunActivity(const RunConfig& config);
RunResult RunChangeCapture(const RunConfig& config);

// ---------------------------------------------------------------------------
// Input generation.

/// SplitMix64-seeded xoshiro256**: the same seed gives the same stream on
/// every platform (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Fills `n` printable bytes.
  std::string Bytes(size_t n);

 private:
  uint64_t s_[4];
};

/// Mixes a run seed with a stream id so each caller gets its own stream.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Zipfian ranks over [0, n) with skew theta, by inverting a precomputed
/// CDF: rank 0 is the hottest item.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// 64-bit FNV-1a of a byte string: the payload fingerprint the checks sum.
uint64_t Fingerprint(const std::string& bytes);

// ---------------------------------------------------------------------------
// Measurement helpers.

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
double Percentile(std::vector<int64_t> samples, double p);

/// CPU seconds (user + system) the process has used so far.
double ProcessCpuSeconds();
/// Peak resident set size of the process, in MiB.
double PeakRssMib();

/// Sum of a counter over every label set it carries; -1 when the registry
/// has no instrument of that name (reported as missing, not as zero).
double CounterSum(const lidi::obs::RegistrySnapshot& snapshot,
                  const std::string& name);
/// One labeled counter; -1 when absent.
double CounterAt(const lidi::obs::RegistrySnapshot& snapshot,
                 const std::string& name, const lidi::obs::Labels& labels);

/// Growth of a counter across the window (traced run), summed over its
/// label sets or taken at `labels`; -1 when the registry lacks it.
double CounterDelta(const RunResult& result, const std::string& name,
                    const lidi::obs::Labels* labels = nullptr);
/// num / den, or -1 when either is missing (-1) and 0 when den is 0.
double Ratio(double num, double den);

/// Host floors, measured in the traced run beside the layer they bound.
/// Median round trip of a 64-byte message over a raw localhost TCP socket.
double FloorSocketRttUs();
/// Median latency of a 4 KiB append plus fdatasync in `dir`.
double FloorFdatasyncUs(const std::string& dir);

/// Aborts the run with a message when set-up fails: a topology that did not
/// come up would measure nothing.
void MustOk(const lidi::Status& status, const char* what);

/// Appends `what` to `errors`, keeping the first few: a broken run can fail
/// a check millions of times, and the count alone says the rest.
void NoteError(std::vector<std::string>* errors, std::string what);

}  // namespace lidibench

#endif  // LIDIBENCH_BENCH_H_
