//===- Metrics.h - Thread-safe metric registry -------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small metrics substrate for the whole engine: named counters,
/// gauges and fixed-bucket histograms collected in a thread-safe
/// MetricRegistry and exported in two formats — Prometheus text
/// exposition (what a future `xsolved /metrics` endpoint serves, and
/// what `xsolve batch --metrics-file` writes today) and JSON (the
/// `{"op":"metrics"}` protocol line).
///
/// Hot-path discipline: registration (name lookup) takes the registry
/// mutex, so call sites register once — typically through a function-
/// local static — and then touch only the returned handle. The handles
/// themselves are lock-free:
///
///  * Counter is sharded over cache-line-padded relaxed atomics indexed
///    by a per-thread slot hint, so concurrent workers do not bounce one
///    cache line;
///  * Gauge is a single relaxed atomic double (last write wins — it is a
///    sampled instantaneous value, not a tally);
///  * Histogram keeps one relaxed atomic per bucket plus a fixed-point
///    sum; observe() is two relaxed fetch_adds and a branchless-ish
///    bucket search over a small bound array.
///
/// Like every counter bundle in this codebase (see service/Context.h),
/// relaxed ordering is sufficient: metrics are independent monotonic
/// tallies, nothing reads one to decide control flow, and readers that
/// want a consistent snapshot take it after a synchronization point of
/// their own (batch barrier, process exit).
///
/// Metric names follow Prometheus conventions. A name may carry a label
/// set inline — `xsa_requests_total{op="contains"}` — which the
/// exporters understand (the TYPE line is emitted once per base name).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_OBS_METRICS_H
#define XSA_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xsa {

class JsonValue;
using JsonRef = std::shared_ptr<JsonValue>;

/// Monotonic counter, sharded to keep concurrent increments off one
/// cache line. value() sums the shards (racy-exact: each shard is read
/// atomically; the total is exact once writers are quiescent).
class Counter {
public:
  void add(uint64_t N = 1) {
    Slots[slotIndex()].V.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t Total = 0;
    for (const Slot &S : Slots)
      Total += S.V.load(std::memory_order_relaxed);
    return Total;
  }

private:
  static constexpr size_t NumSlots = 8; ///< power of two
  struct alignas(64) Slot {
    std::atomic<uint64_t> V{0};
  };
  static size_t slotIndex();
  Slot Slots[NumSlots];
};

/// Instantaneous sampled value (BDD node counts, store sizes). Last
/// writer wins; no read-modify-write on the hot path.
class Gauge {
public:
  void set(double V) { Val.store(V, std::memory_order_relaxed); }
  double value() const { return Val.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Val{0};
};

/// A point-in-time copy of a histogram, and the unit of quantile math.
/// Snapshots subtract, so a benchmark can bracket a measured region and
/// compute p50/p99 of exactly the observations inside it.
struct HistogramSnapshot {
  std::vector<double> Bounds;   ///< bucket upper bounds (no +Inf entry)
  std::vector<uint64_t> Counts; ///< per bucket; Bounds.size()+1 long (+Inf last)
  uint64_t Count = 0;
  double Sum = 0;

  /// This snapshot minus an earlier \p Base of the same histogram.
  HistogramSnapshot since(const HistogramSnapshot &Base) const;
  /// The \p Q quantile (0..1) estimated by linear interpolation within
  /// the owning bucket; 0 when empty. A single observation in a finite
  /// bucket is reported exactly (it equals Sum). Observations past the
  /// last finite bound report that bound (the histogram cannot resolve
  /// further).
  double quantile(double Q) const;
};

/// Fixed-bucket histogram. Buckets are cumulative only at export time;
/// internally each bucket counts its own range so observe() touches one
/// bucket atom.
class Histogram {
public:
  /// \p Bounds must be strictly increasing; a terminal +Inf bucket is
  /// implicit. Empty bounds get defaultLatencyBucketsMs().
  explicit Histogram(std::vector<double> Bounds);

  void observe(double V) {
    size_t I = 0, N = Bounds.size();
    while (I < N && V > Bounds[I])
      ++I;
    Buckets[I].fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(1, std::memory_order_relaxed);
    // Fixed-point micro-units: atomic doubles cannot fetch_add portably.
    SumMicro.fetch_add(static_cast<uint64_t>(V * 1e6 + 0.5),
                       std::memory_order_relaxed);
  }

  HistogramSnapshot snapshot() const;
  const std::vector<double> &bounds() const { return Bounds; }

  /// Attaches/replaces the histogram's exemplar: one labeled
  /// observation a caller singled out (the server labels slow-query
  /// captures with their request id, so the latency histogram links
  /// back to a concrete slowlog entry). Mutex-guarded but OFF the hot
  /// path — observe() never touches it; callers label tail events only.
  void setExemplar(const std::string &Label, double V);
  /// False when no exemplar was ever set.
  bool exemplar(std::string &Label, double &V) const;

  /// Exponential millisecond buckets from 10µs to 60s — wide enough for
  /// a cache hit and a 2^O(n) worst-case solve in one histogram.
  static std::vector<double> defaultLatencyBucketsMs();

private:
  std::vector<double> Bounds;
  std::unique_ptr<std::atomic<uint64_t>[]> Buckets; ///< Bounds.size()+1
  std::atomic<uint64_t> Total{0};
  std::atomic<uint64_t> SumMicro{0}; ///< sum in 1e-6 units of the value
  mutable std::mutex ExMu;
  std::string ExLabel; ///< guarded by ExMu
  double ExVal = 0;    ///< guarded by ExMu
  bool HasEx = false;  ///< guarded by ExMu
};

/// Named metric table. get-or-create by name; handles are stable for the
/// registry's lifetime (entries are never removed). Creating the same
/// name with two different kinds is a programming error (asserted).
class MetricRegistry {
public:
  /// \p Volatile marks a metric whose value depends on scheduling or
  /// wall-clock rather than the workload alone (e.g. BDD node counts at
  /// --jobs > 1, where which duplicate request wins the cache race varies
  /// run to run). Volatile entries are excluded from
  /// toJson(IncludeVolatile=false). Only applies on first creation.
  Counter &counter(const std::string &Name, const std::string &Help = "",
                   bool Volatile = false);
  Gauge &gauge(const std::string &Name, const std::string &Help = "",
               bool Volatile = false);
  /// \p Bounds only applies on first creation. Histograms are always
  /// volatile (they record latency distributions).
  Histogram &histogram(const std::string &Name, const std::string &Help = "",
                       std::vector<double> Bounds = {});

  /// Prometheus text exposition format, sorted by name (one HELP/TYPE
  /// block per base name, label sets as series under it).
  std::string prometheusText() const;

  /// OpenMetrics 1.0 text exposition: the same series, with counter
  /// families named without their `_total` suffix (the sample keeps it,
  /// as the spec requires), histogram exemplars rendered on the
  /// `_bucket` line whose range contains them (`... # {rid="..."} v`),
  /// and the mandatory `# EOF` terminator. Served on /metrics when the
  /// scraper negotiates `Accept: application/openmetrics-text`.
  std::string openMetricsText() const;

  /// JSON export: {"schema":"xsa.metrics/1","counters":{...},
  /// "gauges":{...},"histograms":{name:{count,sum,buckets:[...]}}}.
  /// The schema field versions the shape for protocol clients. With
  /// \p IncludeVolatile false, histograms (wall-clock latency
  /// distributions) and metrics registered Volatile are omitted, leaving
  /// only values that are functions of the workload alone — this is what
  /// keeps `--stable` batch output reproducible when it answers an
  /// {"op":"metrics"} line.
  JsonRef toJson(bool IncludeVolatile = true) const;

  /// Version tag carried by every JSON export and the {"op":"metrics"}
  /// protocol response.
  static constexpr const char *SchemaVersion = "xsa.metrics/1";

  /// The process-wide registry every built-in instrumentation point
  /// tallies into.
  static MetricRegistry &global();

private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    std::string Name, Help;
    Kind K;
    bool Volatile = false;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
  };
  Entry &entry(const std::string &Name, const std::string &Help, Kind K,
               bool Volatile, std::vector<double> *Bounds = nullptr);
  std::string expositionText(bool OpenMetrics) const;

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Entry>> Entries; ///< registration order
};

/// Escapes \p Value per the Prometheus text format's label-value rules:
/// `\` → `\\`, `"` → `\"`, newline → `\n`. Every other byte passes
/// through verbatim (the format permits arbitrary UTF-8 otherwise).
/// Applied by labeledMetricName at registration, so user-controlled
/// values (namespace names arrive via {"op":"config","ns":...}) can
/// never break the exposition's line framing or quoting.
std::string escapePrometheusLabelValue(const std::string &Value);

/// `base{label="value"}` with the value escaped by
/// escapePrometheusLabelValue.
std::string labeledMetricName(const std::string &Base, const std::string &Label,
                              const std::string &Value);

} // namespace xsa

#endif // XSA_OBS_METRICS_H
