//===- SlowQuery.h - Tail-sampled slow-query recorder ------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-on, tail-sampled slow-query recorder for the server: every
/// request runs with cheap per-stage accumulation (the tracer's
/// stage-capture mode, see Trace.h — clock reads and thread-local adds,
/// no event buffering), and requests that cross the latency threshold,
/// error, or miss their deadline retroactively persist the full
/// per-stage breakdown (LeanPlan/χ/∆a, fixpoint rounds, model
/// extraction, cache and store probes, queue wait) into a bounded ring.
/// Fast requests leave nothing behind — tail sampling decides AFTER the
/// fact, which is why the accumulation must be on for everyone.
///
/// Retrieval: the server's {"op":"slowlog"} protocol op and /slowlog
/// HTTP endpoint. Determinism: the recorder observes, it never decides —
/// no response content depends on it, so `--stable` output is
/// byte-identical with the recorder on (the breakdown it captures rides
/// only here and on the volatile response side; see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_OBS_SLOWQUERY_H
#define XSA_OBS_SLOWQUERY_H

#include "service/Json.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace xsa {

/// One captured request. StageMs is the per-stage breakdown the request
/// accumulated (span name → total ms; entries overlap by design, see
/// StageTotals), plus an explicit queue-wait entry the server adds.
struct SlowQueryRecord {
  uint64_t Seq = 0;    ///< monotonic per recorder (eviction-order tests)
  uint64_t UnixMs = 0; ///< wall-clock capture time
  std::string RequestId; ///< propagated request/trace id (never empty)
  std::string ClientId;  ///< the client's own "id" field ("" if none)
  std::string Ns;
  std::string Op;
  bool Ok = true;
  std::string Code; ///< error code when !Ok ("deadline_exceeded", ...)
  int Priority = 0;
  uint64_t ConnId = 0;
  double QueueWaitMs = 0;
  double TotalMs = 0; ///< queue wait + execution
  bool FromCache = false;
  std::vector<std::pair<std::string, double>> StageMs;
  /// The request as admitted, dumped back to JSON — what `xsolve replay`
  /// turns into a runnable batch line ("" when capture predates it).
  std::string RequestJson;
};

class SlowQueryLog {
public:
  struct Options {
    /// Requests at or above this total latency (ms) are captured; 0
    /// captures everything (what the CI smoke and tests use).
    double ThresholdMs = 250;
    size_t Capacity = 128;
  };

  static SlowQueryLog &global();

  void configure(const Options &O);
  double thresholdMs() const {
    return ThresholdMsA.load(std::memory_order_relaxed);
  }
  size_t capacity() const;

  /// The tail-sampling decision: errors and deadline misses always
  /// qualify; successes qualify by latency.
  bool shouldRecord(double TotalMs, bool Ok) const {
    return !Ok || TotalMs >= thresholdMs();
  }

  /// Appends \p R (stamping Seq and UnixMs), evicting the oldest past
  /// capacity. Thread-safe.
  void record(SlowQueryRecord R);

  /// The most recent records, oldest first (\p MaxRecords 0 = all).
  std::vector<SlowQueryRecord> snapshot(size_t MaxRecords = 0) const;

  /// Total captured since start (including evicted).
  uint64_t recorded() const {
    return Recorded.load(std::memory_order_relaxed);
  }

  void clearForTest();

  /// Serializes one record for {"op":"slowlog"} / /slowlog.
  static JsonRef toJson(const SlowQueryRecord &R);

private:
  mutable std::mutex Mu;
  Options Opts; ///< guarded by Mu (threshold mirrored below)
  std::deque<SlowQueryRecord> Ring;
  uint64_t NextSeq = 1;
  std::atomic<double> ThresholdMsA{250};
  std::atomic<uint64_t> Recorded{0};
};

} // namespace xsa

#endif // XSA_OBS_SLOWQUERY_H
