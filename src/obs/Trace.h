//===- Trace.h - Structured span tracer --------------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structured span tracer for the request pipeline: RAII Span objects
/// with parent linkage, thread id and nesting, buffered per thread and
/// exported as Chrome trace-event JSON ("X" complete events, loadable in
/// chrome://tracing and Perfetto).
///
/// Zero-cost when disabled: a Span constructor is one relaxed atomic
/// load and a branch — no clock read, no allocation, no lock. When the
/// tracer is enabled, events append to a per-thread buffer (no
/// synchronization on the hot path either; registration of a new thread
/// takes the tracer mutex exactly once).
///
/// Determinism contract: spans observe, they never decide. No solver or
/// service code path may read tracer state to alter control flow, so
/// `--stable` batch output is byte-identical with tracing on or off at
/// any `--jobs` (the per-request "stages" breakdown rides on the
/// volatile side of the response encoder for the same reason). See
/// DESIGN.md "Observability".
///
/// Quiescence contract: start(), stop() and the exporters may only run
/// while no spans are in flight — in practice at batch boundaries, where
/// AnalysisSession::quiesce (a mutex handshake with every worker, which
/// runBatch and runBatchJsonLines end with) makes every worker's
/// buffered events happen-before the reader. This is what keeps the
/// tracer TSan-clean without per-event locks.
///
/// Span names must be string literals (the tracer stores the pointer,
/// not a copy).
///
//===----------------------------------------------------------------------===//

#ifndef XSA_OBS_TRACE_H
#define XSA_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xsa {

/// Per-request aggregation of span durations, keyed by span name. A
/// StageScope installs one for the current thread; every Span that ends
/// under it adds its duration. Nested spans each contribute under their
/// own name ("fixpoint.round" totals live inside the enclosing
/// "solver.fixpoint" total), so entries overlap by design — the
/// breakdown is per stage name, not a partition.
class StageTotals {
public:
  void add(const char *Name, uint64_t Ns);
  /// Name → total milliseconds, in first-recorded order.
  std::vector<std::pair<std::string, double>> toMs() const;
  bool empty() const { return Rows.empty(); }

private:
  /// Names are literals but literal pointers need not be unique across
  /// TUs, so matching compares contents. The vector stays tiny (one row
  /// per distinct stage), linear scan is fine.
  std::vector<std::pair<const char *, uint64_t>> Rows;
};

class Tracer {
public:
  /// One event per completed span. Times are nanoseconds relative to the
  /// tracer's start() call.
  struct Event {
    const char *Name;
    uint64_t StartNs, DurNs;
    uint32_t Tid;          ///< dense tracer-assigned thread id
    uint64_t Id, Parent;   ///< span id and enclosing span id (0 = root)
    struct Arg {
      const char *Key;
      double Num;
    };
    Arg Args[4];
    uint8_t NumArgs = 0;
    /// Up to two string args (the request span carries "op" and the
    /// propagated "rid"); extras are dropped.
    struct StrArg {
      const char *Key;
      std::string Val;
    };
    StrArg Strs[2];
    uint8_t NumStrs = 0;
  };

  static Tracer &global();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Stage-capture mode: the always-on accumulation path of the server's
  /// tail-sampled slow-query recorder (obs/SlowQuery.h). When set and the
  /// tracer is otherwise DISABLED, a Span still adds its duration to the
  /// installed StageScope — but records no event, takes no lock, touches
  /// no buffer and needs no quiescence (the totals are thread-local to
  /// the request). Cost per span: two clock reads. When both flags are
  /// off the zero-cost contract above is unchanged (one extra relaxed
  /// load); when the tracer is enabled it subsumes this mode.
  bool stageCaptureEnabled() const {
    return StageCapture.load(std::memory_order_relaxed);
  }
  void setStageCapture(bool On) {
    StageCapture.store(On, std::memory_order_relaxed);
  }

  /// Clears all buffered events and enables recording. Quiescent only.
  void start();
  /// Disables recording; buffered events remain for export. Quiescent
  /// only.
  void stop();

  /// Serializes all buffered events as a Chrome trace-event JSON document
  /// ({"traceEvents":[...]}). Quiescent only.
  std::string chromeTraceJson() const;
  /// chromeTraceJson() to a file; false (with errno intact) on failure.
  bool writeChromeTrace(const std::string &Path) const;

  /// Visits every buffered event (registration order per thread).
  /// Quiescent only; for tests.
  void forEachEvent(const std::function<void(const Event &)> &F) const;
  size_t eventCount() const;

  /// Steady-clock nanoseconds — the timebase spans are recorded in. For
  /// call sites that need to stamp a start on one thread and record the
  /// interval on another (queue wait).
  static uint64_t nowNs();

  /// Records a completed interval whose start was stamped earlier (and
  /// possibly on another thread) with nowNs(). No-op when disabled.
  void recordSpanFrom(const char *Name, uint64_t StartNsAbs);

private:
  friend class Span;
  struct ThreadState {
    std::vector<Event> Buf;
    std::vector<uint64_t> Stack; ///< ids of open spans, innermost last
    uint32_t Tid = 0;
    uint64_t NextSeq = 0;
  };

  ThreadState &threadState();
  ThreadState &registerThread();

  /// The thread's slot in Threads, cached after one registration. Raw
  /// pointer: the Tracer owns the state and never frees it (deque slots
  /// are stable), so the cache stays valid for the thread's lifetime.
  static thread_local ThreadState *TLState;

  std::atomic<bool> Enabled{false};
  std::atomic<bool> StageCapture{false};
  mutable std::mutex Mu; ///< guards Threads registration and EpochNs
  /// deque: ThreadState addresses must survive registration of later
  /// threads (each thread caches a raw pointer to its own slot).
  std::deque<std::unique_ptr<ThreadState>> Threads;
  uint64_t EpochNs = 0; ///< steady-clock origin set by start()
};

/// RAII span. Constructing when the tracer is disabled costs one relaxed
/// load; nothing else happens. \p Name must be a string literal.
class Span {
public:
  explicit Span(const char *Name);
  ~Span() {
    if (State || Stages)
      end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a numeric argument (up to 4; extras are dropped). \p Key
  /// must be a string literal.
  void arg(const char *Key, double V);
  /// Attaches a string argument (up to 2; extras are dropped).
  void arg(const char *Key, std::string V);

  /// Ends the span early (records the event; the destructor becomes a
  /// no-op).
  void end();

  /// True when the tracer was enabled at construction — gate for
  /// optional arg computation at call sites. False in stage-capture
  /// mode: args have nowhere to go when no event is recorded.
  bool active() const { return State != nullptr; }

private:
  Tracer::ThreadState *State = nullptr; ///< null when tracing disabled
  /// Stage-capture mode: the accumulator this span adds to at end().
  /// Mutually exclusive with State (full tracing already feeds the
  /// scope's totals through the event path).
  StageTotals *Stages = nullptr;
  uint64_t StageStartNs = 0;
  Tracer::Event Ev;
};

/// Installs \p T as the current thread's stage accumulator for the
/// scope's lifetime (nesting restores the previous one). Spans ending on
/// this thread add their durations to it. Threads never migrate
/// mid-request in this codebase (a request runs entirely on one worker),
/// so thread-local installation is exact.
class StageScope {
public:
  explicit StageScope(StageTotals &T);
  ~StageScope();
  StageScope(const StageScope &) = delete;
  StageScope &operator=(const StageScope &) = delete;

private:
  StageTotals *Prev;
};

} // namespace xsa

#endif // XSA_OBS_TRACE_H
