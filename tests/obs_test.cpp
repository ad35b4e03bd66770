//===- obs_test.cpp - Observability layer (metrics + tracer) --------------===//
//
// Tests src/obs/: the MetricRegistry (counter sharding under concurrent
// increments — the TSan stress —, gauge semantics, histogram quantile
// math and snapshot deltas, Prometheus text and JSON export shape,
// volatile-metric exclusion) and the span tracer (disabled fast path
// records nothing, parent linkage and nesting, correctness across
// threads, the session's per-job queue-wait spans, stage accumulation,
// Chrome trace-event export parsed back through the project's own JSON
// parser). The batch
// protocol surface — {"op":"metrics"} schema field, unknown-config-key
// rejection — rides on the same fixtures.
//
// The tracer is a process-global singleton; every test that enables it
// stops it before returning so tests stay order-independent.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/SlowQuery.h"
#include "obs/Trace.h"

#include "service/Batch.h"
#include "service/Json.h"
#include "service/Session.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace xsa;

namespace {

//===----------------------------------------------------------------------===//
// Counter / Gauge
//===----------------------------------------------------------------------===//

TEST(Counter, ExactUnderConcurrentIncrements) {
  // 8 threads × 10k adds on one sharded counter: the total must be
  // exact once writers join (and TSan must see no race on the slots).
  Counter C;
  constexpr size_t NumThreads = 8, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&C] {
      for (size_t I = 0; I < PerThread; ++I)
        C.add();
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), NumThreads * PerThread);
}

TEST(Gauge, LastWriteWins) {
  Gauge G;
  EXPECT_EQ(G.value(), 0.0);
  G.set(3.5);
  G.set(-1.25);
  EXPECT_EQ(G.value(), -1.25);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, QuantilesInterpolateWithinOwningBucket) {
  Histogram H({1, 2, 4, 8});
  // 4 observations spread one per bucket below 8.
  H.observe(0.5);
  H.observe(1.5);
  H.observe(3);
  H.observe(6);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 4u);
  EXPECT_DOUBLE_EQ(S.Sum, 11.0);
  // p50: rank 2 of 4 lands at the end of the (1,2] bucket.
  EXPECT_DOUBLE_EQ(S.quantile(0.5), 2.0);
  // p25 exhausts exactly the first bucket.
  EXPECT_DOUBLE_EQ(S.quantile(0.25), 1.0);
  // p100 lands at the top of the (4,8] bucket.
  EXPECT_DOUBLE_EQ(S.quantile(1.0), 8.0);
}

TEST(Histogram, OverflowBucketReportsLastFiniteBound) {
  Histogram H({1, 2});
  H.observe(100); // +Inf bucket
  EXPECT_DOUBLE_EQ(H.snapshot().quantile(0.99), 2.0);
}

TEST(Histogram, SnapshotDeltaIsolatesABracketedRegion) {
  Histogram H({1, 10, 100});
  H.observe(0.5);
  H.observe(50);
  HistogramSnapshot Before = H.snapshot();
  H.observe(5);
  H.observe(5);
  HistogramSnapshot Delta = H.snapshot().since(Before);
  EXPECT_EQ(Delta.Count, 2u);
  EXPECT_DOUBLE_EQ(Delta.Sum, 10.0);
  // Both delta observations live in the (1,10] bucket; rank 1.98 of 2
  // interpolates to 1 + 9·0.99.
  EXPECT_NEAR(Delta.quantile(0.99), 9.91, 1e-9);
  EXPECT_GT(Delta.quantile(0.5), 1.0);
}

TEST(Histogram, SingleObservationQuantilesAreExact) {
  Histogram H({1000, 2500, 5000});
  H.observe(1704);
  // Interpolation alone would put every quantile of the lone sample at
  // the top of its (1000,2500] bucket.
  HistogramSnapshot S = H.snapshot();
  EXPECT_DOUBLE_EQ(S.quantile(0.5), 1704.0);
  EXPECT_DOUBLE_EQ(S.quantile(0.99), 1704.0);
  // A delta bracketing one observation reports it exactly too.
  H.observe(1200.5);
  HistogramSnapshot D = H.snapshot().since(S);
  ASSERT_EQ(D.Count, 1u);
  EXPECT_DOUBLE_EQ(D.quantile(0.5), D.Sum);
  EXPECT_NEAR(D.quantile(0.99), 1200.5, 1e-9);
}

TEST(Histogram, ConcurrentObservationsAreAllCounted) {
  Histogram H({1, 2, 4});
  constexpr size_t NumThreads = 4, PerThread = 5000;
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&H, T] {
      for (size_t I = 0; I < PerThread; ++I)
        H.observe(static_cast<double>(T % 3));
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(H.snapshot().Count, NumThreads * PerThread);
}

//===----------------------------------------------------------------------===//
// MetricRegistry
//===----------------------------------------------------------------------===//

TEST(MetricRegistry, GetOrCreateReturnsStableHandles) {
  MetricRegistry R;
  Counter &A = R.counter("t_total", "help");
  Counter &B = R.counter("t_total");
  EXPECT_EQ(&A, &B);
  A.add(3);
  EXPECT_EQ(B.value(), 3u);
}

TEST(MetricRegistry, ConcurrentRegistrationAndUseIsSafe) {
  // The TSan stress for the registry itself: threads race get-or-create
  // of overlapping names while hammering the returned handles.
  MetricRegistry R;
  constexpr size_t NumThreads = 8, PerThread = 2000;
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&R, T] {
      for (size_t I = 0; I < PerThread; ++I) {
        R.counter("shared_total").add();
        R.counter("mine_" + std::to_string(T % 3) + "_total").add();
        R.gauge("g_shared").set(static_cast<double>(I));
        R.histogram("h_shared").observe(static_cast<double>(I % 7));
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(R.counter("shared_total").value(), NumThreads * PerThread);
  EXPECT_EQ(R.histogram("h_shared").snapshot().Count, NumThreads * PerThread);
}

TEST(MetricRegistry, PrometheusTextShape) {
  MetricRegistry R;
  R.counter(labeledMetricName("req_total", "op", "a"), "Requests").add(2);
  R.counter(labeledMetricName("req_total", "op", "b")).add(5);
  R.gauge("nodes", "Live nodes").set(7);
  Histogram &H = R.histogram("lat_ms", "Latency", {1, 10});
  H.observe(0.5);
  H.observe(5);
  H.observe(50);
  std::string Text = R.prometheusText();

  // One HELP/TYPE block per base name, label sets as series under it.
  EXPECT_EQ(Text.find("# TYPE req_total counter"),
            Text.rfind("# TYPE req_total counter"));
  EXPECT_NE(Text.find("req_total{op=\"a\"} 2"), std::string::npos);
  EXPECT_NE(Text.find("req_total{op=\"b\"} 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE nodes gauge"), std::string::npos);
  EXPECT_NE(Text.find("nodes 7"), std::string::npos);
  // Cumulative buckets with the +Inf terminal, then sum and count.
  EXPECT_NE(Text.find("# TYPE lat_ms histogram"), std::string::npos);
  EXPECT_NE(Text.find("lat_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(Text.find("lat_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(Text.find("lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(Text.find("lat_ms_sum 55.5"), std::string::npos);
  EXPECT_NE(Text.find("lat_ms_count 3"), std::string::npos);
}

TEST(MetricRegistry, OpenMetricsTextShape) {
  MetricRegistry R;
  R.counter("req_total", "Requests").add(3);
  R.counter(labeledMetricName("req_total", "op", "a")).add(2);
  R.gauge("nodes", "Live nodes").set(7);
  Histogram &H =
      R.histogram("xsa_request_latency_ms", "Request latency", {1, 10, 100});
  H.observe(0.5);
  H.observe(5);
  H.observe(50);
  H.setExemplar("r-123", 5);
  std::string Text = R.openMetricsText();

  // Counter families drop the _total suffix; sample lines keep it.
  EXPECT_NE(Text.find("# TYPE req counter"), std::string::npos);
  EXPECT_EQ(Text.find("# TYPE req_total"), std::string::npos);
  EXPECT_NE(Text.find("req_total 3"), std::string::npos);
  EXPECT_NE(Text.find("req_total{op=\"a\"} 2"), std::string::npos);
  // TYPE precedes HELP (classic exposition is HELP-then-TYPE).
  EXPECT_LT(Text.find("# TYPE req counter"), Text.find("# HELP req Requests"));
  // The exemplar renders on exactly the bucket whose range contains its
  // value — 5 falls in (1, 10] — in OpenMetrics exemplar syntax.
  EXPECT_NE(Text.find("xsa_request_latency_ms_bucket{le=\"10\"} 2 "
                      "# {rid=\"r-123\"} 5"),
            std::string::npos);
  size_t FirstEx = Text.find("# {");
  EXPECT_NE(FirstEx, std::string::npos);
  EXPECT_EQ(Text.find("# {", FirstEx + 1), std::string::npos);
  // The mandatory terminator, and nothing after it.
  EXPECT_TRUE(Text.size() >= 6 &&
              Text.compare(Text.size() - 6, 6, "# EOF\n") == 0);

  // The classic exposition of the same registry is unchanged by the
  // OpenMetrics extensions: full-name counter family, no exemplars, no
  // terminator.
  std::string Classic = R.prometheusText();
  EXPECT_NE(Classic.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_EQ(Classic.find("# {"), std::string::npos);
  EXPECT_EQ(Classic.find("# EOF"), std::string::npos);
}

TEST(MetricRegistry, OpenMetricsExemplarPastLastFiniteBoundRidesInf) {
  MetricRegistry R;
  Histogram &H = R.histogram("h_ms", "", {1, 10});
  H.observe(500);
  H.setExemplar("r-inf", 500);
  std::string Text = R.openMetricsText();
  EXPECT_NE(Text.find("h_ms_bucket{le=\"+Inf\"} 1 # {rid=\"r-inf\"} 500"),
            std::string::npos);
}

TEST(MetricRegistry, LabeledNameEscapesValue) {
  EXPECT_EQ(labeledMetricName("m", "op", "a\"b\\c"),
            "m{op=\"a\\\"b\\\\c\"}");
}

TEST(MetricRegistry, JsonExportShapeAndSchema) {
  MetricRegistry R;
  R.counter("c_total").add(4);
  R.gauge("g").set(1.5);
  R.histogram("h_ms", "", {1, 2}).observe(1.5);
  JsonRef J = R.toJson();
  EXPECT_EQ(J->str("schema"), MetricRegistry::SchemaVersion);
  EXPECT_EQ(J->get("counters")->get("c_total")->asNumber(), 4);
  EXPECT_EQ(J->get("gauges")->get("g")->asNumber(), 1.5);
  JsonRef H = J->get("histograms")->get("h_ms");
  EXPECT_EQ(H->get("count")->asNumber(), 1);
  EXPECT_TRUE(H->has("p50"));
  EXPECT_TRUE(H->has("p99"));
  // Buckets are cumulative and end with +Inf.
  JsonRef Buckets = H->get("buckets");
  EXPECT_EQ(Buckets->items().size(), 3u);
  EXPECT_EQ(Buckets->items().back()->str("le"), "+Inf");
}

TEST(MetricRegistry, StableExportDropsVolatileMetrics) {
  MetricRegistry R;
  R.counter("det_total").add(1);
  R.counter("sched_total", "", /*Volatile=*/true).add(1);
  R.gauge("sched_g", "", /*Volatile=*/true).set(9);
  R.histogram("lat_ms").observe(1);
  JsonRef Stable = R.toJson(/*IncludeVolatile=*/false);
  EXPECT_TRUE(Stable->get("counters")->has("det_total"));
  EXPECT_FALSE(Stable->get("counters")->has("sched_total"));
  EXPECT_FALSE(Stable->get("gauges")->has("sched_g"));
  // Histograms (latency distributions) are volatile wholesale.
  EXPECT_FALSE(Stable->has("histograms"));
  // The full export still carries everything.
  JsonRef Full = R.toJson();
  EXPECT_TRUE(Full->get("counters")->has("sched_total"));
  EXPECT_TRUE(Full->get("histograms")->has("lat_ms"));
}

//===----------------------------------------------------------------------===//
// Tracer / Span
//===----------------------------------------------------------------------===//

/// Collects the tracer's buffered events into a span-id-keyed map.
std::map<uint64_t, Tracer::Event> eventsById() {
  std::map<uint64_t, Tracer::Event> M;
  Tracer::global().forEachEvent(
      [&](const Tracer::Event &E) { M[E.Id] = E; });
  return M;
}

TEST(Tracer, DisabledSpansRecordNothing) {
  Tracer &T = Tracer::global();
  T.start();
  T.stop();          // clears buffers, then disables
  size_t Before = T.eventCount();
  {
    Span S("never");
    S.arg("k", 1.0);
    EXPECT_FALSE(S.active());
  }
  T.recordSpanFrom("never-either", Tracer::nowNs());
  EXPECT_EQ(T.eventCount(), Before);
}

TEST(Tracer, NestingLinksParents) {
  Tracer &T = Tracer::global();
  T.start();
  uint64_t OuterId = 0, InnerId = 0;
  {
    Span Outer("outer");
    {
      Span Inner("inner");
      Span Sibling("sibling");
      Inner.end(); // explicit end before the sibling closes is tolerated
    }
    Outer.arg("n", 2.0);
  }
  T.stop();
  auto Events = eventsById();
  ASSERT_EQ(Events.size(), 3u);
  for (const auto &[Id, E] : Events) {
    if (std::string(E.Name) == "outer")
      OuterId = Id;
    if (std::string(E.Name) == "inner")
      InnerId = Id;
  }
  ASSERT_NE(OuterId, 0u);
  ASSERT_NE(InnerId, 0u);
  EXPECT_EQ(Events[OuterId].Parent, 0u); // root
  EXPECT_EQ(Events[InnerId].Parent, OuterId);
  EXPECT_EQ(Events[OuterId].NumArgs, 1);
  EXPECT_EQ(std::string(Events[OuterId].Args[0].Key), "n");
  // Start/duration are epoch-relative and nested inside the parent.
  EXPECT_GE(Events[InnerId].StartNs, Events[OuterId].StartNs);
}

TEST(Tracer, SpansNestCorrectlyAcrossThreads) {
  Tracer &T = Tracer::global();
  T.start();
  constexpr size_t N = 64, Threads = 4;
  std::vector<std::thread> Ts;
  for (size_t Id = 0; Id < Threads; ++Id)
    Ts.emplace_back([Id] {
      for (size_t Index = Id; Index < N; Index += Threads) {
        Span Task("task");
        Task.arg("index", static_cast<double>(Index));
        Span Child("task.child");
      }
    });
  for (std::thread &Th : Ts)
    Th.join();
  T.stop();

  // The joins are the happens-before edge: all thread buffers are
  // readable now. Every child's parent must be a task span on the SAME
  // thread, and ids must be globally unique.
  auto Events = eventsById();
  size_t Tasks = 0, Children = 0;
  for (const auto &[Id, E] : Events) {
    std::string Name = E.Name;
    if (Name == "task") {
      ++Tasks;
      EXPECT_EQ(E.Parent, 0u) << "task spans are roots";
    } else if (Name == "task.child") {
      ++Children;
      auto It = Events.find(E.Parent);
      ASSERT_NE(It, Events.end()) << "child's parent was recorded";
      EXPECT_STREQ(It->second.Name, "task");
      EXPECT_EQ(It->second.Tid, E.Tid) << "parent lives on the same thread";
    }
  }
  EXPECT_EQ(Tasks, N);
  EXPECT_EQ(Children, N);
}

TEST(Tracer, SessionRecordsQueueWaitPerJob) {
  // A traced batch on the session's workers: each job's wait in the
  // queue is a pool.queue_wait span, recorded by the worker that took it
  // and readable once runBatch has returned (it ends quiescent).
  SessionOptions Opts;
  Opts.Jobs = 4;
  AnalysisSession Session(Opts);
  std::vector<AnalysisRequest> Reqs;
  for (size_t I = 0; I < 8; ++I) {
    AnalysisRequest R;
    R.Id = "q" + std::to_string(I);
    R.Kind = RequestKind::Emptiness;
    R.Query1 = "/r" + std::to_string(I) + "/x";
    Reqs.push_back(R);
  }
  Tracer &T = Tracer::global();
  T.start();
  std::vector<AnalysisResponse> Resps = runBatch(Session, Reqs);
  T.stop();
  ASSERT_EQ(Resps.size(), Reqs.size());
  size_t QueueWaits = 0, Requests = 0;
  T.forEachEvent([&](const Tracer::Event &E) {
    QueueWaits += std::string(E.Name) == "pool.queue_wait";
    Requests += std::string(E.Name) == "request";
  });
  EXPECT_EQ(QueueWaits, Reqs.size());
  EXPECT_EQ(Requests, Reqs.size());
}

TEST(Tracer, StageScopeAccumulatesByName) {
  Tracer &T = Tracer::global();
  T.start();
  StageTotals Totals;
  {
    StageScope Scope(Totals);
    { Span A("alpha"); }
    { Span A("alpha"); }
    { Span B("beta"); }
  }
  { Span Outside("gamma"); } // after the scope: not accumulated
  T.stop();
  auto Rows = Totals.toMs();
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].first, "alpha");
  EXPECT_EQ(Rows[1].first, "beta");
  EXPECT_GE(Rows[0].second, 0.0);
}

TEST(Tracer, ChromeTraceParsesAndCoversAllSpans) {
  Tracer &T = Tracer::global();
  T.start();
  {
    Span Outer("req");
    Span Inner("req.step");
    Inner.arg("detail", std::string("x\"y"));
  }
  T.stop();
  std::string Doc = T.chromeTraceJson();
  std::string Err;
  JsonRef J = parseJson(Doc, Err);
  ASSERT_NE(J, nullptr) << Err;
  JsonRef Events = J->get("traceEvents");
  size_t Complete = 0, Meta = 0;
  for (const JsonRef &E : Events->items()) {
    std::string Ph = E->str("ph");
    if (Ph == "X") {
      ++Complete;
      EXPECT_TRUE(E->has("ts"));
      EXPECT_TRUE(E->has("dur"));
      EXPECT_TRUE(E->has("tid"));
      EXPECT_TRUE(E->get("args")->has("span"));
      EXPECT_TRUE(E->get("args")->has("parent"));
    } else if (Ph == "M") {
      ++Meta;
    }
  }
  EXPECT_EQ(Complete, T.eventCount());
  EXPECT_GE(Complete, 2u);
  EXPECT_GE(Meta, 1u); // thread_name metadata per registered thread
}

TEST(Tracer, RestartClearsEarlierEvents) {
  Tracer &T = Tracer::global();
  T.start();
  { Span S("first"); }
  T.stop();
  EXPECT_GT(T.eventCount(), 0u);
  T.start();
  T.stop();
  EXPECT_EQ(T.eventCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Batch protocol surface
//===----------------------------------------------------------------------===//

std::string runLines(AnalysisSession &Session, const std::string &Input,
                     bool Stable = false) {
  std::istringstream In(Input);
  std::ostringstream Out;
  BatchStreamOptions Opts;
  Opts.Stable = Stable;
  runBatchJsonLines(Session, In, Out, nullptr, Opts);
  return Out.str();
}

TEST(BatchProtocol, MetricsOpCarriesSchemaVersion) {
  AnalysisSession Session;
  std::string Out = runLines(
      Session,
      "{\"id\":\"q\",\"op\":\"empty\",\"e1\":\"a/b[parent::c]\"}\n"
      "{\"id\":\"m\",\"op\":\"metrics\"}\n");
  std::istringstream Parse(Out);
  std::string Line, Err;
  ASSERT_TRUE(std::getline(Parse, Line)); // the decision response
  ASSERT_TRUE(std::getline(Parse, Line)); // the metrics response
  JsonRef M = parseJson(Line, Err);
  ASSERT_NE(M, nullptr) << Err;
  EXPECT_EQ(M->str("id"), "m");
  EXPECT_TRUE(M->get("ok")->asBool());
  EXPECT_EQ(M->str("schema"), MetricRegistry::SchemaVersion);
  EXPECT_TRUE(M->has("counters"));
  // The request just answered is visible in the tallies.
  EXPECT_GE(
      M->get("counters")->get("xsa_requests_total{op=\"empty\"}")->asNumber(),
      1);
}

TEST(BatchProtocol, StableMetricsOpOmitsVolatileSections) {
  AnalysisSession Session;
  std::string Out = runLines(Session,
                             "{\"id\":\"m\",\"op\":\"metrics\"}\n",
                             /*Stable=*/true);
  std::string Err;
  JsonRef M = parseJson(Out, Err);
  ASSERT_NE(M, nullptr) << Err;
  EXPECT_EQ(M->str("schema"), MetricRegistry::SchemaVersion);
  EXPECT_FALSE(M->has("histograms"));
}

TEST(BatchProtocol, UnknownConfigKeyIsRejectedStructurally) {
  // A misspelled key, and keys the protocol no longer has.
  const std::pair<const char *, const char *> Inputs[] = {
      {"share_fixpoint", "true"},
      {"share_fixpoints", "true"},
      {"bdd_backend", "\"parallel\""},
      {"fixpoint_strategy", "\"bfs\""},
      {"optimize", "true"}};
  for (const auto &[Key, Value] : Inputs) {
    SCOPED_TRACE(Key);
    AnalysisSession Session;
    std::string Out =
        runLines(Session, std::string("{\"id\":\"c\",\"op\":\"config\",\"") +
                              Key + "\":" + Value + "}\n");
    std::string Err;
    JsonRef R = parseJson(Out, Err);
    ASSERT_NE(R, nullptr) << Err;
    EXPECT_EQ(R->str("id"), "c");
    EXPECT_FALSE(R->get("ok")->asBool());
    JsonRef E = R->get("error");
    ASSERT_EQ(E->type(), JsonValue::Type::Object);
    EXPECT_EQ(E->str("code"), "unknown_config_key");
    EXPECT_EQ(E->str("key"), Key);
    EXPECT_EQ(E->get("line")->asNumber(), 1);
  }
}

TEST(BatchProtocol, KnownConfigKeysStillApply) {
  AnalysisSession Session;
  std::string Out = runLines(Session, "{\"op\":\"config\",\"jobs\":2}\n");
  std::string Err;
  JsonRef R = parseJson(Out, Err);
  ASSERT_NE(R, nullptr) << Err;
  EXPECT_TRUE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("jobs")->asNumber(), 2);
  EXPECT_FALSE(R->has("share_fixpoints")) << Out;
  EXPECT_EQ(Session.jobs(), 2u);
}

//===----------------------------------------------------------------------===//
// Prometheus escaping
//===----------------------------------------------------------------------===//

TEST(MetricRegistry, LabelValueEscapingIsExhaustive) {
  // Every byte value through the escaper: exactly `\`, `"` and newline
  // are rewritten, everything else passes through verbatim — so a
  // hostile namespace name (user-controlled via {"op":"config","ns"})
  // can never break the exposition's quoting or line framing.
  for (int B = 1; B < 256; ++B) {
    char C = static_cast<char>(B);
    std::string In(1, C);
    std::string Out = escapePrometheusLabelValue(In);
    if (C == '\\')
      EXPECT_EQ(Out, "\\\\") << "byte " << B;
    else if (C == '"')
      EXPECT_EQ(Out, "\\\"") << "byte " << B;
    else if (C == '\n')
      EXPECT_EQ(Out, "\\n") << "byte " << B;
    else
      EXPECT_EQ(Out, In) << "byte " << B;
  }
  // Compositions: adjacent escapes, and escapes mixed with passthrough.
  EXPECT_EQ(escapePrometheusLabelValue("a\\\"b\nc"), "a\\\\\\\"b\\nc");
  EXPECT_EQ(escapePrometheusLabelValue("\\\\"), "\\\\\\\\");
  EXPECT_EQ(escapePrometheusLabelValue(""), "");
  // End to end: a labeled series with all three specials stays one
  // well-formed line in the text exposition.
  MetricRegistry R;
  R.counter(labeledMetricName("esc_total", "ns", "a\\b\"c\nd")).add(3);
  std::string Text = R.prometheusText();
  EXPECT_NE(Text.find("esc_total{ns=\"a\\\\b\\\"c\\nd\"} 3"),
            std::string::npos)
      << Text;
}

//===----------------------------------------------------------------------===//
// EventLog
//===----------------------------------------------------------------------===//

TEST(EventLog, LevelGateSuppressesBelowMinimum) {
  EventLog &Log = EventLog::global();
  EventLog::Options O;
  O.MinLevel = LogLevel::Warn;
  O.Sink = nullptr; // ring only
  Log.configure(O);
  Log.clearForTest();
  EXPECT_FALSE(Log.enabled(LogLevel::Debug));
  EXPECT_FALSE(Log.enabled(LogLevel::Info));
  EXPECT_TRUE(Log.enabled(LogLevel::Warn));
  { LogEvent(LogLevel::Info, "suppressed").num("n", 1); }
  { LogEvent(LogLevel::Error, "kept").str("why", "it matters"); }
  std::vector<EventLog::Record> Ring = Log.ring();
  ASSERT_EQ(Ring.size(), 1u);
  EXPECT_EQ(Ring[0].Event, "kept");
  EXPECT_EQ(Ring[0].Fields->str("why"), "it matters");
  EXPECT_EQ(Ring[0].Fields->str("event"), "kept");
  EXPECT_EQ(Ring[0].Fields->str("level"), "error");
  Log.configure(EventLog::Options{});
  Log.clearForTest();
}

TEST(EventLog, RateLimitUnderContentionDropsAtSinkNotRing) {
  // N threads flood far past the sink budget: the token bucket must
  // drop toward the sink (counted, not lost silently) while the ring
  // keeps the most recent RingCapacity records regardless. The sink is
  // a tmpfile so the flood does not spam test output.
  std::FILE *Sink = std::tmpfile();
  ASSERT_NE(Sink, nullptr);
  EventLog &Log = EventLog::global();
  EventLog::Options O;
  O.MinLevel = LogLevel::Info;
  O.RingCapacity = 64;
  O.SinkRatePerSec = 50;
  O.SinkBurst = 10;
  O.Sink = Sink;
  Log.configure(O);
  Log.clearForTest();
  constexpr size_t NumThreads = 8, PerThread = 500;
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < NumThreads; ++T)
    Ts.emplace_back([T] {
      for (size_t I = 0; I < PerThread; ++I)
        LogEvent(LogLevel::Info, "flood")
            .num("thread", static_cast<double>(T))
            .num("i", static_cast<double>(I));
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Log.recordCount(), NumThreads * PerThread);
  EXPECT_GT(Log.sinkDropped(), 0u);
  EXPECT_LT(Log.sinkDropped(), NumThreads * PerThread); // burst got through
  std::vector<EventLog::Record> Ring = Log.ring();
  ASSERT_EQ(Ring.size(), 64u);
  // Ring keeps the newest, oldest first, strictly ordered by seq.
  for (size_t I = 1; I < Ring.size(); ++I)
    EXPECT_LT(Ring[I - 1].Seq, Ring[I].Seq);
  EXPECT_EQ(Ring.back().Seq, NumThreads * PerThread);
  // Restore the default configuration for other tests.
  Log.configure(EventLog::Options{});
  Log.clearForTest();
  std::fclose(Sink);
}

//===----------------------------------------------------------------------===//
// SlowQueryLog
//===----------------------------------------------------------------------===//

TEST(SlowQueryLog, TailSamplingDecision) {
  SlowQueryLog &Slow = SlowQueryLog::global();
  Slow.configure({/*ThresholdMs=*/100, /*Capacity=*/8});
  EXPECT_FALSE(Slow.shouldRecord(50, /*Ok=*/true));
  EXPECT_TRUE(Slow.shouldRecord(100, /*Ok=*/true));
  EXPECT_TRUE(Slow.shouldRecord(0, /*Ok=*/false)); // errors always qualify
  Slow.configure({/*ThresholdMs=*/0, /*Capacity=*/8});
  EXPECT_TRUE(Slow.shouldRecord(0, /*Ok=*/true)); // 0 captures everything
  Slow.configure(SlowQueryLog::Options{});
  Slow.clearForTest();
}

TEST(SlowQueryLog, RingEvictsOldestFirst) {
  SlowQueryLog &Slow = SlowQueryLog::global();
  Slow.configure({/*ThresholdMs=*/0, /*Capacity=*/4});
  Slow.clearForTest();
  for (int I = 0; I < 10; ++I) {
    SlowQueryRecord R;
    R.RequestId = "r" + std::to_string(I);
    R.TotalMs = I;
    Slow.record(std::move(R));
  }
  EXPECT_EQ(Slow.recorded(), 10u);
  std::vector<SlowQueryRecord> Snap = Slow.snapshot();
  ASSERT_EQ(Snap.size(), 4u); // capacity bound held, oldest 6 evicted
  for (size_t I = 0; I < Snap.size(); ++I) {
    EXPECT_EQ(Snap[I].RequestId, "r" + std::to_string(6 + I));
    if (I) {
      EXPECT_LT(Snap[I - 1].Seq, Snap[I].Seq);
    }
  }
  // A bounded snapshot returns the NEWEST records, still oldest first.
  std::vector<SlowQueryRecord> Tail = Slow.snapshot(2);
  ASSERT_EQ(Tail.size(), 2u);
  EXPECT_EQ(Tail[0].RequestId, "r8");
  EXPECT_EQ(Tail[1].RequestId, "r9");
  Slow.configure(SlowQueryLog::Options{});
  Slow.clearForTest();
}

TEST(SlowQueryLog, ToJsonCarriesStagesAndIds) {
  SlowQueryRecord R;
  R.Seq = 7;
  R.RequestId = "c3-12";
  R.ClientId = "q1";
  R.Ns = "team-a";
  R.Op = "contains";
  R.Ok = false;
  R.Code = "deadline_exceeded";
  R.QueueWaitMs = 12.5;
  R.TotalMs = 12.5;
  R.StageMs = {{"server.queue_wait", 12.5}};
  JsonRef J = SlowQueryLog::toJson(R);
  EXPECT_EQ(J->str("rid"), "c3-12");
  EXPECT_EQ(J->str("id"), "q1");
  EXPECT_EQ(J->str("ns"), "team-a");
  EXPECT_EQ(J->str("code"), "deadline_exceeded");
  EXPECT_FALSE(J->get("ok")->asBool());
  EXPECT_DOUBLE_EQ(J->get("stages")->get("server.queue_wait")->asNumber(),
                   12.5);
  // No reproduction payload on this record: the optional fields are
  // absent, not empty placeholders.
  EXPECT_FALSE(J->has("request"));
  EXPECT_FALSE(J->has("config"));
}

TEST(SlowQueryLog, ToJsonCarriesReproductionPayload) {
  SlowQueryRecord R;
  R.RequestId = "r-42";
  R.Op = "contains";
  R.RequestJson =
      "{\"id\":\"q1\",\"op\":\"contains\",\"e1\":\"/a//b\",\"e2\":\"//b\","
      "\"dtd\":\"xhtml\"}";
  JsonRef J = SlowQueryLog::toJson(R);
  // The request embeds as an object (re-parsed, not a quoted string) —
  // what `xsolve replay` re-executes.
  JsonRef Req = J->get("request");
  ASSERT_EQ(Req->type(), JsonValue::Type::Object);
  EXPECT_EQ(Req->str("op"), "contains");
  EXPECT_EQ(Req->str("e1"), "/a//b");
  // No request runs under a config of its own, so there is no config
  // snapshot to record.
  EXPECT_FALSE(J->has("config"));
}

//===----------------------------------------------------------------------===//
// Stage-capture mode (the always-on accumulation tail sampling rides on)
//===----------------------------------------------------------------------===//

TEST(Tracer, StageCaptureAccumulatesWithoutBufferingEvents) {
  Tracer &T = Tracer::global();
  ASSERT_FALSE(T.enabled());
  T.setStageCapture(true);
  size_t EventsBefore = T.eventCount();
  StageTotals Totals;
  {
    StageScope Scope(Totals);
    {
      Span Outer("request");
      Outer.arg("rid", std::string("r1")); // dropped: capture-only mode
      Span Inner("solver.run");
    }
  }
  T.setStageCapture(false);
  // Durations accumulated by name...
  std::vector<std::pair<std::string, double>> Ms = Totals.toMs();
  bool SawRequest = false, SawSolver = false;
  for (const auto &[Name, V] : Ms) {
    if (Name == "request")
      SawRequest = true;
    if (Name == "solver.run")
      SawSolver = true;
    EXPECT_GE(V, 0);
  }
  EXPECT_TRUE(SawRequest);
  EXPECT_TRUE(SawSolver);
  // ...and NO events buffered (that is the point: no per-event memory).
  EXPECT_EQ(T.eventCount(), EventsBefore);
}

TEST(Tracer, StageCaptureOffAndNoScopeIsInert) {
  Tracer &T = Tracer::global();
  ASSERT_FALSE(T.enabled());
  ASSERT_FALSE(T.stageCaptureEnabled());
  size_t EventsBefore = T.eventCount();
  {
    Span S("nothing");
    S.arg("n", 1);
  }
  EXPECT_EQ(T.eventCount(), EventsBefore);
}

} // namespace
