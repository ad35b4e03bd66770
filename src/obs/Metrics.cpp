//===- Metrics.cpp - Thread-safe metric registry ---------------------------===//

#include "obs/Metrics.h"

#include "service/Json.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

using namespace xsa;

//===----------------------------------------------------------------------===//
// Counter
//===----------------------------------------------------------------------===//

size_t Counter::slotIndex() {
  // A dense per-thread hint: each thread sticks to one shard, so the
  // fetch_add never contends until more than NumSlots threads share one
  // counter — and even then it degrades to plain atomic contention.
  static std::atomic<size_t> NextSlot{0};
  static thread_local size_t Hint =
      NextSlot.fetch_add(1, std::memory_order_relaxed);
  return Hint & (NumSlots - 1);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> BoundsIn) : Bounds(std::move(BoundsIn)) {
  if (Bounds.empty())
    Bounds = defaultLatencyBucketsMs();
  assert(std::is_sorted(Bounds.begin(), Bounds.end()) &&
         "histogram bounds must be increasing");
  Buckets = std::make_unique<std::atomic<uint64_t>[]>(Bounds.size() + 1);
  for (size_t I = 0; I <= Bounds.size(); ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

std::vector<double> Histogram::defaultLatencyBucketsMs() {
  return {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1,    2.5,
          5,    10,    25,   50,   100,  250,  500,  1000,
          2500, 5000,  10000, 30000, 60000};
}

void Histogram::setExemplar(const std::string &Label, double V) {
  std::lock_guard<std::mutex> Lock(ExMu);
  ExLabel = Label;
  ExVal = V;
  HasEx = true;
}

bool Histogram::exemplar(std::string &Label, double &V) const {
  std::lock_guard<std::mutex> Lock(ExMu);
  if (!HasEx)
    return false;
  Label = ExLabel;
  V = ExVal;
  return true;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Bounds = Bounds;
  S.Counts.resize(Bounds.size() + 1);
  for (size_t I = 0; I <= Bounds.size(); ++I)
    S.Counts[I] = Buckets[I].load(std::memory_order_relaxed);
  S.Count = Total.load(std::memory_order_relaxed);
  S.Sum = static_cast<double>(SumMicro.load(std::memory_order_relaxed)) / 1e6;
  return S;
}

HistogramSnapshot HistogramSnapshot::since(const HistogramSnapshot &Base) const {
  assert(Bounds == Base.Bounds && "snapshots of different histograms");
  HistogramSnapshot D;
  D.Bounds = Bounds;
  D.Counts.resize(Counts.size());
  for (size_t I = 0; I < Counts.size(); ++I)
    D.Counts[I] = Counts[I] - Base.Counts[I];
  D.Count = Count - Base.Count;
  D.Sum = Sum - Base.Sum;
  return D;
}

double HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0;
  // Rank of the target observation (1-based), then walk buckets.
  double Rank = Q * static_cast<double>(Count);
  if (Rank < 1)
    Rank = 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    if (Counts[I] == 0)
      continue;
    double Lo = I == 0 ? 0 : Bounds[I - 1];
    double Hi = I < Bounds.size() ? Bounds[I] : Bounds.back();
    if (Rank <= static_cast<double>(Seen + Counts[I])) {
      if (I >= Bounds.size())
        return Hi; // +Inf bucket: best we can say is the last bound
      // A lone observation is known exactly: it is the sum. (Clamped to
      // its bucket, since a snapshot racing an observe() may read one
      // counter before the other.)
      if (Count == 1)
        return std::clamp(Sum, Lo, Hi);
      double Within = (Rank - static_cast<double>(Seen)) /
                      static_cast<double>(Counts[I]);
      return Lo + (Hi - Lo) * Within;
    }
    Seen += Counts[I];
  }
  return Bounds.empty() ? 0 : Bounds.back();
}

//===----------------------------------------------------------------------===//
// MetricRegistry
//===----------------------------------------------------------------------===//

MetricRegistry &MetricRegistry::global() {
  static MetricRegistry R;
  return R;
}

MetricRegistry::Entry &MetricRegistry::entry(const std::string &Name,
                                             const std::string &Help, Kind K,
                                             bool Volatile,
                                             std::vector<double> *Bounds) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &E : Entries)
    if (E->Name == Name) {
      assert(E->K == K && "metric re-registered with a different kind");
      return *E;
    }
  auto E = std::make_unique<Entry>();
  E->Name = Name;
  E->Help = Help;
  E->K = K;
  E->Volatile = Volatile;
  switch (K) {
  case Kind::Counter:
    E->C = std::make_unique<Counter>();
    break;
  case Kind::Gauge:
    E->G = std::make_unique<Gauge>();
    break;
  case Kind::Histogram:
    E->H = std::make_unique<Histogram>(Bounds ? std::move(*Bounds)
                                              : std::vector<double>{});
    break;
  }
  Entries.push_back(std::move(E));
  return *Entries.back();
}

Counter &MetricRegistry::counter(const std::string &Name,
                                 const std::string &Help, bool Volatile) {
  return *entry(Name, Help, Kind::Counter, Volatile).C;
}

Gauge &MetricRegistry::gauge(const std::string &Name, const std::string &Help,
                             bool Volatile) {
  return *entry(Name, Help, Kind::Gauge, Volatile).G;
}

Histogram &MetricRegistry::histogram(const std::string &Name,
                                     const std::string &Help,
                                     std::vector<double> Bounds) {
  return *entry(Name, Help, Kind::Histogram, /*Volatile=*/true, &Bounds).H;
}

std::string xsa::escapePrometheusLabelValue(const std::string &Value) {
  std::string Escaped;
  Escaped.reserve(Value.size());
  for (char C : Value) {
    if (C == '\\' || C == '"')
      Escaped += '\\';
    if (C == '\n') {
      Escaped += "\\n";
      continue;
    }
    Escaped += C;
  }
  return Escaped;
}

std::string xsa::labeledMetricName(const std::string &Base,
                                   const std::string &Label,
                                   const std::string &Value) {
  return Base + "{" + Label + "=\"" + escapePrometheusLabelValue(Value) +
         "\"}";
}

namespace {

/// Splits `base{labels}` into its parts ("" labels when unlabeled).
void splitName(const std::string &Name, std::string &Base,
               std::string &Labels) {
  size_t Brace = Name.find('{');
  if (Brace == std::string::npos) {
    Base = Name;
    Labels.clear();
    return;
  }
  Base = Name.substr(0, Brace);
  Labels = Name.substr(Brace + 1, Name.size() - Brace - 2); // strip {}
}

/// HELP-line escaping (distinct from label values: only `\` and
/// newline; a raw newline in help text would otherwise end the comment
/// line early and leave garbage the scraper rejects).
std::string escapeHelpText(const std::string &Help) {
  std::string Escaped;
  Escaped.reserve(Help.size());
  for (char C : Help) {
    if (C == '\\') {
      Escaped += "\\\\";
      continue;
    }
    if (C == '\n') {
      Escaped += "\\n";
      continue;
    }
    Escaped += C;
  }
  return Escaped;
}

std::string formatNumber(double V) {
  char Buf[64];
  if (V == static_cast<double>(static_cast<long long>(V)))
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  return Buf;
}

/// `name{labels,extra}` or `name{extra}` or `name` series spelling.
std::string series(const std::string &Base, const std::string &Labels,
                   const std::string &Suffix, const std::string &Extra = "") {
  std::string S = Base + Suffix;
  if (Labels.empty() && Extra.empty())
    return S;
  S += '{';
  S += Labels;
  if (!Labels.empty() && !Extra.empty())
    S += ',';
  S += Extra;
  S += '}';
  return S;
}

} // namespace

std::string MetricRegistry::prometheusText() const {
  return expositionText(/*OpenMetrics=*/false);
}

std::string MetricRegistry::openMetricsText() const {
  return expositionText(/*OpenMetrics=*/true);
}

std::string MetricRegistry::expositionText(bool OpenMetrics) const {
  struct Row {
    std::string Base, Labels, Help;
    Kind K;
    const Entry *E;
  };
  std::vector<Row> Rows;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Rows.reserve(Entries.size());
    for (const auto &E : Entries) {
      Row R;
      splitName(E->Name, R.Base, R.Labels);
      R.Help = E->Help;
      R.K = E->K;
      R.E = E.get();
      Rows.push_back(std::move(R));
    }
  }
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.Base != B.Base ? A.Base < B.Base : A.Labels < B.Labels;
  });

  std::string Out;
  std::string LastBase;
  for (const Row &R : Rows) {
    // OpenMetrics names a counter *family* without the _total suffix;
    // the sample line keeps it. The classic format uses the full name
    // for both.
    std::string Family = R.Base;
    std::string SampleName = R.Base;
    if (R.K == Kind::Counter) {
      constexpr const char *Suffix = "_total";
      constexpr size_t SuffixLen = 6;
      if (OpenMetrics) {
        if (Family.size() > SuffixLen &&
            Family.compare(Family.size() - SuffixLen, SuffixLen, Suffix) ==
                0)
          Family.resize(Family.size() - SuffixLen);
        else
          SampleName += Suffix; // spec: counter samples end in _total
      }
    }
    if (R.Base != LastBase) {
      LastBase = R.Base;
      const char *Type = R.K == Kind::Counter   ? "counter"
                         : R.K == Kind::Gauge   ? "gauge"
                                                : "histogram";
      if (OpenMetrics) {
        // OpenMetrics: TYPE first, HELP after, both on the family name.
        Out += "# TYPE " + Family + " " + Type + "\n";
        if (!R.Help.empty())
          Out += "# HELP " + Family + " " + escapeHelpText(R.Help) + "\n";
      } else {
        if (!R.Help.empty())
          Out += "# HELP " + Family + " " + escapeHelpText(R.Help) + "\n";
        Out += "# TYPE " + Family + " " + Type + "\n";
      }
    }
    switch (R.K) {
    case Kind::Counter:
      Out += series(SampleName, R.Labels, "") + " " +
             formatNumber(static_cast<double>(R.E->C->value())) + "\n";
      break;
    case Kind::Gauge:
      Out += series(R.Base, R.Labels, "") + " " +
             formatNumber(R.E->G->value()) + "\n";
      break;
    case Kind::Histogram: {
      HistogramSnapshot S = R.E->H->snapshot();
      // An exemplar renders on the one bucket whose range contains its
      // value (the spec forbids it elsewhere); classic exposition
      // ignores it entirely.
      std::string ExLabel;
      double ExVal = 0;
      bool HaveEx =
          OpenMetrics && R.E->H->exemplar(ExLabel, ExVal);
      uint64_t Cum = 0;
      for (size_t I = 0; I < S.Counts.size(); ++I) {
        Cum += S.Counts[I];
        bool Last = I >= S.Bounds.size();
        std::string Le = !Last
                             ? "le=\"" + formatNumber(S.Bounds[I]) + "\""
                             : std::string("le=\"+Inf\"");
        Out += series(R.Base, R.Labels, "_bucket", Le) + " " +
               formatNumber(static_cast<double>(Cum));
        if (HaveEx && (Last || ExVal <= S.Bounds[I])) {
          Out += " # {rid=\"" + escapePrometheusLabelValue(ExLabel) +
                 "\"} " + formatNumber(ExVal);
          HaveEx = false; // exactly one bucket carries it
        }
        Out += "\n";
      }
      Out += series(R.Base, R.Labels, "_sum") + " " + formatNumber(S.Sum) +
             "\n";
      Out += series(R.Base, R.Labels, "_count") + " " +
             formatNumber(static_cast<double>(S.Count)) + "\n";
      break;
    }
    }
  }
  if (OpenMetrics)
    Out += "# EOF\n";
  return Out;
}

JsonRef MetricRegistry::toJson(bool IncludeVolatile) const {
  JsonRef O = JsonValue::object();
  O->set("schema", JsonValue::string(SchemaVersion));
  JsonRef Counters = JsonValue::object();
  JsonRef Gauges = JsonValue::object();
  JsonRef Histograms = JsonValue::object();
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &E : Entries) {
    if (E->Volatile && !IncludeVolatile)
      continue;
    switch (E->K) {
    case Kind::Counter:
      Counters->set(E->Name,
                    JsonValue::number(static_cast<double>(E->C->value())));
      break;
    case Kind::Gauge:
      Gauges->set(E->Name, JsonValue::number(E->G->value()));
      break;
    case Kind::Histogram: {
      HistogramSnapshot S = E->H->snapshot();
      JsonRef H = JsonValue::object();
      H->set("count", JsonValue::number(static_cast<double>(S.Count)));
      H->set("sum", JsonValue::number(S.Sum));
      H->set("p50", JsonValue::number(S.quantile(0.5)));
      H->set("p99", JsonValue::number(S.quantile(0.99)));
      JsonRef Buckets = JsonValue::array();
      uint64_t Cum = 0;
      for (size_t I = 0; I < S.Counts.size(); ++I) {
        Cum += S.Counts[I];
        JsonRef B = JsonValue::object();
        B->set("le", I < S.Bounds.size()
                         ? JsonValue::number(S.Bounds[I])
                         : JsonValue::string("+Inf"));
        B->set("count", JsonValue::number(static_cast<double>(Cum)));
        Buckets->push(B);
      }
      H->set("buckets", Buckets);
      std::string ExLabel;
      double ExVal = 0;
      if (E->H->exemplar(ExLabel, ExVal)) {
        JsonRef Ex = JsonValue::object();
        Ex->set("rid", JsonValue::string(ExLabel));
        Ex->set("value", JsonValue::number(ExVal));
        H->set("exemplar", Ex);
      }
      Histograms->set(E->Name, H);
      break;
    }
    }
  }
  O->set("counters", Counters);
  O->set("gauges", Gauges);
  if (IncludeVolatile)
    O->set("histograms", Histograms);
  return O;
}
