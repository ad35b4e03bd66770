//===- Trace.cpp - Structured span tracer ----------------------------------===//

#include "obs/Trace.h"

#include "service/Json.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace xsa;

//===----------------------------------------------------------------------===//
// StageTotals / StageScope
//===----------------------------------------------------------------------===//

namespace {
thread_local StageTotals *CurrentStages = nullptr;
} // namespace

void StageTotals::add(const char *Name, uint64_t Ns) {
  for (auto &[N, Total] : Rows)
    if (N == Name || std::strcmp(N, Name) == 0) {
      Total += Ns;
      return;
    }
  Rows.emplace_back(Name, Ns);
}

std::vector<std::pair<std::string, double>> StageTotals::toMs() const {
  std::vector<std::pair<std::string, double>> Out;
  Out.reserve(Rows.size());
  for (const auto &[N, Total] : Rows)
    Out.emplace_back(N, static_cast<double>(Total) / 1e6);
  return Out;
}

StageScope::StageScope(StageTotals &T) : Prev(CurrentStages) {
  CurrentStages = &T;
}

StageScope::~StageScope() { CurrentStages = Prev; }

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &Tracer::global() {
  static Tracer T;
  return T;
}

uint64_t Tracer::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::recordSpanFrom(const char *Name, uint64_t StartNsAbs) {
  if (!enabled())
    return;
  uint64_t Now = nowNs();
  ThreadState &S = threadState();
  Event Ev;
  Ev.Name = Name;
  Ev.Tid = S.Tid;
  Ev.Id = (static_cast<uint64_t>(S.Tid) + 1) << 32 | ++S.NextSeq;
  Ev.Parent = S.Stack.empty() ? 0 : S.Stack.back();
  // A start stamped before the tracer's epoch (enable raced the stamp)
  // clamps to the epoch rather than underflowing.
  Ev.StartNs = StartNsAbs > EpochNs ? StartNsAbs - EpochNs : 0;
  uint64_t RelNow = Now > EpochNs ? Now - EpochNs : 0;
  Ev.DurNs = RelNow > Ev.StartNs ? RelNow - Ev.StartNs : 0;
  S.Buf.push_back(std::move(Ev));
}

thread_local Tracer::ThreadState *Tracer::TLState = nullptr;

Tracer::ThreadState &Tracer::threadState() {
  if (TLState)
    return *TLState;
  return registerThread();
}

Tracer::ThreadState &Tracer::registerThread() {
  std::lock_guard<std::mutex> Lock(Mu);
  auto S = std::make_unique<ThreadState>();
  S->Tid = static_cast<uint32_t>(Threads.size());
  Threads.push_back(std::move(S));
  TLState = Threads.back().get();
  return *TLState;
}

void Tracer::start() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &S : Threads) {
    S->Buf.clear();
    S->Stack.clear();
    S->NextSeq = 0;
  }
  EpochNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  Enabled.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { Enabled.store(false, std::memory_order_relaxed); }

void Tracer::forEachEvent(const std::function<void(const Event &)> &F) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &S : Threads)
    for (const Event &E : S->Buf)
      F(E);
}

size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &S : Threads)
    N += S->Buf.size();
  return N;
}

std::string Tracer::chromeTraceJson() const {
  // Hand-assembled (not via JsonValue) so a large trace serializes in one
  // pass without building a tree; string values still go through the
  // shared escaper.
  std::string Out = "{\"traceEvents\":[";
  bool First = true;
  auto Emit = [&](const std::string &Line) {
    if (!First)
      Out += ',';
    First = false;
    Out += '\n';
    Out += Line;
  };
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &S : Threads) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"thread-%u\"}}",
                  S->Tid, S->Tid);
    Emit(Buf);
    for (const Event &E : S->Buf) {
      std::string Line = "{\"name\":" + jsonQuote(E.Name) +
                         ",\"cat\":\"xsa\",\"ph\":\"X\"";
      std::snprintf(Buf, sizeof(Buf),
                    ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                    static_cast<double>(E.StartNs) / 1e3,
                    static_cast<double>(E.DurNs) / 1e3, E.Tid);
      Line += Buf;
      Line += ",\"args\":{";
      std::snprintf(Buf, sizeof(Buf), "\"span\":%llu,\"parent\":%llu",
                    static_cast<unsigned long long>(E.Id),
                    static_cast<unsigned long long>(E.Parent));
      Line += Buf;
      for (uint8_t I = 0; I < E.NumArgs; ++I) {
        Line += ',';
        Line += jsonQuote(E.Args[I].Key);
        Line += ':';
        double V = E.Args[I].Num;
        if (V == static_cast<double>(static_cast<long long>(V)))
          std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
        else
          std::snprintf(Buf, sizeof(Buf), "%.6g", V);
        Line += Buf;
      }
      for (uint8_t I = 0; I < E.NumStrs; ++I) {
        Line += ',';
        Line += jsonQuote(E.Strs[I].Key);
        Line += ':';
        Line += jsonQuote(E.Strs[I].Val);
      }
      Line += "}}";
      Emit(Line);
    }
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::string Doc = chromeTraceJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Doc.data(), 1, Doc.size(), F);
  bool Ok = Written == Doc.size();
  return std::fclose(F) == 0 && Ok;
}

//===----------------------------------------------------------------------===//
// Span
//===----------------------------------------------------------------------===//

Span::Span(const char *Name) {
  Tracer &T = Tracer::global();
  if (!T.enabled()) {
    // Stage-capture mode: accumulate into the installed scope without
    // recording an event. Off and no scope installed: the zero-cost
    // path — two relaxed loads, no clock read.
    if (T.stageCaptureEnabled() && CurrentStages) {
      Stages = CurrentStages;
      Ev.Name = Name;
      StageStartNs = Tracer::nowNs();
    }
    return;
  }
  Tracer::ThreadState &S = T.threadState();
  State = &S;
  Ev.Name = Name;
  Ev.Tid = S.Tid;
  Ev.Id = (static_cast<uint64_t>(S.Tid) + 1) << 32 | ++S.NextSeq;
  Ev.Parent = S.Stack.empty() ? 0 : S.Stack.back();
  S.Stack.push_back(Ev.Id);
  uint64_t Now = T.nowNs();
  // Relative to the epoch start() recorded; a span opened before start()
  // cannot exist (quiescence contract), so this never underflows.
  Ev.StartNs = Now - T.EpochNs;
}

void Span::arg(const char *Key, double V) {
  if (!State || Ev.NumArgs >= 4)
    return;
  Ev.Args[Ev.NumArgs++] = {Key, V};
}

void Span::arg(const char *Key, std::string V) {
  if (!State || Ev.NumStrs >= 2)
    return;
  Ev.Strs[Ev.NumStrs].Key = Key;
  Ev.Strs[Ev.NumStrs].Val = std::move(V);
  ++Ev.NumStrs;
}

void Span::end() {
  if (Stages) {
    Stages->add(Ev.Name, Tracer::nowNs() - StageStartNs);
    Stages = nullptr;
    return;
  }
  if (!State)
    return;
  Tracer &T = Tracer::global();
  Ev.DurNs = (T.nowNs() - T.EpochNs) - Ev.StartNs;
  // Unbalanced end() calls would indicate a structural bug; pop our own
  // id specifically so a stray early end under an open child degrades to
  // a wrong-parent event rather than corrupting the stack.
  if (!State->Stack.empty() && State->Stack.back() == Ev.Id)
    State->Stack.pop_back();
  if (StageTotals *St = CurrentStages)
    St->add(Ev.Name, Ev.DurNs);
  State->Buf.push_back(std::move(Ev));
  State = nullptr;
}
