//===- bench_server.cpp - xsolved load generator ---------------------------===//
//
// Load generator for the long-lived analysis server (server/Server.h).
// Runs an in-process XsolvedServer on an ephemeral TCP port and drives
// it over real sockets, so accept/framing/admission/sequencing are all
// on the measured path — only the process boundary is elided.
//
// Rows written to BENCH_server.json (closed loop = one outstanding
// request per client, latency measured per request at the client):
//
//   closed_cold_jobsN   4 clients x the same 100 mixed requests, fresh
//                       server
//   closed_warm_jobsN   the same clients' workload repeated against the
//                       now-warm shared cache (the multi-tenant payoff:
//                       hit rate > 0.5 and a wall-clock speedup)
//   closed_disjoint_cold_jobsN
//                       4 clients x 100 requests of their own, fresh
//                       server: 400 distinct solves, so jobs=4 should
//                       take well under half the jobs=1 wall time
//   open_burst          one client floods 200 requests into paused
//                       workers with a small admission bound, then the
//                       workers resume — exercises the overloaded
//                       backpressure path under load
//
// Each closed-loop row is run three times per N, each time on a fresh
// server (cold then warm on the same one), alternating N = 1 and 4; the
// row is the median run, with each run's wall as wall_ms_run1..3. Each
// closed-loop row records wall_ms, cache_hit_rate, client-measured
// p50_ms/p99_ms and throughput_rps; open_burst records the admitted /
// rejected split. CI gates on the p50/p99 fields being present, on the
// median warm run beating the median cold run, and (on hosts with at
// least 4 cores) on the disjoint jobs=4 row taking at most half the
// jobs=1 wall time.
//
// Standalone on purpose (no google-benchmark): CI runs it in every
// Release build the way bench_rewrite and bench_fixpoint already run.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Server.h"
#include "service/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace xsa;
using xsa_bench::BenchJsonWriter;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// The bench_service mixed workload as protocol lines: four request
/// shapes over per-index alphabets, so a 100-line pass holds 100
/// distinct decision problems and a repeat pass holds zero new ones.
std::vector<std::string> workloadLines(size_t N) {
  std::vector<std::string> Lines;
  Lines.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    std::string A = "a" + std::to_string(I);
    std::string B = "b" + std::to_string(I);
    std::string C = "c" + std::to_string(I);
    std::string Id = "q" + std::to_string(I);
    switch (I % 4) {
    case 0:
      Lines.push_back("{\"id\":\"" + Id + "\",\"op\":\"contains\",\"e1\":\"/" +
                      A + "/" + B + "\",\"e2\":\"//" + B + "\"}");
      break;
    case 1:
      Lines.push_back("{\"id\":\"" + Id + "\",\"op\":\"contains\",\"e1\":\"//" +
                      B + "\",\"e2\":\"/" + A + "/" + B + "\"}");
      break;
    case 2:
      Lines.push_back("{\"id\":\"" + Id + "\",\"op\":\"overlap\",\"e1\":\"//" +
                      A + "/" + B + "[" + C + "]\",\"e2\":\"//" + B + "\"}");
      break;
    default:
      Lines.push_back("{\"id\":\"" + Id + "\",\"op\":\"empty\",\"e1\":\"/" +
                      A + "[" + B + " and " + C + "]\"}");
      break;
    }
  }
  return Lines;
}

struct ClientResult {
  std::vector<double> LatenciesMs; ///< closed loop: per-request RTT
  size_t Ok = 0;
  size_t Failed = 0;
};

/// Closed loop: send one request, wait for its response, measure the
/// round trip, repeat. One outstanding request per client.
ClientResult runClosedLoop(int Port, const std::vector<std::string> &Lines) {
  ClientResult R;
  LineClient C;
  std::string Error;
  if (!C.connectTcp("127.0.0.1", Port, Error)) {
    std::fprintf(stderr, "bench_server: connect failed: %s\n", Error.c_str());
    return R;
  }
  R.LatenciesMs.reserve(Lines.size());
  std::string Resp;
  for (const std::string &L : Lines) {
    auto T0 = std::chrono::steady_clock::now();
    if (!C.sendLine(L) || !C.recvLine(Resp)) {
      ++R.Failed;
      break;
    }
    R.LatenciesMs.push_back(msSince(T0));
    if (Resp.find("\"ok\":true") != std::string::npos)
      ++R.Ok;
    else
      ++R.Failed;
  }
  return R;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  return Sorted[Idx];
}

/// What one closed-loop pass measured.
struct ClosedLoopPass {
  double WallMs = 0;
  double HitRate = 0;
  size_t Clients = 0;
  size_t Requests = 0;
  size_t Failed = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  double Rps = 0;
};

/// The lines each client of a closed-loop pass sends, one list each.
using ClientLines = std::vector<std::vector<std::string>>;

/// One closed-loop pass: one client thread per entry of \p Lines, each
/// running its own lines against the server, latencies merged across
/// clients.
ClosedLoopPass runClosedLoopPass(XsolvedServer &Server,
                                 const ClientLines &Lines) {
  const size_t Clients = Lines.size();
  SessionStats Before = Server.session().stats();
  std::vector<ClientResult> Results(Clients);
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      Results[I] = runClosedLoop(Server.tcpPort(), Lines[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  ClosedLoopPass P;
  P.WallMs = msSince(T0);
  P.Clients = Clients;

  std::vector<double> All;
  size_t Ok = 0;
  for (const ClientResult &R : Results) {
    All.insert(All.end(), R.LatenciesMs.begin(), R.LatenciesMs.end());
    Ok += R.Ok;
    P.Failed += R.Failed;
  }
  std::sort(All.begin(), All.end());
  P.Requests = Ok + P.Failed;
  P.P50Ms = percentile(All, 0.5);
  P.P99Ms = percentile(All, 0.99);

  // Hit rate of THIS pass, not of the session's whole life — the warm
  // row must report warm hits, not an average with its own cold pass.
  SessionStats After = Server.session().stats();
  size_t Hits = After.Cache.Hits - Before.Cache.Hits;
  size_t Lookups = Hits + (After.Cache.Misses - Before.Cache.Misses);
  P.HitRate = Lookups ? static_cast<double>(Hits) / Lookups : 0;
  P.Rps = P.WallMs > 0 ? 1000.0 * static_cast<double>(P.Requests) / P.WallMs
                       : 0;
  return P;
}

void printPass(const std::string &Name, const ClosedLoopPass &P) {
  std::printf("%-26s wall %8.1f ms  hit %.2f  p50 %6.2f ms  p99 %6.2f ms  "
              "%7.0f req/s\n",
              Name.c_str(), P.WallMs, P.HitRate, P.P50Ms, P.P99Ms, P.Rps);
}

void recordPass(BenchJsonWriter &Out, const std::string &Name,
                const ClosedLoopPass &P,
                std::vector<std::pair<std::string, double>> Extra = {}) {
  std::vector<std::pair<std::string, double>> Fields = {
      {"clients", static_cast<double>(P.Clients)},
      {"requests", static_cast<double>(P.Requests)},
      {"failed", static_cast<double>(P.Failed)},
      {"p50_ms", P.P50Ms},
      {"p99_ms", P.P99Ms},
      {"throughput_rps", P.Rps}};
  Fields.insert(Fields.end(), Extra.begin(), Extra.end());
  Out.record(Name, P.WallMs, P.HitRate, std::move(Fields));
}

/// Runs \p Rows against a fresh server with \p Jobs workers, then drains
/// it. False when the server does not start.
bool withServer(size_t Jobs,
                const std::function<void(XsolvedServer &)> &Rows) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Session.Jobs = Jobs;
  XsolvedServer Server(Opts);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "bench_server: %s\n", Error.c_str());
    return false;
  }
  Rows(Server);
  Server.drainAndWait();
  return true;
}

/// Open loop: pipeline the whole burst without waiting, against paused
/// workers and a small admission bound, then resume. The
/// interesting numbers are the admitted/rejected split and that the
/// server stays responsive (every request gets exactly one answer).
void openBurstRow(BenchJsonWriter &Out) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.QueueLimit = 16;
  Opts.Session.Jobs = 2;
  XsolvedServer Server(Opts);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "bench_server: %s\n", Error.c_str());
    return;
  }
  std::vector<std::string> Lines = workloadLines(200);
  Server.session().debugPause(true);
  LineClient C;
  if (!C.connectTcp("127.0.0.1", Server.tcpPort(), Error)) {
    std::fprintf(stderr, "bench_server: connect failed: %s\n", Error.c_str());
    Server.drainAndWait();
    return;
  }
  auto T0 = std::chrono::steady_clock::now();
  for (const std::string &L : Lines)
    if (!C.sendLine(L))
      break;
  Server.session().debugPause(false);
  size_t Answered = 0, Overloaded = 0;
  std::string Resp;
  for (size_t I = 0; I < Lines.size(); ++I) {
    if (!C.recvLine(Resp))
      break;
    if (Resp.find("\"code\":\"overloaded\"") != std::string::npos)
      ++Overloaded;
    else
      ++Answered;
  }
  double WallMs = msSince(T0);
  Server.drainAndWait();
  Out.record("open_burst", WallMs, 0,
             {{"requests", static_cast<double>(Lines.size())},
              {"answered", static_cast<double>(Answered)},
              {"rejected_overloaded", static_cast<double>(Overloaded)},
              {"queue_limit", static_cast<double>(Opts.QueueLimit)}});
  std::printf("%-22s wall %8.1f ms  answered %zu  overloaded %zu (limit "
              "%zu)\n",
              "open_burst", WallMs, Answered, Overloaded, Opts.QueueLimit);
}

/// Slow-query capture gate: with the threshold at 0 every request is a
/// tail event, so after N requests the slowlog must hold N entries,
/// each carrying its propagated request id and a per-stage breakdown
/// with the "request" row. Nonzero exit on any miss — this is the CI
/// check that tail sampling actually captures.
bool slowlogCaptureCheck() {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.SlowThresholdMs = 0;
  Opts.Session.Jobs = 2;
  XsolvedServer Server(Opts);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "bench_server: %s\n", Error.c_str());
    return false;
  }
  LineClient C;
  if (!C.connectTcp("127.0.0.1", Server.tcpPort(), Error)) {
    std::fprintf(stderr, "bench_server: connect failed: %s\n", Error.c_str());
    Server.drainAndWait();
    return false;
  }
  std::vector<std::string> Lines = workloadLines(16);
  std::string Resp;
  for (const std::string &L : Lines)
    if (!C.sendLine(L) || !C.recvLine(Resp)) {
      Server.drainAndWait();
      return false;
    }
  if (!C.sendLine("{\"op\":\"slowlog\"}") || !C.recvLine(Resp)) {
    Server.drainAndWait();
    return false;
  }
  Server.drainAndWait();

  JsonRef R = parseJson(Resp, Error);
  if (!R || R->type() != JsonValue::Type::Object) {
    std::fprintf(stderr, "bench_server: slowlog response unparsable: %s\n",
                 Error.c_str());
    return false;
  }
  const std::vector<JsonRef> &Entries =
      R->get("slowlog")->get("entries")->items();
  bool Ok = Entries.size() >= Lines.size();
  if (!Ok)
    std::fprintf(stderr,
                 "bench_server: slowlog captured %zu/%zu requests at "
                 "threshold 0\n",
                 Entries.size(), Lines.size());
  for (const JsonRef &E : Entries) {
    if (E->str("rid").empty()) {
      std::fprintf(stderr, "bench_server: slowlog entry without rid\n");
      Ok = false;
    }
    if (!E->get("stages")->has("request")) {
      std::fprintf(stderr,
                   "bench_server: slowlog entry without a request stage\n");
      Ok = false;
    }
  }
  std::printf("%-22s captured %zu/%zu with rid+stages: %s\n",
              "slowlog_capture", Entries.size(), Lines.size(),
              Ok ? "ok" : "FAIL");
  return Ok;
}

/// Overhead report: warm closed-loop p50 with the always-on observability
/// (stage capture + logging) as the server runs it, vs with stage capture
/// forced off — the cost of being able to tail-sample every request.
/// Report only, no gate: a sub-5% delta on sub-ms requests is noise-prone
/// on shared CI runners; the recorded row is the trend line.
void obsOverheadRow(BenchJsonWriter &Out) {
  ServerOptions Opts;
  Opts.TcpPort = 0;
  Opts.Session.Jobs = 1;
  XsolvedServer Server(Opts);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "bench_server: %s\n", Error.c_str());
    return;
  }
  std::vector<std::string> Lines = workloadLines(100);
  runClosedLoop(Server.tcpPort(), Lines); // warm the shared cache
  auto WarmP50 = [&] {
    ClientResult R = runClosedLoop(Server.tcpPort(), Lines);
    std::sort(R.LatenciesMs.begin(), R.LatenciesMs.end());
    return percentile(R.LatenciesMs, 0.5);
  };
  double OnMs = WarmP50();
  Tracer::global().setStageCapture(false);
  double OffMs = WarmP50();
  Tracer::global().setStageCapture(true);
  Server.drainAndWait();
  double Pct = OffMs > 0 ? (OnMs - OffMs) / OffMs * 100.0 : 0;
  Out.record("obs_overhead_warm", OnMs, 0,
             {{"p50_capture_on_ms", OnMs},
              {"p50_capture_off_ms", OffMs},
              {"overhead_pct", Pct}});
  std::printf("%-22s p50 on %6.3f ms  off %6.3f ms  overhead %+.1f%%\n",
              "obs_overhead_warm", OnMs, OffMs, Pct);
}

/// One closed-loop pass in a fresh server's life: its rows' name prefix
/// and the lines each client sends.
struct PassSpec {
  std::string Name;
  const ClientLines &Lines;
};

/// Runs \p Passes in order on a fresh server, RowRuns times at each of
/// jobs 1 and 4, alternating the two so that a change in host load
/// reaches both. Each <Name>_jobsN row is the pass's median run (by wall
/// time), with every run's wall time in run order as wall_ms_run1..N, so
/// one stalled run cannot decide a gate alone. False when a server does
/// not start.
bool medianRows(BenchJsonWriter &Out, const std::vector<PassSpec> &Passes) {
  constexpr size_t RowRuns = 3;
  const size_t JobCounts[] = {1, 4};
  auto RowName = [&](size_t P, size_t J) {
    return Passes[P].Name + "_jobs" + std::to_string(JobCounts[J]);
  };
  // Runs[J][P]: pass P's runs at JobCounts[J], in run order.
  std::vector<std::vector<ClosedLoopPass>> Runs[2];
  for (auto &R : Runs)
    R.resize(Passes.size());
  for (size_t Run = 0; Run < RowRuns; ++Run)
    for (size_t J = 0; J < 2; ++J)
      if (!withServer(JobCounts[J], [&](XsolvedServer &Server) {
            for (size_t P = 0; P < Passes.size(); ++P) {
              Runs[J][P].push_back(runClosedLoopPass(Server, Passes[P].Lines));
              printPass(RowName(P, J) + " run " + std::to_string(Run + 1),
                        Runs[J][P].back());
            }
          }))
        return false;
  for (size_t J = 0; J < 2; ++J)
    for (size_t P = 0; P < Passes.size(); ++P) {
      std::vector<std::pair<std::string, double>> Walls;
      for (size_t Run = 0; Run < RowRuns; ++Run)
        Walls.push_back(
            {"wall_ms_run" + std::to_string(Run + 1), Runs[J][P][Run].WallMs});
      std::vector<ClosedLoopPass> ByWall = Runs[J][P];
      std::sort(ByWall.begin(), ByWall.end(),
                [](const ClosedLoopPass &A, const ClosedLoopPass &B) {
                  return A.WallMs < B.WallMs;
                });
      recordPass(Out, RowName(P, J), ByWall[RowRuns / 2], std::move(Walls));
      printPass(RowName(P, J) + " median", ByWall[RowRuns / 2]);
    }
  return true;
}

} // namespace

int main() {
  BenchJsonWriter Out("BENCH_server.json");
  const size_t Clients = 4, PerClient = 100;
  // Shared: every client sends the same lines. Disjoint: client I sends
  // lines [I * PerClient, (I + 1) * PerClient) of one longer workload.
  ClientLines Shared(Clients, workloadLines(PerClient));
  std::vector<std::string> All = workloadLines(Clients * PerClient);
  ClientLines Disjoint;
  for (size_t I = 0; I < Clients; ++I)
    Disjoint.emplace_back(All.begin() + I * PerClient,
                          All.begin() + (I + 1) * PerClient);

  if (!medianRows(Out, {{"closed_cold", Shared}, {"closed_warm", Shared}}) ||
      !medianRows(Out, {{"closed_disjoint_cold", Disjoint}}))
    return 1;

  openBurstRow(Out);
  obsOverheadRow(Out);
  bool CaptureOk = slowlogCaptureCheck();
  Out.write();
  return CaptureOk ? 0 : 1;
}
