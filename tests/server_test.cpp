//===- server_test.cpp - xsolved server tests ------------------------------===//
//
// In-process tests of server/Server.h: an XsolvedServer on an ephemeral
// TCP port, driven by LineClient connections from test threads.
//
// The load-bearing property is the shared-session determinism contract:
// concurrent clients reading through one shared cache receive responses
// byte-identical to a serial `xsolve batch --stable` run of the same
// lines, and identical requests in flight reach the fixpoint once.
// Admission control (overloaded), deadlines (deadline_exceeded), the
// in-flight rule and graceful drain (draining) are exercised
// deterministically through the session's debugPause test hook.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "obs/SlowQuery.h"
#include "server/Client.h"
#include "server/Server.h"
#include "service/Batch.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace xsa;

namespace {

/// A mixed workload as raw protocol lines: containment both ways,
/// overlap, emptiness, plus one malformed request (missing e2) so the
/// error path is part of the byte-identity contract too.
std::vector<std::string> workloadLines(size_t N = 16) {
  std::vector<std::string> Lines;
  for (size_t I = 0; I < N; ++I) {
    std::string A = "a" + std::to_string(I);
    std::string B = "b" + std::to_string(I);
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
                      A + "/" + B + "\",\"e2\":\"//" + B + "\"}");
      break;
    default:
      // Malformed on purpose: containment without e2.
      Lines.push_back("{\"id\":\"" + Id + "\",\"op\":\"contains\",\"e1\":\"/" +
                      A + "\"}");
      break;
    }
  }
  return Lines;
}

/// The serial reference: the same lines through `xsolve batch --stable`
/// on a fresh session.
std::string serialReference(const std::vector<std::string> &Lines) {
  std::string Input;
  for (const std::string &L : Lines)
    Input += L + "\n";
  std::istringstream In(Input);
  std::ostringstream Out;
  AnalysisSession Session;
  BatchStreamOptions Opts;
  Opts.Stable = true;
  runBatchJsonLines(Session, In, Out, nullptr, Opts);
  return Out.str();
}

struct ServerFixture {
  explicit ServerFixture(ServerOptions Opts) : Server(std::move(Opts)) {
    std::string Error;
    if (!Server.start(Error))
      ADD_FAILURE() << "server start failed: " << Error;
  }
  ~ServerFixture() { Server.drainAndWait(); }

  LineClient connect() {
    LineClient C;
    std::string Error;
    EXPECT_TRUE(C.connectTcp("127.0.0.1", Server.tcpPort(), Error)) << Error;
    return C;
  }

  XsolvedServer Server;
};

ServerOptions stableServerOptions(size_t Jobs = 2) {
  ServerOptions Opts;
  Opts.TcpPort = 0; // ephemeral
  Opts.DefaultStable = true;
  Opts.Session.Jobs = Jobs;
  return Opts;
}

/// Sends every line, then reads one response per line (the server
/// answers in request order per connection).
std::string runClient(LineClient &C, const std::vector<std::string> &Lines) {
  for (const std::string &L : Lines)
    EXPECT_TRUE(C.sendLine(L));
  std::string Out;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Resp;
    if (!C.recvLine(Resp)) {
      ADD_FAILURE() << "connection closed after " << I << "/" << Lines.size()
                    << " responses";
      break;
    }
    Out += Resp + "\n";
  }
  return Out;
}

} // namespace

TEST(Server, StartPingDrain) {
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"p\",\"op\":\"ping\"}"));
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_EQ(Resp, "{\"id\":\"p\",\"ok\":true,\"op\":\"ping\"}");
  F.Server.drainAndWait();
}

TEST(Server, SingleClientMatchesSerialBatch) {
  std::vector<std::string> Lines = workloadLines();
  std::string Reference = serialReference(Lines);
  ServerFixture F(stableServerOptions(2));
  LineClient C = F.connect();
  EXPECT_EQ(runClient(C, Lines), Reference);
}

TEST(Server, ConcurrentClientsGetByteIdenticalResponses) {
  std::vector<std::string> Lines = workloadLines(24);
  std::string Reference = serialReference(Lines);
  ServerFixture F(stableServerOptions(2));

  // Two clients race the same workload through the shared session. The
  // shared cache means most of one client's requests are answered from
  // the other's solves — and the stable encoding hides exactly that, so
  // both transcripts must equal the serial reference byte for byte.
  std::string Got[2];
  std::thread T[2];
  for (int I = 0; I < 2; ++I)
    T[I] = std::thread([&, I] {
      LineClient C = F.connect();
      Got[I] = runClient(C, Lines);
    });
  for (auto &Th : T)
    Th.join();
  EXPECT_EQ(Got[0], Reference);
  EXPECT_EQ(Got[1], Reference);

  // The shared cache was actually shared: the 24 lines hold 18 distinct
  // well-formed requests, and each reached the fixpoint once. A request
  // identical to one in flight runs after it on the same worker (the
  // session's in-flight rule), so the other client's copy is a hit.
  SessionStats S = F.Server.session().stats();
  EXPECT_EQ(S.Solves, 18u);
  EXPECT_EQ(S.Cache.Hits, 18u);
}

TEST(Server, IdenticalRequestsInFlightSolveOnce) {
  // Two connections admit the same request while the session is paused;
  // on resume both workers pop at once. The second finds the first's
  // key running and hands its item over: one solve, one hit.
  ServerFixture F(stableServerOptions(2));
  F.Server.session().debugPause(true);
  auto Ns = F.Server.namespaceState("default");
  const std::string Line =
      "{\"id\":\"dup\",\"op\":\"contains\",\"e1\":\"/a/b\",\"e2\":\"//b\"}";
  LineClient A = F.connect();
  LineClient B = F.connect();
  ASSERT_TRUE(A.sendLine(Line));
  ASSERT_TRUE(B.sendLine(Line));
  for (int I = 0; I < 500 && Ns->Requests.load() < 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(Ns->Requests.load(), 2u);
  F.Server.session().debugPause(false);
  std::string RA, RB;
  ASSERT_TRUE(A.recvLine(RA));
  ASSERT_TRUE(B.recvLine(RB));
  EXPECT_EQ(RA + "\n", serialReference({Line}));
  EXPECT_EQ(RB, RA);
  EXPECT_NE(RA.find("\"ok\":true,\"holds\":true"), std::string::npos) << RA;
  SessionStats S = F.Server.session().stats();
  EXPECT_EQ(S.Solves, 1u);
  EXPECT_EQ(S.Cache.Hits, 1u);
}

TEST(Server, ControlLinesSeeEveryEarlierLineAnswered) {
  // A control line is answered once every earlier line of its
  // connection is, as in `xsolve batch`: a stats line pipelined behind a
  // request still queued counts that request's solve, and nothing of
  // the namespace is in flight any more.
  ServerFixture F(stableServerOptions(1));
  F.Server.session().debugPause(true);
  auto Ns = F.Server.namespaceState("default");
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"q\",\"op\":\"contains\","
                         "\"e1\":\"/cl1/x\",\"e2\":\"//x\"}"));
  for (int I = 0; I < 500 && Ns->Requests.load() < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(Ns->Requests.load(), 1u);
  ASSERT_TRUE(C.sendLine("{\"id\":\"s\",\"op\":\"stats\"}"));
  // Give the reader time to read the stats line while the request waits.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  F.Server.session().debugPause(false);
  std::string Resp, Error;
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_NE(Resp.find("\"id\":\"q\",\"ok\":true"), std::string::npos) << Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_EQ(R->str("id"), "s");
  EXPECT_NE(Resp.find("\"solves\":1,"), std::string::npos) << Resp;
  EXPECT_EQ(R->get("stats")->get("solves")->asNumber(), 1) << Resp;
  EXPECT_EQ(R->get("namespaces")->get("default")->get("in_flight")->asNumber(),
            0)
      << Resp;
}

TEST(Server, ConfigLineAppliesOnlyToLaterLines) {
  // A config line applies to every later line and to no earlier one,
  // even when the earlier one is still queued as the line is read.
  ServerFixture F(stableServerOptions(1));
  F.Server.session().debugPause(true);
  auto Ns = F.Server.namespaceState("default");
  LineClient C = F.connect();
  const std::string Line =
      "{\"id\":\"r\",\"op\":\"contains\",\"e1\":\"/cf1/x\",\"e2\":\"//x\"}";
  ASSERT_TRUE(C.sendLine(Line));
  for (int I = 0; I < 500 && Ns->Requests.load() < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(Ns->Requests.load(), 1u);
  ASSERT_TRUE(C.sendLine("{\"op\":\"config\",\"stable\":false}"));
  ASSERT_TRUE(C.sendLine(Line));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  F.Server.session().debugPause(false);
  std::string First, Config, Third;
  ASSERT_TRUE(C.recvLine(First));
  ASSERT_TRUE(C.recvLine(Config));
  ASSERT_TRUE(C.recvLine(Third));
  EXPECT_EQ(First + "\n", serialReference({Line}));
  EXPECT_EQ(First.find("\"cache\""), std::string::npos) << First;
  EXPECT_NE(Config.find("\"stable\":false"), std::string::npos) << Config;
  EXPECT_NE(Third.find("\"cache\":\"hit\""), std::string::npos) << Third;
}

TEST(Server, PipelinedFloodNeverBlocksTheServer) {
  // Regression: responses used to be sent synchronously by whichever
  // server thread produced them (reader for control ops, dispatcher
  // for analysis responses). A client that pipelines a large file
  // before reading anything fills its own receive buffer, the send
  // then blocked that server thread, the server stopped reading, the
  // client's send blocked in turn — mutual deadlock. Responses now
  // park in a per-connection buffer drained by a writer thread, so
  // this flood must complete.
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  // Padded ids make ~7 MB of requests and ~7 MB of echoed responses:
  // comfortably past the kernel socket buffers in both directions.
  const size_t N = 30000;
  const std::string Pad(200, 'x');
  for (size_t I = 0; I < N; ++I)
    ASSERT_TRUE(C.sendLine("{\"id\":\"" + Pad + std::to_string(I) +
                           "\",\"op\":\"ping\"}"));
  for (size_t I = 0; I < N; ++I) {
    std::string Resp;
    ASSERT_TRUE(C.recvLine(Resp)) << "response " << I << " of " << N;
    EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos);
  }
}

TEST(Server, OutboundOverflowDropsOnlyTheGuiltyConnection) {
  // The outbound bound is enforced inside Connection::answer(), under
  // the same lock that counts the response line — so one response larger
  // than the bound trips the drop deterministically, with no dependence
  // on kernel socket buffer sizes or client pacing.
  ServerOptions Opts = stableServerOptions(1);
  Opts.MaxOutboundBytes = size_t(1) << 12;
  ServerFixture F(Opts);
  LineClient Bad = F.connect();
  // The echoed 8 KiB id makes the response overflow the 4 KiB bound:
  // the server must drop the connection rather than buffer past it.
  ASSERT_TRUE(
      Bad.sendLine("{\"id\":\"" + std::string(8192, 'y') + "\",\"op\":\"ping\"}"));
  std::string Resp;
  EXPECT_FALSE(Bad.recvLine(Resp)) << "oversized response was not dropped";
  // Another tenant is completely unaffected by the dropped flooder.
  LineClient Good = F.connect();
  ASSERT_TRUE(Good.sendLine("{\"id\":\"g\",\"op\":\"ping\"}"));
  ASSERT_TRUE(Good.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos);
}

TEST(Server, AnswersHeldInOrderCountTowardTheOutboundBound) {
  // The bound covers every answer a connection holds, not only those
  // released to its writer: an answer waiting behind an earlier line's
  // counts from the moment it exists. With the first line queued, eight
  // inline answers echoing 1 KiB ids overflow the 4 KiB bound, and the
  // connection is dropped before that line is answered (the 10 s
  // watchdog is polled, so an unbounded server fails instead of hanging).
  ServerOptions Opts = stableServerOptions(1);
  Opts.MaxOutboundBytes = size_t(1) << 12;
  ServerFixture F(Opts);
  F.Server.session().debugPause(true);
  auto Ns = F.Server.namespaceState("default");
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"q\",\"op\":\"contains\","
                         "\"e1\":\"/ob1/x\",\"e2\":\"//x\"}"));
  for (int I = 0; I < 500 && Ns->Requests.load() < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(Ns->Requests.load(), 1u);
  for (int I = 0; I < 8; ++I)
    if (!C.sendLine("{\"id\":\"" + std::string(1024, 'z') + std::to_string(I) +
                    "\",\"op\":\"nope\"}"))
      break; // already dropped
  std::string Resp;
  bool Closed = false;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Closed && std::chrono::steady_clock::now() < Deadline) {
    EXPECT_FALSE(C.pollLine(Resp, Closed)) << Resp;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  F.Server.session().debugPause(false);
  EXPECT_TRUE(Closed) << "answers held behind a queued line were not bounded";
}

TEST(Server, DeadlineExpiredInQueueIsRejectedStructurally) {
  ServerFixture F(stableServerOptions(1));
  F.Server.session().debugPause(true);
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"d\",\"op\":\"contains\",\"e1\":\"/a/b\","
                         "\"e2\":\"//b\",\"deadline_ms\":1}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  F.Server.session().debugPause(false);
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  std::string Error;
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_EQ(R->str("id"), "d");
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "deadline_exceeded");
  auto Ns = F.Server.namespaceState("default");
  EXPECT_EQ(Ns->DeadlineMisses.load(), 1u);
}

TEST(Server, DistantDeadlineMeansNoDeadline) {
  // A deadline the steady clock cannot reach is no deadline. In
  // nanoseconds 2e13 ms overflows uint64_t and "1e400" parses to
  // infinity; neither may turn into an already-expired deadline. Huge
  // priorities are clamped the same way.
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  for (const char *Far : {"2e13", "1e400"}) {
    SCOPED_TRACE(Far);
    ASSERT_TRUE(C.sendLine(std::string("{\"id\":\"far\",\"op\":\"contains\","
                                       "\"e1\":\"/a/b\",\"e2\":\"//b\","
                                       "\"priority\":-1e300,\"deadline_ms\":") +
                           Far + "}"));
    std::string Resp;
    ASSERT_TRUE(C.recvLine(Resp));
    std::string Error;
    JsonRef R = parseJson(Resp, Error);
    ASSERT_NE(R, nullptr) << Error;
    EXPECT_EQ(R->str("id"), "far");
    EXPECT_TRUE(R->get("ok")->asBool()) << Resp;
    EXPECT_TRUE(R->get("holds")->asBool()) << Resp;
  }
  EXPECT_EQ(F.Server.namespaceState("default")->DeadlineMisses.load(), 0u);
  // Record counts past size_t's range are clamped, not cast.
  for (const char *Op : {"slowlog", "log"}) {
    SCOPED_TRACE(Op);
    ASSERT_TRUE(C.sendLine(std::string("{\"id\":\"n\",\"op\":\"") + Op +
                           "\",\"n\":1e400}"));
    std::string Resp;
    ASSERT_TRUE(C.recvLine(Resp));
    EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;
  }
}

TEST(Server, FullQueueRejectsWithOverloaded) {
  ServerOptions Opts = stableServerOptions(1);
  Opts.QueueLimit = 3;
  ServerFixture F(Opts);
  F.Server.session().debugPause(true);
  LineClient C = F.connect();
  // 8 requests into a paused server with a queue bound of 3: the first
  // 3 are admitted, the next 5 must be rejected immediately — the
  // admission path never blocks the client and never crashes.
  std::vector<std::string> Lines;
  for (int I = 0; I < 8; ++I)
    Lines.push_back("{\"id\":\"o" + std::to_string(I) +
                    "\",\"op\":\"contains\",\"e1\":\"/a/b\",\"e2\":\"//b\"}");
  for (const std::string &L : Lines)
    ASSERT_TRUE(C.sendLine(L));
  // Unpausing early would let the workers free queue slots while the
  // reader is still admitting; wait for all 5 rejections (counted at
  // admission) so the overload split is deterministic.
  auto Ns = F.Server.namespaceState("default");
  for (int I = 0; I < 500 && Ns->Rejections.load() < 5; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  F.Server.session().debugPause(false);
  size_t Overloaded = 0, Answered = 0;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Resp;
    ASSERT_TRUE(C.recvLine(Resp));
    std::string Error;
    JsonRef R = parseJson(Resp, Error);
    ASSERT_NE(R, nullptr) << Error;
    EXPECT_EQ(R->str("id"), "o" + std::to_string(I)) << "order preserved";
    if (R->get("ok")->asBool())
      ++Answered;
    else if (R->get("error")->str("code") == "overloaded")
      ++Overloaded;
  }
  EXPECT_EQ(Answered, 3u);
  EXPECT_EQ(Overloaded, 5u);
  EXPECT_EQ(Ns->Rejections.load(), 5u);
}

TEST(Server, HigherPriorityJobsDispatchFirst) {
  ServerFixture F(stableServerOptions(1));
  F.Server.session().debugPause(true);
  LineClient C = F.connect();
  // Admitted while paused: a low-priority pair then a high-priority
  // request. On resume the high-priority one must solve first — its
  // distinct query is the only cache miss whose solve precedes the
  // others in the session tally. Responses still arrive in request
  // order (the connection's OrderedRun orders answers, not execution).
  ASSERT_TRUE(C.sendLine("{\"id\":\"lo\",\"op\":\"contains\","
                         "\"e1\":\"/lo1/x\",\"e2\":\"//x\"}"));
  ASSERT_TRUE(C.sendLine("{\"id\":\"hi\",\"op\":\"contains\","
                         "\"e1\":\"/hi1/x\",\"e2\":\"//x\",\"priority\":5}"));
  // Give the reader time to admit both before resuming, so the
  // priority queue actually holds the pair at once.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  F.Server.session().debugPause(false);
  std::string R1, R2;
  ASSERT_TRUE(C.recvLine(R1));
  ASSERT_TRUE(C.recvLine(R2));
  EXPECT_NE(R1.find("\"id\":\"lo\""), std::string::npos);
  EXPECT_NE(R2.find("\"id\":\"hi\""), std::string::npos);
  EXPECT_NE(R1.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(R2.find("\"ok\":true"), std::string::npos);
}

TEST(Server, FastRequestIsNotHeldBehindASlowOne) {
  // Two workers, two connections, both requests queued while paused:
  // Table 2's row 1 (over 100 ms even in a Release build) on A, then a
  // problem of a few milliseconds on B. Each worker finishes its own
  // request, so B's answer arrives while A's solve is still running.
  ServerFixture F(stableServerOptions(2));
  F.Server.session().debugPause(true);
  auto Ns = F.Server.namespaceState("default");
  LineClient A = F.connect();
  LineClient B = F.connect();
  ASSERT_TRUE(A.sendLine("{\"id\":\"slow\",\"op\":\"contains\","
                         "\"e1\":\"/a[.//b[c/*//d]/b[c//d]/b[c/d]]\","
                         "\"e2\":\"/a[.//b[c/*//d]/b[c/d]]\"}"));
  // Admitted first, A is popped first.
  for (int I = 0; I < 500 && Ns->Requests.load() < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(B.sendLine("{\"id\":\"fast\",\"op\":\"contains\","
                         "\"e1\":\"/f1/x\",\"e2\":\"//x\"}"));
  for (int I = 0; I < 500 && Ns->Requests.load() < 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  F.Server.session().debugPause(false);

  std::string Resp;
  ASSERT_TRUE(B.recvLine(Resp));
  EXPECT_NE(Resp.find("\"id\":\"fast\",\"ok\":true"), std::string::npos)
      << Resp;
  std::string SlowResp;
  bool Closed = false;
  bool SlowFirst = A.pollLine(SlowResp, Closed);
  EXPECT_FALSE(SlowFirst) << "A answered first: " << SlowResp;
  ASSERT_TRUE(B.sendLine("{\"op\":\"status\"}"));
  ASSERT_TRUE(B.recvLine(Resp));
  std::string Error;
  JsonRef S = parseJson(Resp, Error);
  ASSERT_NE(S, nullptr) << Error;
  EXPECT_EQ(S->get("status")->get("in_flight")->asNumber(), 1) << Resp;
  if (!SlowFirst) {
    ASSERT_TRUE(A.recvLine(SlowResp));
  }
  EXPECT_NE(SlowResp.find("\"id\":\"slow\",\"ok\":true"),
            std::string::npos)
      << SlowResp;
}

TEST(Server, DrainRejectsNewWorkButFinishesAdmitted) {
  std::string CacheFile =
      ::testing::TempDir() + "/xsolved_drain_cache.json";
  std::remove(CacheFile.c_str());
  ServerOptions Opts = stableServerOptions(2);
  Opts.CacheFile = CacheFile;
  auto F = std::make_unique<ServerFixture>(Opts);
  LineClient C = F->connect();
  std::vector<std::string> Lines = workloadLines(8);
  for (const std::string &L : Lines)
    ASSERT_TRUE(C.sendLine(L));
  F->Server.requestDrain();
  // Everything admitted before the drain is still answered, in order.
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Resp;
    ASSERT_TRUE(C.recvLine(Resp)) << "response " << I << " lost in drain";
  }
  // New analysis work on the still-open connection is rejected with the
  // draining code (control responses may take a moment as the reader is
  // fully asynchronous to wait(), so tolerate the shutdown race by
  // accepting either the rejection or a closed connection).
  if (C.sendLine("{\"id\":\"late\",\"op\":\"contains\",\"e1\":\"/a/b\","
                 "\"e2\":\"//b\"}")) {
    std::string Resp;
    if (C.recvLine(Resp)) {
      std::string Error;
      JsonRef R = parseJson(Resp, Error);
      ASSERT_NE(R, nullptr) << Error;
      EXPECT_FALSE(R->get("ok")->asBool());
      EXPECT_EQ(R->get("error")->str("code"), "draining");
    }
  }
  F->Server.wait();
  F.reset(); // destructor re-drains; must be idempotent
  std::ifstream Probe(CacheFile);
  EXPECT_TRUE(Probe.good()) << "drain must persist the cache file";
  std::remove(CacheFile.c_str());
}

TEST(Server, ProtocolHardeningMatchesBatchDriver) {
  ServerOptions Opts = stableServerOptions(1);
  Opts.MaxLineBytes = 128;
  ServerFixture F(Opts);
  LineClient C = F.connect();

  // Malformed JSON: structured bad_request with the line number and the
  // parser's byte offset.
  ASSERT_TRUE(C.sendLine("{\"op\":\"contains\",,}"));
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  std::string Error;
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "bad_request");
  EXPECT_EQ(R->get("error")->get("line")->asNumber(), 1);
  EXPECT_GT(R->get("error")->get("byte")->asNumber(), 0);

  // Unknown op.
  ASSERT_TRUE(C.sendLine("{\"id\":\"u\",\"op\":\"frobnicate\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "bad_request");
  EXPECT_NE(R->get("error")->str("message").find("unknown op"),
            std::string::npos);

  // Oversized line: consumed (not buffered), answered structurally, and
  // the connection keeps working afterwards.
  std::string Long = "{\"op\":\"contains\",\"e1\":\"/" +
                     std::string(300, 'a') + "\",\"e2\":\"//b\"}";
  ASSERT_TRUE(C.sendLine(Long));
  ASSERT_TRUE(C.recvLine(Resp));
  R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_NE(R->get("error")->str("message").find("exceeds"),
            std::string::npos);
  ASSERT_TRUE(C.sendLine("{\"id\":\"after\",\"op\":\"ping\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos);
}

TEST(Server, UndeclaredDtdElementIsAnsweredAndTheServerGoesOn) {
  // A DTD naming an element it never declares is a bad request, not a
  // crash: xsolved answers it and then the next request on a fresh
  // connection.
  std::string Dtd = ::testing::TempDir() + "/xsolved_undeclared.dtd";
  std::ofstream(Dtd) << "<!ELEMENT a (b)>\n";
  ServerFixture F(stableServerOptions(2));
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"bad\",\"op\":\"empty\",\"e1\":\"/a\","
                         "\"dtd\":\"" + Dtd + "\"}"));
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  std::string Error;
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_EQ(R->str("id"), "bad");
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "bad_request");
  EXPECT_NE(R->get("error")->str("message").find("'b'"), std::string::npos)
      << Resp;
  LineClient Next = F.connect();
  ASSERT_TRUE(Next.sendLine("{\"id\":\"next\",\"op\":\"contains\","
                            "\"e1\":\"/a/b\",\"e2\":\"//b\"}"));
  ASSERT_TRUE(Next.recvLine(Resp));
  EXPECT_NE(Resp.find("\"id\":\"next\",\"ok\":true"), std::string::npos)
      << Resp;
  std::remove(Dtd.c_str());
}

TEST(Server, FifoNamedAsDtdIsRefusedAndTheServerGoesOn) {
  // A request may name a FIFO that nothing ever writes to as its DTD.
  // Opened blocking, it would hold the only worker forever; the loader
  // refuses it at once, so both answers arrive well within the 10 s
  // watchdog (polled, so a wedged server fails instead of hanging).
  std::string Fifo = ::testing::TempDir() + "/xsolved_dtd.fifo";
  std::remove(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"fifo\",\"op\":\"empty\",\"e1\":\"/a\","
                         "\"dtd\":\"" + Fifo + "\"}"));
  ASSERT_TRUE(C.sendLine("{\"id\":\"next\",\"op\":\"contains\","
                         "\"e1\":\"/a/b\",\"e2\":\"//b\"}"));
  std::vector<std::string> Resps;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Resps.size() < 2 && std::chrono::steady_clock::now() < Deadline) {
    std::string Resp;
    bool Closed = false;
    if (C.pollLine(Resp, Closed))
      Resps.push_back(Resp);
    else if (Closed)
      break;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (Resps.size() < 2) {
    // Release a worker stuck opening the FIFO, so the fixture's drain
    // returns and the failure is reported instead of hanging.
    int W = ::open(Fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (W >= 0)
      ::close(W);
  }
  ASSERT_EQ(Resps.size(), 2u) << "no answer within 10 s";
  std::string Error;
  JsonRef R = parseJson(Resps[0], Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_EQ(R->str("id"), "fifo");
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "bad_request");
  EXPECT_NE(R->get("error")->str("message").find("not a regular file"),
            std::string::npos)
      << Resps[0];
  EXPECT_NE(Resps[1].find("\"id\":\"next\",\"ok\":true"), std::string::npos)
      << Resps[1];
  std::remove(Fifo.c_str());
}

TEST(Server, NamespacesIsolateAccountingNotResults) {
  ServerFixture F(stableServerOptions(1));

  LineClient A = F.connect();
  ASSERT_TRUE(A.sendLine("{\"op\":\"config\",\"ns\":\"team-a\"}"));
  std::string Resp;
  ASSERT_TRUE(A.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ns\":\"team-a\""), std::string::npos);
  EXPECT_EQ(Resp.find("share_fixpoints"), std::string::npos) << Resp;
  ASSERT_TRUE(A.sendLine("{\"id\":\"a\",\"op\":\"contains\","
                         "\"e1\":\"/na1/x\",\"e2\":\"//x\"}"));
  ASSERT_TRUE(A.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;

  // An untouched connection stays in the default namespace and reads
  // team-a's result through the shared cache.
  LineClient B = F.connect();
  ASSERT_TRUE(B.sendLine("{\"op\":\"config\",\"ns\":\"default\"}"));
  ASSERT_TRUE(B.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ns\":\"default\""), std::string::npos);
  ASSERT_TRUE(B.sendLine("{\"id\":\"b\",\"op\":\"contains\","
                         "\"e1\":\"/na1/x\",\"e2\":\"//x\"}"));
  ASSERT_TRUE(B.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;

  // Per-namespace accounting shows up in the metrics op.
  ASSERT_TRUE(B.sendLine("{\"id\":\"m\",\"op\":\"metrics\"}"));
  ASSERT_TRUE(B.recvLine(Resp));
  std::string Error;
  JsonRef M = parseJson(Resp, Error);
  ASSERT_NE(M, nullptr) << Error;
  JsonRef Namespaces = M->get("namespaces");
  ASSERT_EQ(Namespaces->type(), JsonValue::Type::Object);
  JsonRef TeamA = Namespaces->get("team-a"), Default = Namespaces->get("default");
  EXPECT_EQ(TeamA->get("requests")->asNumber(), 1);
  EXPECT_EQ(TeamA->get("cache_misses")->asNumber(), 1);
  EXPECT_EQ(Default->get("requests")->asNumber(), 1);
  EXPECT_EQ(Default->get("cache_hits")->asNumber(), 1);
  // A hit's stats describe the run that filled the entry: only team-a's
  // solve counts toward a namespace's solver time.
  EXPECT_GT(TeamA->get("solver_time_ms")->asNumber(), 0) << Resp;
  EXPECT_EQ(Default->get("solver_time_ms")->asNumber(), 0) << Resp;
}

TEST(Server, UnknownConfigKeyIsRejectedStructurally) {
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  // None of these is a config key (older servers accepted each); like
  // any unknown key each is rejected rather than silently ignored.
  const std::pair<const char *, const char *> Inputs[] = {
      {"share_fixpoints", "true"},
      {"bdd_backend", "\"parallel\""},
      {"fixpoint_strategy", "\"bfs\""},
      {"optimize", "true"}};
  std::string Resp;
  for (const auto &[Key, Value] : Inputs) {
    SCOPED_TRACE(Key);
    ASSERT_TRUE(C.sendLine(std::string("{\"id\":\"c\",\"op\":\"config\",\"") +
                           Key + "\":" + Value + "}"));
    ASSERT_TRUE(C.recvLine(Resp));
    std::string Error;
    JsonRef R = parseJson(Resp, Error);
    ASSERT_NE(R, nullptr) << Error;
    EXPECT_EQ(R->str("id"), "c");
    EXPECT_FALSE(R->get("ok")->asBool());
    JsonRef E = R->get("error");
    ASSERT_EQ(E->type(), JsonValue::Type::Object);
    EXPECT_EQ(E->str("code"), "unknown_config_key");
    EXPECT_EQ(E->str("key"), Key);
  }
  // The connection stays usable, and a valid config echo has none of
  // the fields.
  ASSERT_TRUE(C.sendLine("{\"id\":\"ok\",\"op\":\"config\","
                         "\"ns\":\"default\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;
  EXPECT_EQ(Resp.find("share_fixpoints"), std::string::npos) << Resp;
  EXPECT_EQ(Resp.find("bdd_backend"), std::string::npos) << Resp;
  EXPECT_EQ(Resp.find("fixpoint_strategy"), std::string::npos) << Resp;
  EXPECT_EQ(Resp.find("\"optimize\""), std::string::npos) << Resp;
}

TEST(Server, RejectedConfigAppliesNothing) {
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  std::string Resp, Error;
  ASSERT_TRUE(C.sendLine("{\"op\":\"config\",\"ns\":\"team-c\","
                         "\"stable\":false}"));
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;

  // A valid ns value rides along with an invalid stable value: the op is
  // rejected whole, so the namespace does not change either.
  ASSERT_TRUE(C.sendLine("{\"id\":\"bad\",\"op\":\"config\",\"ns\":\"team-b\","
                         "\"stable\":\"yes\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "invalid_config_value");
  EXPECT_EQ(R->get("error")->str("key"), "stable");

  // Valid ns and stable values ride along with the retired sharing key:
  // the op is rejected whole, so neither takes effect.
  ASSERT_TRUE(C.sendLine("{\"id\":\"bad2\",\"op\":\"config\","
                         "\"ns\":\"team-b\",\"stable\":true,"
                         "\"share_fixpoints\":true}"));
  ASSERT_TRUE(C.recvLine(Resp));
  R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_FALSE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("error")->str("code"), "unknown_config_key");
  EXPECT_EQ(R->get("error")->str("key"), "share_fixpoints");

  ASSERT_TRUE(C.sendLine("{\"op\":\"config\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_EQ(R->str("ns"), "team-c") << Resp;
  EXPECT_FALSE(R->get("stable")->asBool()) << Resp;

  // Responses keep the connection's volatile encoding.
  ASSERT_TRUE(C.sendLine("{\"id\":\"q\",\"op\":\"contains\","
                         "\"e1\":\"/rc/x\",\"e2\":\"//x\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_NE(Resp.find("\"cache\""), std::string::npos) << Resp;

  // The rejected op created no namespace and no metrics series.
  ASSERT_TRUE(C.sendLine("{\"id\":\"m\",\"op\":\"metrics\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  JsonRef M = parseJson(Resp, Error);
  ASSERT_NE(M, nullptr) << Error;
  EXPECT_TRUE(M->get("namespaces")->has("team-c"));
  EXPECT_EQ(Resp.find("team-b"), std::string::npos) << Resp;
}

TEST(Server, NamespaceNamesAndCountAreBounded) {
  // Namespaces live as long as the server, each with a metrics series,
  // so one client must not be able to grow them without bound.
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();
  std::string Resp, Error;
  auto Config = [&](const std::string &Ns) {
    EXPECT_TRUE(C.sendLine("{\"op\":\"config\",\"ns\":\"" + Ns + "\"}"));
    EXPECT_TRUE(C.recvLine(Resp));
    JsonRef R = parseJson(Resp, Error);
    EXPECT_NE(R, nullptr) << Error;
    return R ? R : JsonValue::object();
  };
  auto ExpectRefused = [&](const JsonRef &R) {
    EXPECT_FALSE(R->get("ok")->asBool()) << Resp;
    EXPECT_EQ(R->get("error")->str("code"), "invalid_config_value") << Resp;
    EXPECT_EQ(R->get("error")->str("key"), "ns") << Resp;
  };

  ExpectRefused(Config(std::string(MaxNamespaceBytes + 1, 'n')));
  EXPECT_TRUE(Config(std::string(MaxNamespaceBytes, 'n'))->get("ok")->asBool())
      << Resp;

  // "default" and the long name exist; fill up to the cap.
  for (size_t I = 2; I < XsolvedServer::MaxNamespaces; ++I)
    ASSERT_TRUE(Config("ns" + std::to_string(I))->get("ok")->asBool())
        << Resp;
  ExpectRefused(Config("one-too-many"));
  EXPECT_EQ(F.Server.namespaceState("one-too-many"), nullptr)
      << "a refused line creates no namespace";

  // Switching to an existing namespace still works at the cap.
  JsonRef R = Config("ns7");
  EXPECT_TRUE(R->get("ok")->asBool()) << Resp;
  EXPECT_EQ(R->str("ns"), "ns7");

  ASSERT_TRUE(C.sendLine("{\"id\":\"s\",\"op\":\"status\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_TRUE(R->get("ok")->asBool());
  EXPECT_EQ(R->get("status")->get("namespaces")->members().size(),
            XsolvedServer::MaxNamespaces);
}

//===----------------------------------------------------------------------===//
// Observability: request ids, slowlog, status, HTTP endpoints
//===----------------------------------------------------------------------===//

namespace {

/// Routes the process-global event log into its ring only (no sink
/// spam), at Debug so per-request events are on, and clears global
/// recorder state other tests may have left behind. Restores defaults
/// on destruction.
struct ObsCapture {
  ObsCapture() {
    EventLog::Options O;
    O.MinLevel = LogLevel::Debug;
    O.Sink = nullptr;
    EventLog::global().configure(O);
    EventLog::global().clearForTest();
    SlowQueryLog::global().clearForTest();
  }
  ~ObsCapture() {
    EventLog::global().configure(EventLog::Options{});
    EventLog::global().clearForTest();
    SlowQueryLog::global().clearForTest();
  }
};

/// One HTTP exchange over the LineClient's socket. Requests are line
/// framed (sendLine appends the newline); the response is status line +
/// headers + a Content-Length body (every body the server emits is
/// newline-terminated, so line reads reassemble it exactly).
struct HttpResponse {
  std::string Status; ///< e.g. "HTTP/1.1 200 OK"
  std::string Connection;
  std::string Body;
};

bool httpGet(LineClient &C, const std::string &Path, HttpResponse &R) {
  if (!C.sendLine("GET " + Path + " HTTP/1.1") || !C.sendLine(""))
    return false;
  if (!C.recvLine(R.Status))
    return false;
  while (!R.Status.empty() && R.Status.back() == '\r')
    R.Status.pop_back();
  size_t Len = 0;
  std::string L;
  while (C.recvLine(L)) {
    while (!L.empty() && L.back() == '\r')
      L.pop_back();
    if (L.empty())
      break;
    if (L.rfind("Content-Length: ", 0) == 0)
      Len = static_cast<size_t>(std::stoul(L.substr(16)));
    if (L.rfind("Connection: ", 0) == 0)
      R.Connection = L.substr(12);
  }
  R.Body.clear();
  while (R.Body.size() < Len && C.recvLine(L))
    R.Body += L + "\n";
  return R.Body.size() == Len;
}

} // namespace

TEST(Server, RequestIdRoundTripsThroughResponseLogAndSlowlog) {
  ObsCapture Obs;
  ServerOptions Opts = stableServerOptions(1);
  Opts.DefaultStable = false; // volatile responses carry "rid"
  Opts.SlowThresholdMs = 0;   // capture every request
  ServerFixture F(Opts);
  LineClient C = F.connect();

  ASSERT_TRUE(C.sendLine("{\"id\":\"my-req-7\",\"op\":\"contains\","
                         "\"e1\":\"/rt1/x\",\"e2\":\"//x\"}"));
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  std::string Error;
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_TRUE(R->get("ok")->asBool());
  // The client-chosen id IS the request id, and it comes back on the
  // response's volatile side.
  EXPECT_EQ(R->str("rid"), "my-req-7");

  // ...and on the slowlog entry, with the per-stage breakdown.
  ASSERT_TRUE(C.sendLine("{\"op\":\"slowlog\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  JsonRef S = parseJson(Resp, Error);
  ASSERT_NE(S, nullptr) << Error;
  const std::vector<JsonRef> &Entries =
      S->get("slowlog")->get("entries")->items();
  bool SlowlogHasRid = false;
  for (const JsonRef &E : Entries)
    if (E->str("rid") == "my-req-7") {
      SlowlogHasRid = true;
      EXPECT_EQ(E->str("id"), "my-req-7");
      EXPECT_TRUE(E->get("stages")->has("request"));
      EXPECT_GE(E->get("total_ms")->asNumber(),
                E->get("queue_wait_ms")->asNumber());
    }
  EXPECT_TRUE(SlowlogHasRid) << Resp;

  // ...and on every matching log line: with the threshold at 0 the
  // request is both completed (request.done, at Debug) and slow
  // (request.slow, at Warn), and both lines carry its id.
  std::vector<std::string> Events;
  for (const EventLog::Record &Rec : EventLog::global().ring())
    if (Rec.Fields->str("rid") == "my-req-7")
      Events.push_back(Rec.Event);
  EXPECT_NE(std::find(Events.begin(), Events.end(), "request.done"),
            Events.end());
  EXPECT_NE(std::find(Events.begin(), Events.end(), "request.slow"),
            Events.end());
}

TEST(Server, GeneratedRequestIdsNeverReachStableOutput) {
  ObsCapture Obs;
  // Stable server with the recorder capturing EVERYTHING: responses must
  // stay byte-identical to a serial `xsolve batch --stable` run — the
  // whole point of tail-sampling on the volatile side.
  ServerOptions Opts = stableServerOptions(2);
  Opts.SlowThresholdMs = 0;
  std::vector<std::string> Lines = workloadLines();
  std::string Expected = serialReference(Lines);
  ServerFixture F(Opts);
  LineClient C = F.connect();
  EXPECT_EQ(runClient(C, Lines), Expected);

  // The recorder still captured every request, each with a generated
  // "c<conn>-<seq>" rid (no client ids reached the stable encoding, and
  // no id-less request went unlabeled).
  std::vector<SlowQueryRecord> Snap = SlowQueryLog::global().snapshot();
  EXPECT_GE(Snap.size(), Lines.size());
  for (const SlowQueryRecord &Rec : Snap)
    EXPECT_FALSE(Rec.RequestId.empty());
  EXPECT_EQ(Expected.find("\"rid\""), std::string::npos);
}

TEST(Server, DeadlineMissIsCapturedInSlowlog) {
  ObsCapture Obs;
  ServerOptions Opts = stableServerOptions(1);
  Opts.DefaultStable = false;
  Opts.SlowThresholdMs = 1e9; // only tail events (errors) qualify
  ServerFixture F(Opts);
  F.Server.session().debugPause(true);
  LineClient C = F.connect();
  ASSERT_TRUE(C.sendLine("{\"id\":\"dl\",\"op\":\"contains\",\"e1\":\"/dl1/x\","
                         "\"e2\":\"//x\",\"deadline_ms\":1}"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  F.Server.session().debugPause(false);
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  EXPECT_NE(Resp.find("\"code\":\"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(Resp.find("\"rid\":\"dl\""), std::string::npos);

  ASSERT_TRUE(C.sendLine("{\"op\":\"slowlog\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  std::string Error;
  JsonRef S = parseJson(Resp, Error);
  ASSERT_NE(S, nullptr) << Error;
  bool Found = false;
  for (const JsonRef &E : S->get("slowlog")->get("entries")->items())
    if (E->str("rid") == "dl") {
      Found = true;
      EXPECT_EQ(E->str("code"), "deadline_exceeded");
      EXPECT_FALSE(E->get("ok")->asBool());
      EXPECT_TRUE(E->get("stages")->has("server.queue_wait"));
    }
  EXPECT_TRUE(Found) << Resp;
}

TEST(Server, StatusOpReportsLiveState) {
  ServerFixture F(stableServerOptions(2));
  LineClient C = F.connect();
  // One solved request first, so the BDD gauges hold a finished run.
  ASSERT_TRUE(C.sendLine("{\"id\":\"q\",\"op\":\"contains\","
                         "\"e1\":\"/st1/x\",\"e2\":\"//x\"}"));
  std::string Resp;
  ASSERT_TRUE(C.recvLine(Resp));
  ASSERT_TRUE(C.sendLine("{\"id\":\"st\",\"op\":\"status\"}"));
  ASSERT_TRUE(C.recvLine(Resp));
  std::string Error;
  JsonRef R = parseJson(Resp, Error);
  ASSERT_NE(R, nullptr) << Error;
  EXPECT_EQ(R->str("id"), "st");
  EXPECT_TRUE(R->get("ok")->asBool());
  JsonRef S = R->get("status");
  ASSERT_EQ(S->type(), JsonValue::Type::Object);
  EXPECT_EQ(S->str("schema"), "xsa.status/1");
  EXPECT_GE(S->get("uptime_s")->asNumber(), 0);
  EXPECT_FALSE(S->get("draining")->asBool());
  EXPECT_EQ(S->get("jobs")->asNumber(), 2);
  EXPECT_GE(S->get("connections")->asNumber(), 1);
  for (const char *Key : {"queue_depth", "queue_limit", "in_flight", "bdd",
                          "namespaces", "slowlog", "log"})
    EXPECT_TRUE(S->has(Key)) << Key;
  // A finished run has at least the two terminal nodes at its peak.
  JsonRef Bdd = S->get("bdd");
  ASSERT_EQ(Bdd->type(), JsonValue::Type::Object);
  EXPECT_EQ(Bdd->get("live_nodes")->type(), JsonValue::Type::Number);
  EXPECT_GE(Bdd->get("peak_nodes")->asNumber(), 2);
  JsonRef Default = S->get("namespaces")->get("default");
  ASSERT_EQ(Default->type(), JsonValue::Type::Object);
  EXPECT_TRUE(Default->has("in_flight"));
  EXPECT_TRUE(Default->has("slow_queries"));
}

TEST(Server, HttpKeepAliveServesSequentialRequestsOnOneConnection) {
  ServerFixture F(stableServerOptions(1));
  LineClient C = F.connect();

  // Two requests over ONE connection — the keep-alive payoff. The
  // second exchange only works if the server kept the socket open.
  HttpResponse H1;
  ASSERT_TRUE(httpGet(C, "/healthz", H1));
  EXPECT_EQ(H1.Status, "HTTP/1.1 200 OK");
  EXPECT_EQ(H1.Connection, "keep-alive");
  EXPECT_EQ(H1.Body, "ok\n");

  HttpResponse H2;
  ASSERT_TRUE(httpGet(C, "/statusz", H2));
  EXPECT_EQ(H2.Status, "HTTP/1.1 200 OK");
  std::string Error;
  JsonRef S = parseJson(H2.Body, Error);
  ASSERT_NE(S, nullptr) << Error;
  EXPECT_EQ(S->str("schema"), "xsa.status/1");

  HttpResponse H3;
  ASSERT_TRUE(httpGet(C, "/slowlog", H3));
  JsonRef Slow = parseJson(H3.Body, Error);
  ASSERT_NE(Slow, nullptr) << Error;
  EXPECT_EQ(Slow->str("schema"), "xsa.slowlog/1");
  EXPECT_TRUE(Slow->has("entries"));

  HttpResponse H4;
  ASSERT_TRUE(httpGet(C, "/nope", H4));
  EXPECT_EQ(H4.Status, "HTTP/1.1 404 Not Found");

  // An analysis connection still works while the scraper idles.
  LineClient A = F.connect();
  ASSERT_TRUE(A.sendLine("{\"id\":\"p\",\"op\":\"ping\"}"));
  std::string Resp;
  ASSERT_TRUE(A.recvLine(Resp));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos);
}

TEST(Server, HttpIdleTimeoutClosesParkedScrapers) {
  ServerOptions Opts = stableServerOptions(1);
  Opts.HttpIdleTimeoutMs = 50;
  ServerFixture F(Opts);
  LineClient C = F.connect();
  HttpResponse H;
  ASSERT_TRUE(httpGet(C, "/healthz", H));
  EXPECT_EQ(H.Connection, "keep-alive");
  // Past the idle timeout the server closes; the next read sees EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::string L;
  EXPECT_FALSE(C.recvLine(L));
}

TEST(Server, HttpConnectionCapAnswers503) {
  ServerOptions Opts = stableServerOptions(1);
  Opts.HttpMaxConns = 1;
  ServerFixture F(Opts);
  LineClient First = F.connect();
  HttpResponse H1;
  ASSERT_TRUE(httpGet(First, "/healthz", H1)); // now parked keep-alive
  EXPECT_EQ(H1.Status, "HTTP/1.1 200 OK");
  LineClient Second = F.connect();
  HttpResponse H2;
  ASSERT_TRUE(httpGet(Second, "/healthz", H2));
  EXPECT_EQ(H2.Status, "HTTP/1.1 503 Service Unavailable");
  EXPECT_EQ(H2.Connection, "close");
}
