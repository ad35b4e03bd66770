//===- xsolved.cpp - Long-lived analysis server daemon ---------------------===//
//
// The daemon front end to server/Server.h:
//
//   xsolved [--tcp PORT] [--unix PATH] [--jobs N] [--queue-limit N]
//           [--cache-file F] [--stable] [--port-file F]
//   xsolved client (--tcp HOST:PORT | --unix PATH) [file|-]
//
// The server wraps ONE shared AnalysisSession: every client's requests
// read through (and warm) the same sharded result cache and fixpoint
// store. Protocol: one JSON request per line, one JSON response per
// line, same request schema as `xsolve batch`, plus per-request
// "priority" and "deadline_ms" fields and the ops config (with
// "ns"/"stable"), metrics, stats, ping and drain. An HTTP
// `GET /metrics` on either socket answers the Prometheus text format.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish everything
// admitted, deliver the responses, persist --cache-file, exit 0.
//
// The client subcommand pipes a JSON-lines file (or stdin) to a running
// server and prints the responses — what the CI smoke test drives.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "server/Client.h"
#include "server/Server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

using namespace xsa;

namespace {

std::atomic<bool> GStopRequested{false};

extern "C" void onStopSignal(int) { GStopRequested.store(true); }

void installStopHandler() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  xsolved [--tcp PORT] [--unix PATH] [--jobs N] [--queue-limit N]\n"
      "          [--cache-file F] [--stable] [--port-file F]\n"
      "  xsolved client (--tcp HOST:PORT | --unix PATH) [file|-]\n"
      "server flags:\n"
      "  --tcp PORT      listen on 127.0.0.1:PORT (0 = ephemeral port)\n"
      "  --unix PATH     listen on a unix-domain socket at PATH\n"
      "  --jobs N        worker threads of the shared session (0 = cores)\n"
      "  --queue-limit N admission-control bound on queued requests\n"
      "  --cache-file F  load F at start if present; persist on drain\n"
      "  --stable        default connections to the deterministic\n"
      "                  response encoding (clients can override with\n"
      "                  {\"op\":\"config\",\"stable\":...})\n"
      "  --port-file F   write the bound TCP port to F (for scripts\n"
      "                  using --tcp 0)\n"
      "  --log-file F    append the structured JSON-lines event log to F\n"
      "                  (default: stderr)\n"
      "  --log-level L   minimum level: debug, info, warn, error\n"
      "                  (default: info)\n"
      "  --slow-ms MS    slow-query capture threshold in milliseconds\n"
      "                  (0 captures every request; default 250)\n"
      "  --slowlog-capacity N  slowlog ring size (default 128)\n"
      "protocol: xsolve-batch JSON-lines, plus per-request \"priority\"\n"
      "and \"deadline_ms\", config keys \"ns\"/\"stable\", and the ops\n"
      "metrics, stats, status, slowlog, log, ping, drain. HTTP GETs on\n"
      "either socket answer /metrics (Prometheus text), /healthz,\n"
      "/statusz, /slowlog and /logz with keep-alive.\n");
  return 2;
}

int runClient(int argc, char **argv) {
  std::string TcpHost;
  int TcpPort = -1;
  std::string UnixPath;
  std::string Path = "-";
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--tcp" && I + 1 < argc) {
      std::string HostPort = argv[++I];
      size_t Colon = HostPort.rfind(':');
      if (Colon == std::string::npos) {
        TcpHost = "127.0.0.1";
        TcpPort = std::atoi(HostPort.c_str());
      } else {
        TcpHost = HostPort.substr(0, Colon);
        TcpPort = std::atoi(HostPort.c_str() + Colon + 1);
      }
    } else if (Arg == "--unix" && I + 1 < argc) {
      UnixPath = argv[++I];
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "error: unknown client flag %s\n", Arg.c_str());
      return usage();
    } else {
      Path = Arg;
    }
  }
  if (TcpPort < 0 && UnixPath.empty())
    return usage();

  LineClient Client;
  std::string Error;
  bool Connected = UnixPath.empty() ? Client.connectTcp(TcpHost, TcpPort, Error)
                                    : Client.connectUnix(UnixPath, Error);
  if (!Connected) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  std::ifstream FileIn;
  std::istream *In = &std::cin;
  if (Path != "-") {
    FileIn.open(Path);
    if (!FileIn) {
      std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
      return 1;
    }
    In = &FileIn;
  }

  // Pipelined with a bounded window, interleaving reads with writes.
  // Sending a whole large file before reading anything would let both
  // peers' socket buffers fill against each other (the server bounds
  // its outbound buffer and drops connections that overflow it), and
  // an unbounded flood of admissions would mostly collect "overloaded"
  // rejections — so after each send, drain whatever responses are
  // already readable, and block for one once more than MaxInFlight
  // requests are outstanding (half the server's default --queue-limit,
  // leaving room for other tenants). Responses arrive in request
  // order, so output order is unchanged.
  const size_t MaxInFlight = 128;
  size_t Sent = 0, Received = 0, Failed = 0;
  bool Closed = false;
  auto Consume = [&](const std::string &Resp) {
    std::printf("%s\n", Resp.c_str());
    if (Resp.find("\"ok\":false") != std::string::npos)
      ++Failed;
    ++Received;
  };
  std::string Line, Resp;
  while (!Closed && std::getline(*In, Line)) {
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue; // the server assigns no response to blank/comment lines
    if (!Client.sendLine(Line)) {
      std::fprintf(stderr, "error: send failed\n");
      return 1;
    }
    ++Sent;
    while (!Closed && Client.pollLine(Resp, Closed))
      Consume(Resp);
    while (!Closed && Sent - Received > MaxInFlight) {
      if (!Client.recvLine(Resp)) {
        Closed = true;
        break;
      }
      Consume(Resp);
    }
  }
  while (!Closed && Received < Sent) {
    if (!Client.recvLine(Resp))
      break;
    Consume(Resp);
  }
  if (Received < Sent) {
    std::fprintf(stderr, "error: server closed after %zu/%zu responses\n",
                 Received, Sent);
    return 1;
  }
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc >= 2 && std::string(argv[1]) == "client")
    return runClient(argc, argv);

  ServerOptions Opts;
  std::string PortFile;
  std::string LogFile;
  LogLevel MinLevel = LogLevel::Info;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--tcp" && I + 1 < argc) {
      Opts.TcpPort = std::atoi(argv[++I]);
    } else if (Arg == "--unix" && I + 1 < argc) {
      Opts.UnixPath = argv[++I];
    } else if (Arg == "--jobs" && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (N < 0 || End == argv[I] || *End != '\0') {
        std::fprintf(stderr, "error: --jobs needs a non-negative integer\n");
        return usage();
      }
      Opts.Session.Jobs = static_cast<size_t>(N);
    } else if (Arg == "--queue-limit" && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (N < 1 || End == argv[I] || *End != '\0') {
        // 0 would make admit() reject every request as "overloaded" —
        // a silently useless server — so demand a positive bound.
        std::fprintf(stderr, "error: --queue-limit needs a positive integer\n");
        return usage();
      }
      Opts.QueueLimit = static_cast<size_t>(N);
    } else if (Arg == "--cache-file" && I + 1 < argc) {
      Opts.CacheFile = argv[++I];
    } else if (Arg == "--stable") {
      Opts.DefaultStable = true;
    } else if (Arg == "--port-file" && I + 1 < argc) {
      PortFile = argv[++I];
    } else if (Arg == "--log-file" && I + 1 < argc) {
      LogFile = argv[++I];
    } else if (Arg == "--log-level" && I + 1 < argc) {
      if (!parseLogLevel(argv[++I], MinLevel)) {
        std::fprintf(stderr,
                     "error: --log-level needs one of debug, info, warn, "
                     "error (got %s)\n",
                     argv[I]);
        return usage();
      }
    } else if (Arg == "--slow-ms" && I + 1 < argc) {
      char *End = nullptr;
      double Ms = std::strtod(argv[++I], &End);
      if (Ms < 0 || End == argv[I] || *End != '\0') {
        std::fprintf(stderr, "error: --slow-ms needs a non-negative number\n");
        return usage();
      }
      Opts.SlowThresholdMs = Ms;
    } else if (Arg == "--slowlog-capacity" && I + 1 < argc) {
      char *End = nullptr;
      long N = std::strtol(argv[++I], &End, 10);
      if (N < 1 || End == argv[I] || *End != '\0') {
        std::fprintf(stderr,
                     "error: --slowlog-capacity needs a positive integer\n");
        return usage();
      }
      Opts.SlowlogCapacity = static_cast<size_t>(N);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return usage();
    }
  }
  if (Opts.TcpPort < 0 && Opts.UnixPath.empty())
    return usage();

  // Structured event log: every lifecycle/admission/slow-query message
  // of the daemon is one JSON line here (obs/Log.h), replacing ad-hoc
  // prints. The FILE* outlives the server (threads log during drain),
  // so it is deliberately never closed — process exit flushes it.
  EventLog::Options LogOpts;
  LogOpts.MinLevel = MinLevel;
  if (!LogFile.empty()) {
    std::FILE *F = std::fopen(LogFile.c_str(), "a");
    if (!F) {
      std::fprintf(stderr, "error: cannot open --log-file %s\n",
                   LogFile.c_str());
      return 1;
    }
    LogOpts.Sink = F;
  }
  EventLog::global().configure(LogOpts);

  installStopHandler();
  XsolvedServer Server(Opts);
  std::string Error;
  if (!Server.start(Error)) {
    LogEvent(LogLevel::Error, "server.start_failed").str("error", Error);
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (Opts.TcpPort >= 0)
    LogEvent(LogLevel::Info, "server.listening")
        .str("host", Opts.Host)
        .num("port", Server.tcpPort());
  if (!Opts.UnixPath.empty())
    LogEvent(LogLevel::Info, "server.listening").str("unix", Opts.UnixPath);
  if (!PortFile.empty()) {
    std::ofstream PF(PortFile);
    PF << Server.tcpPort() << "\n";
  }

  // Park until SIGTERM/SIGINT or a client {"op":"drain"} stops the
  // server. The signal handler only flips a flag; drain and teardown
  // run here, on a normal thread.
  while (!GStopRequested.load() && !Server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Server.drainAndWait();
  return 0;
}
