//===- Client.h - JSON-lines socket client ------------------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking JSON-lines client for xsolved: connect over TCP or
/// a unix-domain socket, send request lines, read response lines. Used
/// by `xsolved client`, bench_server's load generator and the server
/// tests — one framing implementation on the client side, matching the
/// server's one-response-per-line contract.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVER_CLIENT_H
#define XSA_SERVER_CLIENT_H

#include <string>

namespace xsa {

class LineClient {
public:
  LineClient() = default;
  ~LineClient() { closeConn(); }
  LineClient(const LineClient &) = delete;
  LineClient &operator=(const LineClient &) = delete;
  LineClient(LineClient &&O) noexcept : Fd(O.Fd), Buf(std::move(O.Buf)) {
    O.Fd = -1;
  }

  /// False (with \p Error) when the connection cannot be established.
  bool connectTcp(const std::string &Host, int Port, std::string &Error);
  bool connectUnix(const std::string &Path, std::string &Error);

  /// Sends \p Line plus the terminating newline. False on a send error.
  bool sendLine(const std::string &Line);

  /// Blocks for the next response line (newline stripped). False at
  /// EOF — the server closed the connection.
  bool recvLine(std::string &Line);

  /// Non-blocking variant: true with the next complete response line
  /// when one is already buffered or readable without waiting, false
  /// otherwise. \p Closed is set when the server closed the connection.
  /// Lets a pipelining sender interleave reads with its writes, so the
  /// two peers' socket buffers can never fill up against each other.
  bool pollLine(std::string &Line, bool &Closed);

  void closeConn();

private:
  int Fd = -1;
  std::string Buf; ///< received-but-unconsumed bytes
};

} // namespace xsa

#endif // XSA_SERVER_CLIENT_H
