// The query service's newline-delimited wire protocol, shared by the
// server (server.h) and the attacking client (client.h) and unit-tested
// without sockets.
//
// Requests (one per line):
//   INFO                      — service parameters probe
//   Q <client> <bits>         — subset counting query; <bits> is the
//                               indicator vector as a 0/1 string of
//                               length n
// Responses (one per request line, in order):
//   I n=<n> eps=<g> budget=<g> batch=<zu>
//   A <client> <value>        — released answer (%.17g round-trips the
//                               double exactly, so a recorded transcript
//                               replays bit-identically)
//   E <client> <code> <msg>   — refused query; <code> is the StatusCode
//                               name (ResourceExhausted for an
//                               over-budget client, InvalidArgument for
//                               a malformed query)
//
// Clients may pipeline: the server groups consecutive buffered Q lines
// (up to the service's max_batch) into one AnswerBatch call and writes
// the responses back in request order.

#ifndef PSO_SERVICE_WIRE_H_
#define PSO_SERVICE_WIRE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "recon/oracle.h"

namespace pso::service {

/// Parameters the INFO probe reports.
struct ServiceInfo {
  size_t n = 0;
  double eps_per_query = 0.0;
  double client_budget_eps = 0.0;
  size_t max_batch = 0;
};

/// A parsed `Q` request line.
struct WireQuery {
  uint64_t client = 0;
  recon::SubsetQuery query;
};

/// Formats a query request line (no trailing newline).
std::string FormatQueryLine(uint64_t client, const recon::SubsetQuery& query);

/// Parses a `Q` line. kInvalidArgument on anything malformed.
[[nodiscard]] Result<WireQuery> ParseQueryLine(const std::string& line);

/// The longest request line (without its newline) a service over
/// `n`-record queries accepts: a `Q <client> <bits>` line whose client id
/// has all 20 digits of a uint64 (INFO is shorter). The server answers a
/// longer unterminated line with one `E` line and closes the connection.
size_t MaxRequestLineLength(size_t n);

/// Formats the response line for one query outcome (no trailing newline):
/// an `A` line for an OK value, an `E` line otherwise.
std::string FormatAnswerLine(uint64_t client, const Result<double>& outcome);

/// Parses an `A`/`E` response line into the outcome it encodes (the `E`
/// code is mapped back to a Status of the same code). kInvalidArgument —
/// as the PARSE result — on a line that is neither.
[[nodiscard]] Result<Result<double>> ParseAnswerLine(const std::string& line);

/// Formats the `I` response to an INFO probe (no trailing newline).
std::string FormatInfoLine(const ServiceInfo& info);

/// The strerror-style message for `err` as an owned string. Unlike
/// std::strerror (static buffer, flagged by concurrency-mt-unsafe) this
/// is safe from concurrent transport threads.
std::string ErrnoMessage(int err);

/// Parses an `I` line.
[[nodiscard]] Result<ServiceInfo> ParseInfoLine(const std::string& line);

}  // namespace pso::service

#endif  // PSO_SERVICE_WIRE_H_
