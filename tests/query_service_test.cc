// Tests for the query service stack: budget ledger semantics (including
// the two-racers-one-epsilon ordering), transcript replay determinism at
// any thread count, the wire protocol, and loopback socket tests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "dp/budget.h"
#include "gtest/gtest.h"
#include "recon/oracle.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/query_service.h"
#include "service/server.h"
#include "service/wire.h"

namespace pso {
namespace {

using service::Decoder;
using service::InProcessTransport;
using service::LoadGenOptions;
using service::QueryOutcome;
using service::QueryService;
using service::QueryServiceOptions;
using service::Transcript;
using service::TranscriptEntry;

// A raw loopback connection for tests that need byte-level control of
// what reaches the server (several clients in one write, unterminated
// lines). Closes on destruction.
class RawConnection {
 public:
  explicit RawConnection(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool ok() const { return fd_ >= 0; }

  // Sends all of `data` in one send() call.
  bool Write(const std::string& data) {
    return ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(data.size());
  }

  // Reads until the server closes the connection, `want_lines` newlines
  // have arrived (0 = no limit), or `timeout_ms` passes. Sets *eof when
  // the server closed cleanly.
  std::string Read(size_t want_lines, int timeout_ms, bool* eof) {
    std::string got;
    *eof = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      if (want_lines > 0 &&
          static_cast<size_t>(std::count(got.begin(), got.end(), '\n')) >=
              want_lines) {
        return got;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return got;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return got;
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n == 0) *eof = true;
      if (n <= 0) return got;
      got.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
};

TEST(BudgetLedgerTest, ChargesUntilExhausted) {
  dp::BudgetLedger ledger(1.0);
  for (uint64_t k = 0; k < 4; ++k) {
    Result<uint64_t> ordinal = ledger.Charge(7, 0.25);
    ASSERT_TRUE(ordinal.ok());
    EXPECT_EQ(*ordinal, k);  // ordinals are the per-client answer index
  }
  Result<uint64_t> over = ledger.Charge(7, 0.25);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ledger.ClientState(7).answered, 4u);
  EXPECT_EQ(ledger.ClientState(7).rejected, 1u);
  EXPECT_EQ(ledger.TotalAnswered(), 4u);
  EXPECT_EQ(ledger.TotalRejected(), 1u);
}

TEST(BudgetLedgerTest, ClientsAreIndependent) {
  dp::BudgetLedger ledger(0.5);
  ASSERT_TRUE(ledger.Charge(1, 0.5).ok());
  EXPECT_FALSE(ledger.Charge(1, 0.5).ok());
  // Client 2's budget is untouched by client 1's exhaustion.
  ASSERT_TRUE(ledger.Charge(2, 0.5).ok());
}

TEST(BudgetLedgerTest, RejectsNegativeEpsilon) {
  dp::BudgetLedger ledger(1.0);
  Result<uint64_t> bad = ledger.Charge(1, -0.1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(BudgetLedgerTest, UnlimitedWhenCapNonPositive) {
  dp::BudgetLedger ledger(0.0);
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(ledger.Charge(3, 10.0).ok());
  EXPECT_EQ(ledger.TotalRejected(), 0u);
}

// Two threads race one client's LAST epsilon: whatever the interleaving,
// exactly one wins the charge and exactly one gets kResourceExhausted.
// Run under TSan (label: service) this also proves the ledger's locking.
TEST(BudgetLedgerTest, TwoRacersForLastEpsilonExactlyOneRejected) {
  for (int round = 0; round < 20; ++round) {
    dp::BudgetLedger ledger(1.0);
    ASSERT_TRUE(ledger.Charge(5, 0.5).ok());  // half the budget is gone
    ThreadPool pool(2);
    std::atomic<int> ok_count{0};
    std::atomic<int> exhausted_count{0};
    {
      TaskGroup group(&pool);
      for (int t = 0; t < 2; ++t) {
        group.Submit([&ledger, &ok_count, &exhausted_count] {
          Result<uint64_t> r = ledger.Charge(5, 0.5);
          if (r.ok()) {
            ok_count.fetch_add(1);
          } else if (r.status().code() == StatusCode::kResourceExhausted) {
            exhausted_count.fetch_add(1);
          }
        });
      }
      group.Wait();
    }
    EXPECT_EQ(ok_count.load(), 1);
    EXPECT_EQ(exhausted_count.load(), 1);
    EXPECT_EQ(ledger.ClientState(5).answered, 2u);
    EXPECT_EQ(ledger.ClientState(5).rejected, 1u);
  }
}

TEST(QueryServiceTest, ExactAnswersAreSubsetSums) {
  std::vector<uint8_t> secret = {1, 0, 1, 1, 0, 0, 1, 0};
  QueryService svc(secret, QueryServiceOptions{});
  recon::SubsetQuery all(8, 1);
  QueryOutcome a = svc.Answer(1, all);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(*a, 4.0);
  recon::SubsetQuery none(8, 0);
  a = svc.Answer(1, none);
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(*a, 0.0);
  QueryOutcome wrong = svc.Answer(1, recon::SubsetQuery(5, 1));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, BatchStraddlingBudgetGetsPartialAnswers) {
  QueryServiceOptions opts;
  opts.eps_per_query = 0.5;
  opts.client_budget_eps = 1.0;  // two queries fit
  QueryService svc(std::vector<uint8_t>(16, 1), opts);
  std::vector<recon::SubsetQuery> batch(5, recon::SubsetQuery(16, 1));
  std::vector<QueryOutcome> outcomes = svc.AnswerBatch(9, batch);
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].ok());
  for (size_t i = 2; i < 5; ++i) {
    ASSERT_FALSE(outcomes[i].ok());
    EXPECT_EQ(outcomes[i].status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(svc.queries_answered(), 2u);
  EXPECT_EQ(svc.queries_rejected(), 3u);
}

// DP noise is keyed to (noise_seed, client, per-client ordinal): the
// same client asking the same queries in the same order gets the same
// released values in a fresh service instance.
TEST(QueryServiceTest, NoiseIsReplayableFromSeeds) {
  QueryServiceOptions opts;
  opts.eps_per_query = 0.5;
  opts.noise_seed = 42;
  std::vector<uint8_t> secret = {1, 0, 1, 0, 1, 0};
  recon::SubsetQuery q = {1, 1, 0, 0, 1, 1};
  QueryService first(secret, opts);
  QueryService second(secret, opts);
  for (int k = 0; k < 5; ++k) {
    QueryOutcome a = first.Answer(3, q);
    QueryOutcome b = second.Answer(3, q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);  // bitwise: same stream, same ordinal
  }
  // A different client draws from a different stream.
  QueryOutcome other = first.Answer(4, q);
  ASSERT_TRUE(other.ok());
  QueryOutcome replay = second.Answer(3, q);
  ASSERT_TRUE(replay.ok());
  EXPECT_NE(*other, *replay);
}

Transcript MustRunLoad(QueryService* svc, ThreadPool* pool,
                       size_t num_clients = 12, size_t qpc = 6) {
  LoadGenOptions opts;
  opts.n = svc->n();
  opts.num_clients = num_clients;
  opts.queries_per_client = qpc;
  opts.batch_size = 4;
  opts.query_seed = 99;
  opts.pool = pool;
  Result<Transcript> t = service::RunLoad(
      opts, [svc](uint64_t) -> std::unique_ptr<service::QueryTransport> {
        return std::make_unique<InProcessTransport>(svc);
      });
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return std::move(t).value();
}

// The tentpole determinism claim: the full recorded transcript is
// bit-identical at any thread count, DP noise included.
TEST(QueryServiceTest, TranscriptReplayIsThreadCountInvariant) {
  QueryServiceOptions opts;
  opts.eps_per_query = 0.25;
  opts.client_budget_eps = 1.0;  // 4 of the 6 queries answered per client
  opts.noise_seed = 7;
  Rng rng(11);
  std::vector<uint8_t> secret = recon::RandomBits(24, rng);

  QueryService serial_svc(secret, opts);
  Transcript serial = MustRunLoad(&serial_svc, nullptr);

  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    QueryService svc(secret, opts);
    Transcript parallel = MustRunLoad(&svc, &pool);
    ASSERT_EQ(parallel.entries.size(), serial.entries.size());
    for (size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(parallel.entries[i].query, serial.entries[i].query);
      ASSERT_EQ(parallel.entries[i].answered, serial.entries[i].answered);
      if (serial.entries[i].answered) {
        // Bitwise-equal doubles, not approximately equal.
        EXPECT_EQ(parallel.entries[i].answer, serial.entries[i].answer)
            << "entry " << i;
      } else {
        EXPECT_EQ(parallel.entries[i].error, serial.entries[i].error);
      }
    }
    EXPECT_EQ(parallel.answered(), serial.answered());
    EXPECT_EQ(parallel.rejected(), serial.rejected());
  }
  // Budget arithmetic: 4 answered + 2 rejected per client, every client.
  EXPECT_EQ(serial.answered(), 12u * 4u);
  EXPECT_EQ(serial.rejected(), 12u * 2u);
}

// Exact service -> perfect reconstruction from the transcript alone;
// DP service -> degraded reconstruction and budget rejections.
TEST(QueryServiceTest, TranscriptDecodeEndToEnd) {
  Rng rng(5);
  std::vector<uint8_t> secret = recon::RandomBits(24, rng);

  QueryService exact(secret, QueryServiceOptions{});
  Transcript exact_t = MustRunLoad(&exact, nullptr, /*num_clients=*/20,
                                   /*qpc=*/8);
  Result<recon::Reconstruction> exact_rec =
      service::DecodeTranscript(exact_t, Decoder::kLp);
  ASSERT_TRUE(exact_rec.ok()) << exact_rec.status().ToString();
  EXPECT_DOUBLE_EQ(recon::FractionAgree(exact_rec->estimate, secret), 1.0);

  QueryServiceOptions dp;
  dp.eps_per_query = 0.1;  // heavy noise: scale-10 Laplace per answer
  dp.client_budget_eps = 0.5;
  dp.noise_seed = 6;
  QueryService noisy(secret, dp);
  Transcript noisy_t = MustRunLoad(&noisy, nullptr, /*num_clients=*/20,
                                   /*qpc=*/8);
  EXPECT_GT(noisy_t.rejected(), 0u);
  Result<recon::Reconstruction> noisy_rec =
      service::DecodeTranscript(noisy_t, Decoder::kLp);
  ASSERT_TRUE(noisy_rec.ok()) << noisy_rec.status().ToString();
  EXPECT_LT(recon::FractionAgree(noisy_rec->estimate, secret), 1.0);
}

TEST(QueryServiceTest, DecodeEmptyTranscriptFailsCleanly) {
  Transcript empty;
  empty.n = 8;
  empty.num_clients = 1;
  empty.queries_per_client = 1;
  empty.entries.resize(1);  // recorded but never answered
  Result<recon::Reconstruction> rec =
      service::DecodeTranscript(empty, Decoder::kLeastSquares);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

// A hand-built transcript whose query is shorter than n is a shape
// error: both decoders return InvalidArgument instead of aborting.
TEST(QueryServiceTest, MalformedTranscriptIsInvalidArgumentOnBothDecoders) {
  Transcript bad;
  bad.n = 8;
  bad.num_clients = 1;
  bad.queries_per_client = 1;
  TranscriptEntry entry;
  entry.query = {1, 0, 1};  // length 3 != n
  entry.answer = 2.0;
  entry.answered = true;
  bad.entries.push_back(entry);
  for (Decoder decoder : {Decoder::kLp, Decoder::kLeastSquares}) {
    Result<recon::Reconstruction> rec =
        service::DecodeTranscript(bad, decoder);
    ASSERT_FALSE(rec.ok());
    EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTest, QueryLineRoundTrips) {
  recon::SubsetQuery q = {1, 0, 0, 1, 1};
  std::string line = service::FormatQueryLine(12, q);
  EXPECT_EQ(line, "Q 12 10011");
  Result<service::WireQuery> parsed = service::ParseQueryLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->client, 12u);
  EXPECT_EQ(parsed->query, q);
  EXPECT_FALSE(service::ParseQueryLine("Q 12").ok());
  EXPECT_FALSE(service::ParseQueryLine("Q x 101").ok());
  EXPECT_FALSE(service::ParseQueryLine("Q 1 102").ok());
}

TEST(WireTest, LongestValidQueryLineFitsTheCap) {
  // The widest client id with qs-scale 16384-record queries.
  recon::SubsetQuery q(16384, 1);
  EXPECT_EQ(service::FormatQueryLine(UINT64_MAX, q).size(),
            service::MaxRequestLineLength(q.size()));
}

TEST(WireTest, AnswerLineRoundTripsExactly) {
  const double value = 123.000000000000271;  // needs all 17 digits
  std::string line = service::FormatAnswerLine(3, Result<double>(value));
  Result<Result<double>> parsed = service::ParseAnswerLine(line);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->ok());
  EXPECT_EQ(**parsed, value);  // bitwise round-trip through %.17g
}

// %.17g prints any NaN as "nan"/"-nan", so a payload cannot survive a
// format; the parser keeps only the sign, and the line re-parses from
// its formatted form to the same bits.
TEST(WireTest, NanPayloadParsesToSignedCanonicalNan) {
  for (const char* line : {"A 1 nan(0x7)", "A 1 -nan(0x7)"}) {
    Result<Result<double>> parsed = service::ParseAnswerLine(line);
    ASSERT_TRUE(parsed.ok() && parsed->ok()) << line;
    ASSERT_TRUE(std::isnan(**parsed)) << line;
    EXPECT_EQ(std::signbit(**parsed), line[4] == '-') << line;
    Result<Result<double>> again =
        service::ParseAnswerLine(service::FormatAnswerLine(1, *parsed));
    ASSERT_TRUE(again.ok() && again->ok()) << line;
    EXPECT_EQ(std::bit_cast<uint64_t>(**again),
              std::bit_cast<uint64_t>(**parsed))
        << line;
  }
}

TEST(WireTest, ErrorLineCarriesCodeAndMessage) {
  Result<double> refusal(Status::ResourceExhausted("client 3 over budget"));
  std::string line = service::FormatAnswerLine(3, refusal);
  Result<Result<double>> parsed = service::ParseAnswerLine(line);
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(parsed->status().message(), "client 3 over budget");
  EXPECT_FALSE(service::ParseAnswerLine("X 1 2").ok());
  // The message is carried byte for byte, NUL included.
  const std::string nul_message("over\0budget", 11);
  parsed = service::ParseAnswerLine(service::FormatAnswerLine(
      3, Result<double>(Status::ResourceExhausted(nul_message))));
  ASSERT_TRUE(parsed.ok());
  ASSERT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->status().message(), nul_message);
}

TEST(WireTest, InfoLineRoundTrips) {
  service::ServiceInfo info;
  info.n = 48;
  info.eps_per_query = 0.25;
  info.client_budget_eps = 2.0;
  info.max_batch = 64;
  Result<service::ServiceInfo> parsed =
      service::ParseInfoLine(service::FormatInfoLine(info));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->n, 48u);
  EXPECT_EQ(parsed->eps_per_query, 0.25);
  EXPECT_EQ(parsed->client_budget_eps, 2.0);
  EXPECT_EQ(parsed->max_batch, 64u);
}

// Socket smoke: serve on an ephemeral loopback port, attack through
// SocketTransport, and require the socket transcript to match the
// in-process transcript bit for bit. Skips when the sandbox forbids
// loopback sockets.
TEST(QueryServerTest, SocketTranscriptMatchesInProcess) {
  QueryServiceOptions opts;
  opts.eps_per_query = 0.25;
  opts.client_budget_eps = 1.5;
  opts.noise_seed = 21;
  Rng rng(13);
  std::vector<uint8_t> secret = recon::RandomBits(16, rng);

  QueryService socket_svc(secret, opts);
  ThreadPool handlers(2);
  service::QueryServerOptions sopts;
  sopts.pool = &handlers;
  service::QueryServer server(&socket_svc, sopts);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  ThreadPool accept_thread(1);
  TaskGroup accept_group(&accept_thread);
  accept_group.Submit([&server] { server.Run(); });

  const int port = server.port();
  {
    // Scoped: the probe connection must close before RequestShutdown,
    // or the server (correctly) lingers until its idle-read timeout.
    Result<std::unique_ptr<service::SocketTransport>> probe =
        service::SocketTransport::Connect(port);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    Result<service::ServiceInfo> info = (*probe)->Info();
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->n, 16u);
    EXPECT_EQ(info->eps_per_query, 0.25);
  }

  LoadGenOptions lopts;
  lopts.n = 16;
  lopts.num_clients = 6;
  lopts.queries_per_client = 8;  // budget admits 6, rejects 2
  lopts.batch_size = 4;
  lopts.query_seed = 17;
  Result<Transcript> via_socket = service::RunLoad(
      lopts, [port](uint64_t) -> std::unique_ptr<service::QueryTransport> {
        Result<std::unique_ptr<service::SocketTransport>> conn =
            service::SocketTransport::Connect(port);
        if (!conn.ok()) return nullptr;
        return std::move(conn).value();
      });
  ASSERT_TRUE(via_socket.ok()) << via_socket.status().ToString();

  // Two clients' batches in one write: the server splits the buffered
  // lines into per-client batches, and every answer must still match the
  // in-process service query for query.
  std::vector<std::pair<uint64_t, recon::SubsetQuery>> mixed;
  Rng mixed_rng(29);
  for (uint64_t client : {100, 100, 101, 101, 101, 100}) {
    mixed.emplace_back(client, recon::RandomBits(16, mixed_rng));
  }
  std::string mixed_reply;
  {
    RawConnection conn(port);
    ASSERT_TRUE(conn.ok());
    std::string request;
    for (const auto& [client, query] : mixed) {
      request += service::FormatQueryLine(client, query) + "\n";
    }
    ASSERT_TRUE(conn.Write(request));
    bool eof = false;
    mixed_reply = conn.Read(mixed.size(), /*timeout_ms=*/5000, &eof);
  }

  server.RequestShutdown();
  accept_group.Wait();

  QueryService inproc_svc(secret, opts);
  Result<Transcript> in_process = service::RunLoad(
      lopts,
      [&inproc_svc](uint64_t) -> std::unique_ptr<service::QueryTransport> {
        return std::make_unique<InProcessTransport>(&inproc_svc);
      });
  ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();

  ASSERT_EQ(via_socket->entries.size(), in_process->entries.size());
  for (size_t i = 0; i < in_process->entries.size(); ++i) {
    ASSERT_EQ(via_socket->entries[i].answered,
              in_process->entries[i].answered);
    if (in_process->entries[i].answered) {
      EXPECT_EQ(via_socket->entries[i].answer, in_process->entries[i].answer)
          << "entry " << i;  // %.17g wire format must not lose bits
    } else {
      EXPECT_EQ(via_socket->entries[i].error, in_process->entries[i].error);
    }
  }
  EXPECT_GT(via_socket->rejected(), 0u);

  std::string expected;
  for (const auto& [client, query] : mixed) {
    expected +=
        service::FormatAnswerLine(client, inproc_svc.Answer(client, query)) +
        "\n";
  }
  EXPECT_EQ(mixed_reply, expected);
}

// A client that never sends a newline cannot grow the server's buffer
// past one request line: it gets one E line, then EOF, within a second.
TEST(QueryServerTest, UnterminatedLineIsRefusedAndClosed) {
  Rng rng(3);
  QueryService svc(recon::RandomBits(16, rng), QueryServiceOptions{});
  ThreadPool handlers(1);
  service::QueryServerOptions sopts;
  sopts.pool = &handlers;
  service::QueryServer server(&svc, sopts);
  Status started = server.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }
  ThreadPool accept_thread(1);
  TaskGroup accept_group(&accept_thread);
  accept_group.Submit([&server] { server.Run(); });

  std::string reply;
  bool eof = false;
  {
    RawConnection conn(server.port());
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE(conn.ok() && conn.Write(std::string(svc.n() + 4096, '1')));
    if (conn.ok()) {
      reply = conn.Read(/*want_lines=*/0, /*timeout_ms=*/1000, &eof);
    }
  }
  server.RequestShutdown();
  accept_group.Wait();

  EXPECT_TRUE(eof) << "the server kept the connection open";
  ASSERT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;
  Result<Result<double>> parsed =
      service::ParseAnswerLine(reply.substr(0, reply.size() - 1));
  ASSERT_TRUE(parsed.ok()) << reply;
  ASSERT_FALSE(parsed->ok());
  EXPECT_EQ(parsed->status().code(), StatusCode::kInvalidArgument);
}

// A port file that cannot be written fails Start and is not published: a
// poller must never read an empty port. With a zero file-size limit and
// SIGXFSZ ignored, the buffered write fails only at fclose.
TEST(QueryServerTest, PortFileWriteFailureFailsStart) {
  Rng rng(4);
  QueryService svc(recon::RandomBits(16, rng), QueryServiceOptions{});
  {
    service::QueryServer probe(&svc, service::QueryServerOptions{});
    Status started = probe.Start();
    if (!started.ok()) {
      GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
    }
  }
  const std::string port_file = ::testing::TempDir() + "pso_port_file." +
                                std::to_string(::getpid());
  const std::string tmp_file = port_file + ".tmp";
  std::remove(port_file.c_str());
  std::remove(tmp_file.c_str());
  service::QueryServerOptions sopts;
  sopts.port_file = port_file;
  service::QueryServer server(&svc, sopts);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = 0;
  auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_NE(old_handler, SIG_ERR);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  Status started = server.Start();
  const int restored = ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  ASSERT_EQ(restored, 0);

  EXPECT_FALSE(started.ok());
  EXPECT_EQ(started.code(), StatusCode::kInternal) << started.ToString();
  struct stat st {};
  EXPECT_NE(::stat(port_file.c_str(), &st), 0) << "port file was published";
  EXPECT_NE(::stat(tmp_file.c_str(), &st), 0) << "temp file left behind";
  std::remove(port_file.c_str());
  std::remove(tmp_file.c_str());
}

}  // namespace
}  // namespace pso
