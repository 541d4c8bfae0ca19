#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <memory>

#include "census/reidentify.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "daemon.h"
#include "dp/budget.h"
#include "generator.h"
#include "recon/attacks.h"
#include "recon/oracle.h"
#include "service/loadgen.h"
#include "service/query_service.h"
#include "service/wire.h"

namespace pso::bench {

namespace {

// ---------------------------------------------------------------------------
// Shared helpers.

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least a share `q`
// of the samples at or below it (the maximum when q * n rounds up to n).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::max<size_t>(rank, 1) - 1];
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

// Each workload reports its own registry counts and memory peak: the
// registry is zeroed, memory earlier workloads freed is returned to the
// system, and the high-water mark is reset (writing 5 to clear_refs resets
// VmHWM to the current RSS).
void StartWorkload() {
  metrics::Registry::Global().ResetAll();
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double SelfPeakRssMib() {
  Result<ProcUsage> usage = ReadProcUsage(::getpid());
  return usage.ok() ? usage->peak_rss_mib : 0.0;
}

uint64_t CounterValue(const metrics::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Per-call mean of `body` over `count` calls, in microseconds.
template <typename Body>
double MeanMicros(size_t count, Body body) {
  if (count == 0) return 0.0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < count; ++i) body(i);
  return (NowNs() - start) * 1e-3 / static_cast<double>(count);
}

// Set-ups per run; setup_s is their median. The host's speed changes for
// seconds at a time (a fixed loop ran 25-30% slower for stretches of one
// to a few seconds), so set-ups done back to back all landed in one
// state, and a run's median followed it. Untraced runs therefore do
// kFirstSetups before the measurement and spread the rest evenly over it,
// between operations or serving slices; traced runs do them all first, so that the trace holds only measured
// work. A set-up is a callable that does and times one set-up and returns
// false after recording a failure.
constexpr int kSetups = 15;
constexpr int kFirstSetups = 3;

// Does the set-ups to be done before the measurement; false if one failed.
template <typename SetUp>
bool FirstSetups(const RunOptions& options, int* done, SetUp set_up) {
  const int first = options.traced ? kSetups : kFirstSetups;
  for (; *done < first; ++*done) {
    if (!set_up()) return false;
  }
  return true;
}

// Does the spread-out set-ups due once `progress` (0 to 1) of the
// measurement has passed; at 1, all that are left.
template <typename SetUp>
void SetupsDue(double progress, int* done, SetUp set_up) {
  constexpr int kSpread = kSetups - kFirstSetups;
  while (*done < kSetups && *done - kFirstSetups + 1 <= progress * kSpread) {
    ++*done;
    if (!set_up()) *done = kSetups;
  }
}

// The timed repetitions of a compute workload: at least one, and more
// until `seconds` have passed, with the set-ups due after each.
template <typename Body, typename SetUp>
std::vector<double> Repeat(double seconds, Body body, int* setups_done,
                           SetUp set_up) {
  std::vector<double> rep_s;
  const int64_t start = NowNs();
  do {
    const int64_t t0 = NowNs();
    body();
    rep_s.push_back(SecondsSince(t0));
    SetupsDue(SecondsSince(start) / seconds, setups_done, set_up);
  } while (SecondsSince(start) < seconds);
  SetupsDue(1.0, setups_done, set_up);
  return rep_s;
}

// ---------------------------------------------------------------------------
// Serving workloads: the real daemon over loopback.

struct ServingSpec {
  const char* name;
  size_t n;
  double eps;
  double budget;
  uint32_t queries_per_batch;
  bool client_per_batch;  // a fresh client id per batch, else one per connection
  size_t closed_depth;    // batches in flight per connection
  bool quick_ack;         // see Generator; qs_wide only, below
  // Sizes the closed loop: it sends this many batches per second of its
  // share of --seconds, so every run does the same work (and, with a fresh
  // client per batch, leaves the daemon the same ledger) however fast the
  // daemon is.
  double closed_batches_per_s;
  double open_qps;
  size_t bank_size;  // distinct queries the batches cycle through
};

// eps 0.25 against a budget of 2.0: every client's 10 queries are 8
// answers and then 2 refusals. The open loop runs at about a sixth of
// the daemon's saturation rate: at 20,000 queries/s its threads idle
// between requests and the latency flips between about 0.06 and 0.5 ms
// with the virtual CPUs' wake-up time. 16 batches in flight per
// connection keep a read's worth of requests queued at the daemon.
constexpr ServingSpec kNarrow{"qs_narrow", 48, 0.25, 2.0, 10, true, 16, false,
                              60000.0, 100000.0, 4096};
// About 131 KiB per batch; exact and unmetered. The daemon reads 4 KiB at
// a time and writes each answer as soon as its 16 KiB line is complete,
// without TCP_NODELAY, so Nagle's algorithm holds an answer until the
// previous one is acknowledged. With the kernel's delayed ACKs that wait
// is about 40 ms or nothing, depending on whether the generator's own data
// segments happen to carry the ACK first, and which one a run gets flipped
// between runs: closed-loop throughput read 700 or 3,000 queries/s. The
// generator therefore ACKs every read at once. The open loop runs at about
// a sixth of the daemon's saturation rate, like qs_narrow's.
constexpr ServingSpec kWide{"qs_wide", 16384, 0.0, 0.0, 8, false, 2, true,
                            1500.0, 2000.0, 256};

// Phase shares of --seconds: warm-up and closed loop (as batch counts at
// the spec's planned rate), then the open loop. After the warm-up the
// closed and open loop alternate in kSlices slices, so that each samples
// the whole run rather than one stretch of the host's speed.
constexpr size_t kConnections = 2;
constexpr double kWarmupShare = 0.05;
constexpr double kClosedShare = 0.3;
constexpr double kOpenShare = 0.6;
constexpr size_t kSlices = 6;
constexpr double kMaxLagMs = 1.0;
constexpr double kStallMs = 30.0;
constexpr size_t kReplaySample = 2000;
constexpr size_t kWindowsPerSlice = 2;

uint64_t ClientOf(const ServingSpec& spec, uint64_t batch_index, size_t conn) {
  return spec.client_per_batch ? batch_index + 1 : conn + 1;
}

size_t BankIndex(const ServingSpec& spec, uint64_t batch_index, size_t j) {
  return (batch_index * spec.queries_per_batch + j) % spec.bank_size;
}

// Closed-loop throughput: each slice's batch completions, in time order,
// are cut into kWindowsPerSlice equal windows, and the result is the
// median of all windows' rates, so that stretches in which the shared
// host runs slowly move only the windows they fall into.
double SaturationQps(const std::vector<Phase>& slices) {
  std::vector<double> rates;
  for (const Phase& closed : slices) {
    std::vector<int64_t> done_ns;
    for (const SentBatch& b : closed.batches) {
      if (b.done_ns > 0) done_ns.push_back(b.done_ns);
    }
    std::sort(done_ns.begin(), done_ns.end());
    const size_t per_window = done_ns.size() / kWindowsPerSlice;
    if (per_window == 0) {
      rates.push_back(closed.queries() / closed.window_s());
      continue;
    }
    const double queries_per_window =
        double(closed.queries()) / closed.batches.size() * per_window;
    int64_t from_ns = closed.start_ns;
    for (size_t w = 0; w < kWindowsPerSlice; ++w) {
      const int64_t to_ns = done_ns[(w + 1) * per_window - 1];
      rates.push_back(queries_per_window / ((to_ns - from_ns) * 1e-9));
      from_ns = to_ns;
    }
  }
  return Median(rates);
}

// The open loop kept up unless the median in-flight count of its last
// quarter is far above that of its first quarter (its slices' counts
// taken as one sequence). Medians, because a host stall of a few
// milliseconds backs up hundreds of qs_narrow batches, and one in the
// last quarter lifted its mean past the limit.
bool InFlightGrowing(const std::vector<uint32_t>& inflight) {
  const size_t quarter = inflight.size() / 4;
  if (quarter == 0) return false;
  const auto median = [&](size_t begin) {
    return Median(std::vector<double>(inflight.begin() + begin,
                                      inflight.begin() + begin + quarter));
  };
  return median(inflight.size() - quarter) > 2.0 * median(0) + 2.0;
}

// Spawns the daemon, connects twice and checks both INFO replies.
Status StartServing(const ServingSpec& spec, const RunOptions& options,
                    std::unique_ptr<Daemon>* daemon, std::vector<int>* fds) {
  const DaemonConfig config{spec.n, spec.eps, spec.budget, options.seed};
  Result<std::unique_ptr<Daemon>> started =
      Daemon::Start(options.psoctl, config, options.work_dir);
  if (!started.ok()) return started.status();
  *daemon = std::move(started).value();
  for (size_t c = 0; c < kConnections; ++c) {
    Result<int> fd = ConnectLoopback((*daemon)->port());
    if (!fd.ok()) return fd.status();
    fds->push_back(*fd);
    Result<service::ServiceInfo> info = ProbeInfo(*fd);
    if (!info.ok()) return info.status();
    if (info->n != spec.n || info->eps_per_query != spec.eps ||
        info->client_budget_eps != spec.budget) {
      return Status::Internal("daemon INFO does not match the workload");
    }
  }
  return Status::Ok();
}

void CloseAll(std::vector<int>* fds) {
  for (int fd : *fds) ::close(fd);
  fds->clear();
}

// The query line for `client` from pre-rendered 0/1 bits, without the cost
// of service::FormatQueryLine on the generator thread (which must stay
// cheaper per query than the daemon).
void AppendQueryLine(uint64_t client, const std::string& bits,
                     std::string* out) {
  char id[24];
  const auto end = std::to_chars(id, id + sizeof(id), client).ptr;
  out->append("Q ");
  out->append(id, end);
  out->push_back(' ');
  out->append(bits);
  out->push_back('\n');
}

struct ServingInputs {
  std::vector<uint8_t> secret;
  std::vector<recon::SubsetQuery> bank;
  std::vector<std::string> bits;  // each bank query as its 0/1 wire string
  std::vector<double> exact;      // each bank query's true answer
  // With one client per connection every line is known in advance.
  std::vector<std::vector<std::string>> conn_lines;
};

// psoctl serve draws its secret from Rng(--seed), so the oracle
// regenerates it from the same seed.
ServingInputs MakeServingInputs(const ServingSpec& spec, uint64_t seed) {
  ServingInputs in;
  Rng secret_rng(seed);
  in.secret = recon::RandomBits(spec.n, secret_rng);
  Rng query_rng = Rng::StreamAt(seed, 1);
  in.bank.resize(spec.bank_size);
  in.bits.resize(spec.bank_size);
  in.exact.assign(spec.bank_size, 0.0);
  for (size_t k = 0; k < spec.bank_size; ++k) {
    in.bank[k] = recon::RandomBits(spec.n, query_rng);
    for (size_t i = 0; i < spec.n; ++i) {
      in.exact[k] += in.bank[k][i] & in.secret[i];
      in.bits[k].push_back(in.bank[k][i] != 0 ? '1' : '0');
    }
  }
  if (!spec.client_per_batch) {
    in.conn_lines.resize(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      for (const std::string& b : in.bits) {
        in.conn_lines[c].emplace_back();
        AppendQueryLine(c + 1, b, &in.conn_lines[c].back());
      }
    }
  }
  return in;
}

// An in-process service with the daemon's DP settings, or null when the
// daemon answers exactly.
std::unique_ptr<service::QueryService> MakeReplay(const ServingSpec& spec,
                                                  const ServingInputs& in,
                                                  uint64_t seed) {
  if (spec.eps <= 0.0) return nullptr;
  service::QueryServiceOptions options;
  options.eps_per_query = spec.eps;
  options.client_budget_eps = spec.budget;
  options.noise_seed = seed;
  return std::make_unique<service::QueryService>(in.secret, options);
}

// What the daemon must have answered to batch `b`: the exact answers, or
// the replay's answers and refusals for the batch's client.
std::vector<service::QueryOutcome> Expected(const ServingSpec& spec,
                                            const ServingInputs& in,
                                            const SentBatch& b,
                                            service::QueryService* replay) {
  std::vector<recon::SubsetQuery> queries;
  std::vector<service::QueryOutcome> expected;
  for (uint32_t j = 0; j < b.queries; ++j) {
    const size_t k = BankIndex(spec, b.index, j);
    if (replay != nullptr) {
      queries.push_back(in.bank[k]);
    } else {
      expected.emplace_back(in.exact[k]);
    }
  }
  if (replay == nullptr) return expected;
  return replay->AnswerBatch(ClientOf(spec, b.index, b.conn), queries);
}

struct Checked {
  uint64_t answered = 0;
  uint64_t refused = 0;
  uint64_t missing = 0;
  uint64_t wrong = 0;
};

// Checks every response of `phase` against the oracle. Chunks of batches
// run in parallel, each with a replay service of its own. That is exact
// because a qs_narrow client's queries all sit in one batch and qs_wide is
// answered exactly, so no client's answer ordinals span two chunks.
Checked CheckPhase(const ServingSpec& spec, const ServingInputs& in,
                   uint64_t seed, const Phase& phase, ThreadPool* pool) {
  const size_t n = phase.batches.size();
  const size_t chunk = DefaultChunkSize(n);
  std::vector<Checked> parts(NumChunks(n, chunk));
  ParallelFor(pool, n, [&](size_t begin, size_t end) {
    std::unique_ptr<service::QueryService> replay = MakeReplay(spec, in, seed);
    Checked& part = parts[begin / chunk];
    for (size_t i = begin; i < end; ++i) {
      const SentBatch& b = phase.batches[i];
      const uint64_t client = ClientOf(spec, b.index, b.conn);
      const std::vector<service::QueryOutcome> expected =
          Expected(spec, in, b, replay.get());
      for (uint32_t j = 0; j < b.queries; ++j) {
        if (j >= b.received) {
          ++part.missing;
        } else if (phase.line_hash[b.first_line + j] !=
                   HashString(service::FormatAnswerLine(client, expected[j]))) {
          ++part.wrong;
        } else if (expected[j].ok()) {
          ++part.answered;
        } else {
          ++part.refused;
        }
      }
    }
  }, chunk);
  Checked total;
  for (const Checked& part : parts) {
    total.answered += part.answered;
    total.refused += part.refused;
    total.missing += part.missing;
    total.wrong += part.wrong;
  }
  return total;
}

WorkloadRun RunServing(const ServingSpec& spec, const RunOptions& options) {
  WorkloadRun run;
  StartWorkload();

  // Set-up: the inputs, then the daemon from spawn to listening, two
  // connections, and INFO answered on both. The measured daemon is the
  // last of the first set-ups'; every other one is stopped untimed.
  ServingInputs in;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<int> fds;
  const auto set_up = [&](ServingInputs* inputs, std::unique_ptr<Daemon>* d,
                          std::vector<int>* conns) {
    const int64_t t0 = NowNs();
    *inputs = MakeServingInputs(spec, options.seed);
    const Status ready = StartServing(spec, options, d, conns);
    if (!ready.ok()) {
      CloseAll(conns);
      run.Fail("set-up: " + ready.ToString());
      return false;
    }
    setup_s.push_back(SecondsSince(t0));
    return true;
  };
  const auto stop = [&](std::unique_ptr<Daemon>* d, std::vector<int>* conns) {
    CloseAll(conns);
    const Result<ShutdownReport> report = (*d)->Stop();
    if (!report.ok()) run.Fail("set-up: " + report.status().ToString());
    return report.ok();
  };
  int setups = 0;
  if (!FirstSetups(options, &setups, [&] {
        return (daemon == nullptr || stop(&daemon, &fds)) &&
               set_up(&in, &daemon, &fds);
      })) {
    CloseAll(&fds);
    return run;
  }
  const auto spare_set_up = [&] {
    ServingInputs spare_in;
    std::unique_ptr<Daemon> spare;
    std::vector<int> spare_fds;
    return set_up(&spare_in, &spare, &spare_fds) && stop(&spare, &spare_fds);
  };
  std::string probe;
  AppendQueryLine(7, in.bits[0], &probe);
  if (probe != service::FormatQueryLine(7, in.bank[0]) + "\n") {
    CloseAll(&fds);
    run.Fail("the generator's query lines differ from FormatQueryLine");
    return run;
  }

  const auto source = [&](uint64_t index, size_t conn, std::string* out) {
    for (uint32_t j = 0; j < spec.queries_per_batch; ++j) {
      const size_t k = BankIndex(spec, index, j);
      if (spec.client_per_batch) {
        AppendQueryLine(index + 1, in.bits[k], out);
      } else {
        out->append(in.conn_lines[conn][k]);
      }
    }
    return spec.queries_per_batch;
  };
  Generator generator(fds, source, spec.quick_ack);
  fds.clear();

  const double s = options.seconds;
  const auto batches = [&](double share) {
    return std::max<size_t>(1, static_cast<size_t>(share * s * spec.closed_batches_per_s));
  };
  TracedSection section(options.traced, spec.name);
  const Phase warmup = generator.Closed(batches(kWarmupShare), spec.closed_depth);
  const Result<ProcUsage> usage_before = ReadProcUsage(daemon->pid());
  std::vector<Phase> closed;
  std::vector<Phase> open;
  for (size_t i = 0; i < kSlices; ++i) {
    closed.push_back(generator.Closed(batches(kClosedShare / kSlices), spec.closed_depth));
    open.push_back(generator.Open(kOpenShare * s / kSlices,
                                  spec.open_qps / spec.queries_per_batch,
                                  Rng::StreamAt(options.seed, 2 + i).NextUint64()));
    SetupsDue(double(i + 1) / kSlices, &setups, spare_set_up);
  }
  run.split = section.Finish(options.trace_path);
  const Result<ProcUsage> usage = ReadProcUsage(daemon->pid());
  generator.Close();
  const Result<ShutdownReport> report = daemon->Stop();
  if (!usage_before.ok() || !usage.ok()) {
    run.Fail("cannot read the daemon's /proc entries");
    return run;
  }
  // The slices of each loop, summed.
  struct Totals {
    size_t batches = 0;
    size_t queries = 0;
    double window_s = 0.0;
    double cpu_s = 0.0;
    double wall_s = 0.0;
  };
  const auto totals = [](const std::vector<Phase>& slices) {
    Totals t;
    for (const Phase& p : slices) {
      t.batches += p.batches.size();
      t.queries += p.queries();
      t.window_s += p.window_s();
      t.cpu_s += p.cpu_s;
      t.wall_s += p.wall_s;
    }
    return t;
  };
  const Totals closed_total = totals(closed);
  const Totals open_total = totals(open);
  std::vector<const Phase*> phases = {&warmup};
  for (const auto* loop : {&closed, &open}) {
    for (const Phase& p : *loop) phases.push_back(&p);
  }

  // Oracle: exact answers from the secret; DP answers and refusals from an
  // in-process replay of each client's queries in order, which must match
  // byte for byte (the service's determinism contract).
  Checked checked;
  {
    ThreadPool pool(3);
    for (const Phase* phase : phases) {
      if (!phase->error.empty()) run.Fail(phase->error);
      run.attempted += phase->queries();
      const Checked c = CheckPhase(spec, in, options.seed, *phase, &pool);
      checked.answered += c.answered;
      checked.refused += c.refused;
      checked.missing += c.missing;
      checked.wrong += c.wrong;
    }
  }
  run.failed = checked.missing + checked.wrong;
  if (checked.missing > 0) {
    run.Fail(StrFormat("%llu response lines missing", (unsigned long long)checked.missing));
  }
  if (checked.wrong > 0) {
    run.Fail(StrFormat("%llu responses differ from the oracle", (unsigned long long)checked.wrong));
  }
  if (!report.ok()) {
    run.Fail(report.status().ToString());
    return run;
  }
  if (report->answered != checked.answered || report->rejected != checked.refused) {
    run.Fail(StrFormat("daemon counted %llu answered and %llu rejected; the "
                       "generator verified %llu and %llu",
                       (unsigned long long)report->answered,
                       (unsigned long long)report->rejected,
                       (unsigned long long)checked.answered,
                       (unsigned long long)checked.refused));
  }

  // Open-loop latency, from each batch's scheduled send to each of its
  // lines.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> rtt_ms;
  std::vector<uint32_t> inflight;
  for (const Phase& p : open) {
    for (const SentBatch& b : p.batches) {
      lag_ms.push_back((b.issued_ns - b.scheduled_ns) * 1e-6);
      for (uint32_t j = 0; j < b.received; ++j) {
        latency_ms.push_back((p.line_ns[b.first_line + j] - b.scheduled_ns) * 1e-6);
      }
      if (b.done_ns > 0) rtt_ms.push_back((b.done_ns - b.sent_ns) * 1e-6);
    }
    inflight.insert(inflight.end(), p.inflight.begin(), p.inflight.end());
  }
  // Latency counts from the scheduled time, so lag cannot hide in it; the
  // generator only has to keep to its schedule. Its median lag says
  // whether it did. Its p99 says how often the host descheduled it, which
  // reached several milliseconds on a busy host with the generator on time.
  const double lag_p50 = Median(lag_ms);
  const bool growing = InFlightGrowing(inflight);
  const bool open_valid = open_total.batches > 0 && lag_p50 <= kMaxLagMs && !growing;
  if (!open_valid) {
    run.Fail(StrFormat("open loop invalid: generator lag p50 %.3f ms (limit "
                       "%.1f ms), in-flight count %s",
                       lag_p50, kMaxLagMs, growing ? "growing" : "steady"));
  }
  const double saturation = SaturationQps(closed);
  const uint64_t total = run.attempted;

  run.end_to_end.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  if (open_valid) {
    run.end_to_end.push_back({"latency_p50_ms", Median(latency_ms), "ms", latency_ms.size()});
  }
  run.end_to_end.push_back({"throughput_per_s", saturation, "1/s", closed_total.queries});
  run.end_to_end.push_back({"peak_rss_mib", usage->peak_rss_mib, "MiB"});
  run.cost_per_op_s = saturation > 0.0 ? 1.0 / saturation : 0.0;

  if (open_valid) {
    run.workload.push_back({"query_p50_ms", Median(latency_ms), "ms", latency_ms.size()});
    run.workload.push_back({"query_p99_ms", Percentile(latency_ms, 0.99), "ms", latency_ms.size()});
  }
  run.workload.push_back({"saturation_qps", saturation, "queries/s", closed_total.queries});
  run.workload.push_back({"failed_fraction", total > 0 ? double(run.failed) / total : 0.0, "failed/attempted", total});
  run.workload.push_back({"peak_rss_mib", usage->peak_rss_mib, "MiB"});

  // Per-layer: the daemon's own registry dump, /proc, and the generator.
  const Json& dump = report->metrics;
  const auto histogram = [&](const char* name, const char* field) {
    return dump.NumberAt({"histograms", name, field}).value_or(0.0);
  };
  const size_t answer_count = static_cast<size_t>(histogram("service.answer", "count"));
  run.layers.push_back({"service.answer_p50_us", histogram("service.answer", "p50") * 1e6, "us", answer_count});
  run.layers.push_back({"service.answer_p99_us", histogram("service.answer", "p99") * 1e6, "us", answer_count});
  run.layers.push_back({"service.batch_size_mean", histogram("service.batch_size", "mean"), "queries", static_cast<size_t>(histogram("service.batch_size", "count"))});
  const size_t measured = closed_total.queries + open_total.queries;
  run.layers.push_back({"service.server_cpu_us_per_query", (usage->cpu_s - usage_before->cpu_s) * 1e6 / std::max<size_t>(measured, 1), "us", measured});
  run.layers.push_back({"service.batch_rtt_p50_ms", Median(rtt_ms), "ms", rtt_ms.size()});
  run.layers.push_back({"service.batch_rtt_p99_ms", Percentile(rtt_ms, 0.99), "ms", rtt_ms.size()});
  const double stalled = std::count_if(rtt_ms.begin(), rtt_ms.end(), [](double v) { return v >= kStallMs; });
  run.layers.push_back({"service.stalled_batch_fraction", rtt_ms.empty() ? 0.0 : stalled / rtt_ms.size(), "fraction", rtt_ms.size()});
  size_t wire_bytes = 0;
  for (const Phase* phase : phases) {
    wire_bytes += phase->request_bytes + phase->response_bytes;
  }
  run.layers.push_back({"service.wire_bytes_per_query", double(wire_bytes) / std::max<uint64_t>(total, 1), "bytes", total});

  // Replays of the daemon's per-query steps over the open loop's first
  // queries.
  std::vector<std::string> sample_requests;
  std::vector<service::QueryOutcome> sample_outcomes;
  std::vector<uint64_t> sample_clients;
  std::unique_ptr<service::QueryService> replay = MakeReplay(spec, in, options.seed);
  for (const Phase& p : open) {
    for (const SentBatch& b : p.batches) {
      if (sample_requests.size() >= kReplaySample) break;
      const uint64_t client = ClientOf(spec, b.index, b.conn);
      const std::vector<service::QueryOutcome> expected = Expected(spec, in, b, replay.get());
      for (uint32_t j = 0; j < b.queries; ++j) {
        sample_requests.push_back(service::FormatQueryLine(client, in.bank[BankIndex(spec, b.index, j)]));
        sample_outcomes.push_back(expected[j]);
        sample_clients.push_back(client);
      }
    }
  }
  const size_t sample = sample_requests.size();
  run.layers.push_back({"service.wire.parse_query_us", MeanMicros(sample, [&](size_t i) { (void)service::ParseQueryLine(sample_requests[i]); }), "us", sample});
  run.layers.push_back({"service.wire.format_answer_us", MeanMicros(sample, [&](size_t i) { (void)service::FormatAnswerLine(sample_clients[i], sample_outcomes[i]); }), "us", sample});
  dp::BudgetLedger shadow(spec.eps > 0.0 ? spec.budget : 0.0);
  run.layers.push_back({"dp.charge_us", MeanMicros(sample, [&](size_t i) { (void)shadow.Charge(sample_clients[i], spec.eps); }), "us", sample});
  run.layers.push_back({"dp.refused_fraction", total > 0 ? double(checked.refused) / total : 0.0, "fraction", total});
  run.layers.push_back({"service.loadgen_lag_p99_ms", Percentile(lag_ms, 0.99), "ms", lag_ms.size()});
  run.layers.push_back({"service.loadgen_cpu_fraction", open_total.wall_s > 0 ? open_total.cpu_s / open_total.wall_s : 0.0, "fraction"});
  run.layers.push_back({"service.loadgen_closed_cpu_fraction", closed_total.wall_s > 0 ? closed_total.cpu_s / closed_total.wall_s : 0.0, "fraction"});

  uint32_t max_inflight = 0;
  for (uint32_t v : inflight) max_inflight = std::max(max_inflight, v);
  run.notes.push_back(StrFormat(
      "warm-up: %zu batches in %.2f s; then %zu slices of closed and open "
      "loop; closed loop: %zu batches, %zu in flight per connection, in "
      "%.2f s; open loop: %.2f s of Poisson arrivals at %.0f queries/s, %zu "
      "batches, at most %u in flight",
      warmup.batches.size(), warmup.window_s(), kSlices, closed_total.batches,
      spec.closed_depth, closed_total.window_s, open_total.window_s,
      spec.open_qps, open_total.batches, max_inflight));
  run.notes.push_back(StrFormat(
      "daemon: connections=%llu answered=%llu rejected=%llu; client sends "
      "batches of %u",
      (unsigned long long)report->connections,
      (unsigned long long)report->answered,
      (unsigned long long)report->rejected, spec.queries_per_batch));
  return run;
}

// ---------------------------------------------------------------------------
// Attack workloads, in the attacker's two steps. Set-up collects: for each
// dataset of a pool drawn from the seed, an exact service over its secret
// answers the transcript RunLoad collects. The timed part decodes: an
// operation reconstructs one dataset of the pool. LP decode time varies by
// about a third between datasets, which the median over the tens of
// datasets a run decodes absorbs; LSQ decode time does not depend on the
// data.

struct AttackSpec {
  const char* name;
  size_t n;
  size_t clients;
  size_t queries_per_client;
  service::Decoder decoder;
  double min_accuracy;
  size_t pool;  // datasets collected at set-up; operations cycle through them
};

// m = 5n and m = 4n queries. Exact LP decoding of a recorded transcript
// runs into the simplex iteration limit from about n = 64 on.
constexpr AttackSpec kAttackLp{"attack_lp", 32, 16, 10, service::Decoder::kLp,
                               1.0, 256};
constexpr AttackSpec kAttackLsq{"attack_lsq", 256, 64, 16,
                                service::Decoder::kLeastSquares, 0.99, 24};
constexpr size_t kLsqIterations = 400;

struct Dataset {
  std::vector<uint8_t> secret;
  service::Transcript transcript;
};

// Collects the pool, recording each collection's time in `collect_s`.
Result<std::vector<Dataset>> CollectDatasets(const AttackSpec& spec,
                                             uint64_t seed,
                                             std::vector<double>* collect_s) {
  std::vector<Dataset> pool;
  for (size_t i = 0; i < spec.pool; ++i) {
    Rng rng = Rng::StreamAt(seed, i);
    Dataset d;
    d.secret = recon::RandomBits(spec.n, rng);
    service::LoadGenOptions load;
    load.n = spec.n;
    load.num_clients = spec.clients;
    load.queries_per_client = spec.queries_per_client;
    load.batch_size = 8;
    load.query_seed = rng.NextUint64();
    const int64_t t0 = NowNs();
    service::QueryService service(d.secret, service::QueryServiceOptions{});
    Result<service::Transcript> transcript = service::RunLoad(
        load, [&service](uint64_t) -> std::unique_ptr<service::QueryTransport> {
          return std::make_unique<service::InProcessTransport>(&service);
        });
    if (!transcript.ok()) return transcript.status();
    collect_s->push_back(SecondsSince(t0));
    d.transcript = std::move(transcript).value();
    pool.push_back(std::move(d));
  }
  return pool;
}

struct Decoded {
  double decode_s = 0.0;
  double accuracy = 0.0;
  std::string error;
};

Decoded Decode(const AttackSpec& spec, const Dataset& d) {
  Decoded out;
  const int64_t t0 = NowNs();
  Result<recon::Reconstruction> rec = [&] {
    trace::Span span("recon.DecodeTranscript");
    return service::DecodeTranscript(d.transcript, spec.decoder,
                                     recon::LpDecodeOptions{}, kLsqIterations);
  }();
  out.decode_s = SecondsSince(t0);
  if (!rec.ok()) {
    out.error = rec.status().ToString();
  } else {
    out.accuracy = recon::FractionAgree(rec->estimate, d.secret);
  }
  return out;
}

WorkloadRun RunAttack(const AttackSpec& spec, const RunOptions& options) {
  WorkloadRun run;
  StartWorkload();

  // Set-up: collecting the pool. The decoded pool is the last of the
  // first set-ups'.
  std::vector<double> setup_s;
  std::vector<double> collect_s;
  std::vector<Dataset> pool;
  const auto set_up = [&](bool keep) {
    const int64_t t0 = NowNs();
    Result<std::vector<Dataset>> collected =
        CollectDatasets(spec, options.seed, &collect_s);
    if (!collected.ok()) {
      run.Fail("set-up: " + collected.status().ToString());
      return false;
    }
    setup_s.push_back(SecondsSince(t0));
    if (keep) pool = std::move(collected).value();
    return true;
  };
  int setups = 0;
  if (!FirstSetups(options, &setups, [&] { return set_up(true); })) return run;

  // Dataset 0 is the warm-up; its solver counters are the per-decode
  // counts reported, since the timed datasets depend on the run length.
  const metrics::Snapshot before = metrics::Registry::Global().TakeSnapshot();
  const Decoded warmup = Decode(spec, pool[0]);
  const metrics::Snapshot after = metrics::Registry::Global().TakeSnapshot();
  if (!warmup.error.empty() || warmup.accuracy < spec.min_accuracy) {
    run.Fail(StrFormat("warm-up: %s accuracy %.4f", warmup.error.c_str(),
                       warmup.accuracy));
    return run;
  }

  std::vector<double> decode_s;
  double min_accuracy = 1.0;
  size_t next = 1;
  TracedSection section(options.traced, spec.name);
  const std::vector<double> op_s = Repeat(options.seconds, [&] {
    const size_t index = next++ % spec.pool;
    const Decoded d = Decode(spec, pool[index]);
    ++run.attempted;
    if (!d.error.empty()) {
      ++run.failed;
      run.Fail(StrFormat("dataset %zu: %s", index, d.error.c_str()));
      return;
    }
    decode_s.push_back(d.decode_s);
    min_accuracy = std::min(min_accuracy, d.accuracy);
    if (d.accuracy < spec.min_accuracy) {
      ++run.failed;
      run.Fail(StrFormat("dataset %zu: accuracy %.4f below %.2f", index,
                         d.accuracy, spec.min_accuracy));
    }
  }, &setups, [&] { return set_up(false); });
  run.split = section.Finish(options.trace_path);
  const double median_s = Median(op_s);
  double total_s = 0.0;
  for (double s : op_s) total_s += s;
  const double datasets = static_cast<double>(run.attempted);

  run.end_to_end.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  run.end_to_end.push_back({"latency_p50_ms", median_s * 1e3, "ms", op_s.size()});
  run.end_to_end.push_back({"throughput_per_s", spec.n / median_s, "1/s", op_s.size()});
  run.end_to_end.push_back({"peak_rss_mib", SelfPeakRssMib(), "MiB"});
  run.cost_per_op_s = total_s / datasets;

  run.workload.push_back({"decode_s", median_s, "s", op_s.size()});
  run.workload.push_back({"decode_p90_s", Percentile(decode_s, 0.9), "s", decode_s.size()});
  run.workload.push_back({"accuracy", min_accuracy, "fraction", run.attempted});
  run.workload.push_back({"failed_fraction", run.failed / datasets, "failed/attempted", run.attempted});
  run.workload.push_back({"peak_rss_mib", SelfPeakRssMib(), "MiB"});

  const double m = static_cast<double>(pool[0].transcript.answered());
  run.layers.push_back({"service.collect_s", Median(collect_s), "s", collect_s.size()});
  if (spec.decoder == service::Decoder::kLp) {
    run.layers.push_back({"recon.lp_decode_s", Median(decode_s), "s", decode_s.size()});
    for (const char* name : {"pivots", "pivot_work", "refactorizations", "eta_updates"}) {
      const std::string key = std::string("lp.") + name;
      run.layers.push_back({std::string("solver.lp.") + name, double(CounterValue(after, key) - CounterValue(before, key)), "count"});
    }
  } else {
    run.layers.push_back({"recon.lsq_decode_s", Median(decode_s), "s", decode_s.size()});
    run.layers.push_back({"recon.lsq_query_bytes_scanned", (24.0 + 2.0 * kLsqIterations) * m * spec.n, "bytes"});
  }
  const metrics::Snapshot end = metrics::Registry::Global().TakeSnapshot();
  const auto answer = end.histograms.find("service.answer");
  if (answer != end.histograms.end()) {
    run.layers.push_back({"service.answer_p50_us", answer->second.ValueAtQuantile(0.5) * 1e6, "us", answer->second.count});
    run.layers.push_back({"service.answer_p99_us", answer->second.ValueAtQuantile(0.99) * 1e6, "us", answer->second.count});
  }
  const auto batches = end.histograms.find("service.batch_size");
  if (batches != end.histograms.end()) {
    run.layers.push_back({"service.batch_size_mean", batches->second.mean(), "queries", batches->second.count});
  }
  run.notes.push_back(StrFormat(
      "n=%zu, %zu clients x %zu queries (m=%.0f), in-process exact service; "
      "set-up collects %zu datasets; 1 warm-up decode, then %zu timed "
      "decodes",
      spec.n, spec.clients, spec.queries_per_client, m, spec.pool,
      op_s.size()));
  return run;
}

// ---------------------------------------------------------------------------
// Census. Set-up publishes: the population, the commercial file, and
// each block's exact and eps-DP tables. A timed repetition attacks them:
// CSP reconstruction of both releases over a 2-thread pool, then linkage
// against the commercial file.

constexpr size_t kCensusBlocks = 200;
constexpr double kCensusDpEps = 2.0;

struct CensusInputs {
  census::Population population;
  std::vector<census::CommercialEntry> commercial;
  std::vector<census::BlockTables> exact_tables;
  std::vector<census::BlockTables> dp_tables;
  double tabulate_s = 0.0;
};

CensusInputs MakeCensusInputs(uint64_t seed) {
  census::PopulationOptions options;
  options.num_blocks = kCensusBlocks;
  options.min_block_size = 2;
  options.max_block_size = 9;
  Rng rng(seed);
  CensusInputs in{census::GeneratePopulation(options, rng), {}, {}, {}, 0.0};
  Rng commercial_rng = Rng::StreamAt(seed, 1);
  in.commercial = census::SimulateCommercialDatabase(
      in.population, census::CommercialOptions{}, commercial_rng);
  const int64_t t0 = NowNs();
  Rng dp_rng = Rng::StreamAt(seed, 2);
  for (const census::Block& b : in.population.blocks) {
    in.exact_tables.push_back(census::Tabulate(b));
    in.dp_tables.push_back(census::TabulateDp(b, kCensusDpEps, dp_rng));
  }
  in.tabulate_s = SecondsSince(t0);
  return in;
}

// One repetition's outputs; equal across repetitions of one seed.
struct CensusRep {
  census::ReconstructionReport exact;
  census::ReconstructionReport dp;
  census::ReidentificationReport reid_exact;
  census::ReidentificationReport reid_dp;
  size_t solutions = 0;
  std::vector<census::BlockReconstruction> exact_blocks;
  double solve_s = 0.0;
  double link_s = 0.0;

  bool SameOutputs(const CensusRep& o) const {
    return exact.persons_exactly_reconstructed == o.exact.persons_exactly_reconstructed &&
           exact.blocks_unique == o.exact.blocks_unique &&
           exact.blocks_exhausted == o.exact.blocks_exhausted &&
           dp.persons_exactly_reconstructed == o.dp.persons_exactly_reconstructed &&
           dp.blocks_unique == o.dp.blocks_unique &&
           dp.blocks_exhausted == o.dp.blocks_exhausted &&
           reid_exact.putative == o.reid_exact.putative &&
           reid_exact.confirmed == o.reid_exact.confirmed &&
           reid_dp.putative == o.reid_dp.putative &&
           reid_dp.confirmed == o.reid_dp.confirmed && solutions == o.solutions;
  }
};

CensusRep RunCensusRep(const CensusInputs& in, ThreadPool* pool) {
  CensusRep rep;
  const census::Population& pop = in.population;
  // E9's options for the exact and the DP leg.
  census::ReconstructOptions exact_options;
  exact_options.max_solutions = 64;
  exact_options.max_nodes = 500000;
  exact_options.pool = pool;
  census::ReconstructOptions dp_options;
  dp_options.max_solutions = 16;
  dp_options.max_nodes = 150000;
  dp_options.pool = pool;
  std::vector<census::BlockReconstruction> dp_blocks;
  int64_t t0 = NowNs();
  {
    trace::Span span("census.ReconstructPopulation");
    rep.exact = census::ReconstructPopulation(pop, in.exact_tables,
                                              exact_options, &rep.exact_blocks);
    rep.dp = census::ReconstructPopulation(pop, in.dp_tables, dp_options,
                                           &dp_blocks);
  }
  rep.solve_s = SecondsSince(t0);
  for (const auto* blocks : {&rep.exact_blocks, &dp_blocks}) {
    for (const census::BlockReconstruction& b : *blocks) rep.solutions += b.solutions_found;
  }

  t0 = NowNs();
  {
    trace::Span span("census.Reidentify");
    rep.reid_exact = census::Reidentify(pop, rep.exact_blocks, in.commercial, 1, pool);
    rep.reid_dp = census::Reidentify(pop, dp_blocks, in.commercial, 1, pool);
  }
  rep.link_s = SecondsSince(t0);
  return rep;
}

// Exact tables: a search that ran to completion must have found the true
// block, and a unique solution must be the true block.
size_t WrongExactBlocks(const CensusRep& rep) {
  size_t wrong = 0;
  for (const census::BlockReconstruction& b : rep.exact_blocks) {
    if ((b.exhausted && !b.truth_found) ||
        (b.unique && b.exact_matches != b.block_size)) {
      ++wrong;
    }
  }
  return wrong;
}

WorkloadRun RunCensus(const RunOptions& options) {
  WorkloadRun run;
  StartWorkload();
  std::vector<double> setup_s;
  std::vector<double> tabulate_s;
  // The attacked inputs are the last of the first set-ups'.
  std::optional<CensusInputs> inputs;
  const auto set_up = [&](bool keep) {
    if (keep) inputs.reset();
    const int64_t t0 = NowNs();
    CensusInputs made = MakeCensusInputs(options.seed);
    setup_s.push_back(SecondsSince(t0));
    tabulate_s.push_back(made.tabulate_s);
    if (keep) inputs.emplace(std::move(made));
    return true;
  };
  int setups = 0;
  FirstSetups(options, &setups, [&] { return set_up(true); });
  const CensusInputs& in = *inputs;
  ThreadPool pool(2);

  std::optional<CensusRep> reference;
  std::vector<double> solve_s;
  std::vector<double> link_s;
  TracedSection section(options.traced, "census");
  const std::vector<double> rep_s = Repeat(options.seconds, [&] {
    CensusRep rep = RunCensusRep(in, &pool);
    ++run.attempted;
    solve_s.push_back(rep.solve_s);
    link_s.push_back(rep.link_s);
    const size_t wrong = WrongExactBlocks(rep);
    if (wrong > 0) {
      ++run.failed;
      run.Fail(StrFormat("%zu exact-table blocks reconstructed wrongly", wrong));
    } else if (reference && !rep.SameOutputs(*reference)) {
      ++run.failed;
      run.Fail("a repetition produced different outputs");
    }
    if (!reference) reference = std::move(rep);
  }, &setups, [&] { return set_up(false); });
  run.split = section.Finish(options.trace_path);
  const double median_s = Median(rep_s);
  const double blocks = static_cast<double>(in.population.blocks.size());

  run.end_to_end.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
  run.end_to_end.push_back({"latency_p50_ms", median_s * 1e3, "ms", rep_s.size()});
  run.end_to_end.push_back({"throughput_per_s", blocks / median_s, "1/s", rep_s.size()});
  run.end_to_end.push_back({"peak_rss_mib", SelfPeakRssMib(), "MiB"});
  run.cost_per_op_s = median_s;

  run.workload.push_back({"blocks_per_s", blocks / median_s, "blocks/s", rep_s.size()});
  run.workload.push_back({"persons_exact_fraction", reference->exact.person_exact_fraction(), "fraction"});
  run.workload.push_back({"failed_fraction", run.failed / double(rep_s.size()), "failed/attempted", rep_s.size()});
  run.workload.push_back({"peak_rss_mib", SelfPeakRssMib(), "MiB"});

  run.layers.push_back({"census.tabulate_s", Median(tabulate_s), "s", tabulate_s.size()});
  run.layers.push_back({"census.solve_s", Median(solve_s), "s", solve_s.size()});
  run.layers.push_back({"census.link_s", Median(link_s), "s", link_s.size()});
  run.layers.push_back({"census.solutions_enumerated", double(reference->solutions), "count"});
  run.layers.push_back({"census.blocks_exhausted", double(reference->exact.blocks_exhausted + reference->dp.blocks_exhausted), "count"});
  run.layers.push_back({"census.unique_fraction", reference->exact.block_unique_fraction(), "fraction"});
  run.notes.push_back(StrFormat(
      "%zu blocks of 2..9 persons (%zu persons), exact and eps=%.1f DP "
      "tables built at set-up; 2-thread pool; %zu timed repetitions",
      in.population.blocks.size(), in.population.total_persons, kCensusDpEps,
      rep_s.size()));
  return run;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  // The same descriptions as BENCHMARK.json's.
  static const std::vector<Workload> kAll = {
      {"qs_narrow",
       "psoctl serve over loopback with 48-bit DP queries, 8 answered and 2 "
       "refused per client: per-request cost (parse, ledger, noise, format) "
       "dominates",
       [](const RunOptions& o) { return RunServing(kNarrow, o); }},
      {"qs_wide",
       "psoctl serve over loopback with exact 16384-bit queries in 131 KiB "
       "batches: bytes, the answer kernel and TCP segmentation dominate",
       [](const RunOptions& o) { return RunServing(kWide, o); }},
      {"attack_lp",
       "transcripts collected with RunLoad at set-up, then LP decoding at "
       "n=32, m=5n: the revised-simplex solver does nearly all the work",
       [](const RunOptions& o) { return RunAttack(kAttackLp, o); }},
      {"attack_lsq",
       "the same attack at n=256, m=4n with the least-squares decoder: "
       "byte-per-record passes and no solver, to tell recon gains from "
       "solver gains",
       [](const RunOptions& o) { return RunAttack(kAttackLsq, o); }},
      {"census",
       "exact and DP tables of 200 blocks built at set-up, then CSP "
       "reconstruction over a 2-thread pool and re-identification: no "
       "sockets, no LP",
       &RunCensus},
  };
  return kAll;
}

}  // namespace pso::bench
