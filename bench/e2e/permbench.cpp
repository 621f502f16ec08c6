/// \file permbench.cpp
/// \brief permbench — the repository's end-to-end benchmark.
///
///   permbench [--workload all|inproc-1m|wire-8k|wire-256k|fleet-1m]
///             [--seed 1] [--seconds 20] [--trace 0|1] [--out DIR]
///
/// One run of a workload: set the system up on fresh instances at least
/// three times (median = `setup_s`), warm up for a second, then measure a
/// closed loop over two thirds of `--seconds` in ten equal windows and an
/// open loop at the workload's fixed rate over the last third. Responses
/// are checked against the naive oracle b[p[i]] = a[i] on each plan's
/// first response and on one in 64 after that, outside the timed span.
///
/// `--trace 1` sets up once, runs the same load with spans recorded in
/// every other closed-loop window (the untraced windows give the tracing
/// overhead) and through the open loop, then probes each layer's public
/// functions from outside and prints the per-layer metrics instead of
/// the end-to-end ones. Spans are written as Chrome trace-event JSON
/// under `--out` (default: `out/` beside the binary).
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// A wrong output exits 1; a set-up failure exits 1 without that line.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "cpu/dispatch.hpp"
#include "permbench.hpp"
#include "util/buffer_pool.hpp"

namespace permbench {

namespace runtime = hmm::runtime;

// ------------------------------------------------------------ statistics

Percentile percentile(std::vector<double>& values, double q) {
  Percentile p;
  p.samples = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::uint64_t>(
      std::clamp(std::ceil(q * n), 1.0, n));  // 1-based nearest rank
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

double median(std::vector<double> values) { return percentile(values, 0.5).value; }

// ---------------------------------------------------------------- tracing

namespace {

thread_local std::uint32_t t_current_span = 0;

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
  }
  return *buffer;
}

void Tracer::record_with_id(std::uint32_t id, const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::uint32_t parent, std::uint64_t request) {
  if (total_.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  local().spans.push_back(Span{name, start_ns, end_ns, id, parent, request});
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard lock(buffers_mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->spans.size();
  return total;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(buffers_mutex_);
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) origin = std::min(origin, s.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      std::snprintf(line, sizeof(line),
                    "%s\n{\"name\":\"%s\",\"cat\":\"permbench\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                    "\"request\":%llu}}",
                    first ? "" : ",", s.name, buffer->thread,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                    static_cast<unsigned long long>(s.request));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Tracer::clear() {
  std::lock_guard lock(buffers_mutex_);
  for (const auto& buffer : buffers_) buffer->spans.clear();
  total_.store(0);
  dropped_.store(0);
}

SpanScope::SpanScope(const char* name, std::uint64_t request) : name_(name), request_(request) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  id_ = tracer.next_id();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = now_ns();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;
  Tracer::global().record_with_id(id_, name_, start_ns_, now_ns(), parent_, request_);
  t_current_span = parent_;
}

namespace {

// ------------------------------------------------------------------ load

constexpr int kWindows = 10;
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupBudgetSeconds = 4.0;
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint64_t kCheckEvery = 64;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir;
};

/// One successful request: when it completed (relative to the loop's
/// start) and how long it took.
struct Sample {
  std::int64_t done_ns;
  std::int64_t latency_ns;
};

struct LoadResult {
  std::vector<Sample> samples;
  double seconds = 0;
  std::int64_t late_max_ns = 0;
  std::vector<double> plan_ready_ms;  ///< fresh plans registered beside the load
};

struct ClientState {
  ClientState(std::uint64_t seed, unsigned client, const WorkloadSpec& spec, std::size_t plans)
      : rng(seed ^ (0x9e3779b97f4a7c15ull * (client + 1))),
        picker(plans, spec.zipf_s),
        in(spec.n),
        out(spec.n) {
    for (std::uint32_t& v : in) v = static_cast<std::uint32_t>(rng.next());
  }
  hmm::util::Xoshiro256 rng;
  PlanPicker picker;
  std::vector<std::uint32_t> in;
  std::vector<std::uint32_t> out;
};

std::atomic<std::uint64_t> g_request_ids{1};

/// Make each request's input distinct, so a stale or unwritten response
/// fails the oracle check.
void stamp(std::vector<std::uint32_t>& in, std::uint64_t request) {
  in.front() = static_cast<std::uint32_t>(request);
  in.back() = ~static_cast<std::uint32_t>(request);
}

/// One set-up: a started system with every initial plan registered one
/// at a time, each answered once and checked.
struct Setup {
  std::unique_ptr<System> system;
  std::vector<std::uint64_t> handles;
  double seconds = 0;
  std::vector<double> plan_ready_ms;
};

/// Register `p` through client 0 and permute with it once, checked. The
/// time from registration to the first response joins `ready_ms`.
runtime::StatusOr<std::uint64_t> add_and_answer(System& system, const perm::Permutation& p,
                                                ClientState& cs, std::vector<double>& ready_ms) {
  const std::int64_t t0 = now_ns();
  runtime::StatusOr<std::uint64_t> handle = system.add_plan(0, p);
  outcomes().record(handle.ok());
  if (!handle.ok()) return handle.status();
  const std::uint64_t request = g_request_ids.fetch_add(1, std::memory_order_relaxed);
  stamp(cs.in, request);
  const runtime::Status s = system.permute(0, handle.value(), cs.in, cs.out, request);
  outcomes().record(s.is_ok());
  if (!s.is_ok()) return s;
  ready_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  outcomes().check(matches_oracle(p, cs.in, cs.out));
  return handle;
}

runtime::StatusOr<Setup> set_up(const WorkloadSpec& spec, unsigned clients,
                                const std::vector<perm::Permutation>& plans, ClientState& cs) {
  Setup setup;
  const std::int64_t t0 = now_ns();
  runtime::StatusOr<std::unique_ptr<System>> system = start_system(spec, clients);
  if (!system.ok()) return system.status();
  setup.system = std::move(system).value();
  for (const perm::Permutation& p : plans) {
    runtime::StatusOr<std::uint64_t> handle =
        add_and_answer(*setup.system, p, cs, setup.plan_ready_ms);
    if (!handle.ok()) return handle.status();
    setup.handles.push_back(handle.value());
  }
  setup.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return setup;
}

class LoadGenerator {
 public:
  LoadGenerator(const WorkloadSpec& spec, unsigned clients, std::uint64_t seed,
         const std::vector<perm::Permutation>& plans, Setup& setup,
         std::vector<ClientState>& states)
      : spec_(spec),
        clients_(clients),
        seed_(seed),
        plans_(plans),
        setup_(setup),
        states_(states),
        responses_(plans.size()) {
    // Set-up already checked each plan's first response.
    for (auto& r : responses_) r.store(1);
  }

  /// Closed loop: each client sends its next request when the previous
  /// one completes. With `alternate_tracing`, spans are recorded in the
  /// odd windows only.
  LoadResult closed(double seconds, bool alternate_tracing, bool fresh_plans) {
    LoadResult result;
    result.seconds = seconds;
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::vector<Sample>> per_client(clients_);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        ClientState& cs = states_[c];
        std::int64_t next_fresh =
            t0 + static_cast<std::int64_t>(spec_.fresh_plan_every_s * 1e9);
        while (now_ns() < end) {
          if (c == 0 && fresh_plans && spec_.fresh_plan_every_s > 0 && now_ns() >= next_fresh) {
            // Writes beside reads: a fresh plan on client 0's connection.
            (void)add_and_answer(*setup_.system, make_fresh_plan(spec_, seed_, fresh_count_++),
                                 cs, result.plan_ready_ms);
            next_fresh += static_cast<std::int64_t>(spec_.fresh_plan_every_s * 1e9);
            continue;
          }
          std::int64_t start = 0, done = 0;
          if (one_request(c, cs, start, done)) {
            per_client[c].push_back(Sample{done - t0, done - start});
          }
        }
      });
    }
    if (alternate_tracing) {
      for (int w = 0; w < kWindows; ++w) {
        Tracer::global().set_enabled(w % 2 == 1);
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(t0 + (end - t0) * (w + 1) / kWindows)));
      }
      Tracer::global().set_enabled(false);
    }
    for (std::thread& t : threads) t.join();
    for (auto& v : per_client) result.samples.insert(result.samples.end(), v.begin(), v.end());
    return result;
  }

  /// Open loop at a fixed rate: request k is due at t0 + k / rate and is
  /// timed from its due time, so a stall also charges the requests
  /// queued behind it. A client takes the next due request as soon as
  /// it is free.
  LoadResult open(double seconds, double rate) {
    LoadResult result;
    result.seconds = seconds;
    const std::int64_t t0 = now_ns() + 1'000'000;
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::atomic<std::uint64_t> ticket{0};
    std::vector<std::vector<Sample>> per_client(clients_);
    std::vector<std::int64_t> late_max(clients_, 0);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        ClientState& cs = states_[c];
        for (;;) {
          const std::uint64_t k = ticket.fetch_add(1);
          const std::int64_t due = t0 + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / rate);
          if (due >= end) break;
          std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
          std::int64_t start = 0, done = 0;
          const bool ok = one_request(c, cs, start, done);
          late_max[c] = std::max(late_max[c], start - due);
          if (ok) per_client[c].push_back(Sample{done - t0, done - due});
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& v : per_client) result.samples.insert(result.samples.end(), v.begin(), v.end());
    result.late_max_ns = *std::max_element(late_max.begin(), late_max.end());
    return result;
  }

 private:
  bool one_request(unsigned c, ClientState& cs, std::int64_t& start, std::int64_t& done) {
    const std::size_t k = cs.picker.next(cs.rng);
    const std::uint64_t request = g_request_ids.fetch_add(1, std::memory_order_relaxed);
    stamp(cs.in, request);
    start = now_ns();
    const runtime::Status s = setup_.system->permute(c, setup_.handles[k], cs.in, cs.out, request);
    done = now_ns();
    outcomes().record(s.is_ok());
    if (!s.is_ok()) {
      std::cerr << "permbench: request failed: " << s.to_string() << "\n";
      return false;
    }
    if (responses_[k].fetch_add(1, std::memory_order_relaxed) % kCheckEvery == 0) {
      outcomes().check(matches_oracle(plans_[k], cs.in, cs.out));
    }
    return true;
  }

  const WorkloadSpec& spec_;
  unsigned clients_;
  std::uint64_t seed_;
  const std::vector<perm::Permutation>& plans_;
  Setup& setup_;
  std::vector<ClientState>& states_;
  std::vector<std::atomic<std::uint64_t>> responses_;
  std::uint64_t fresh_count_ = 0;
};

// ------------------------------------------------------------- reporting

std::vector<double> latencies_ms(const std::vector<Sample>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(static_cast<double>(s.latency_ns) / 1e6);
  return v;
}

/// Per-window request rates, p50s and tails of a closed loop.
struct Windows {
  std::vector<double> rps;
  std::vector<double> p50_ms;
  std::vector<double> tail_ms;
  std::uint64_t min_samples = 0;
  std::uint64_t min_beyond_tail = 0;
};

/// A request counts toward each window in proportion to the share of its
/// [start, done] interval that falls inside it, so a window's rate is not
/// quantized to whole requests (fleet-1m completes ~12 per window). Its
/// latency joins the window it completed in.
Windows split_windows(const LoadResult& load, double tail_q) {
  Windows w;
  const double win_ns = load.seconds * 1e9 / kWindows;
  std::vector<double> work(kWindows, 0.0);
  std::vector<std::vector<double>> lat(kWindows);
  for (const Sample& s : load.samples) {
    const double done = static_cast<double>(s.done_ns);
    const double start = done - static_cast<double>(s.latency_ns);
    const auto idx = static_cast<std::size_t>(done / win_ns);
    if (idx < lat.size()) lat[idx].push_back(static_cast<double>(s.latency_ns) / 1e6);
    for (int k = std::max(0, static_cast<int>(start / win_ns)); k < kWindows; ++k) {
      const double lo = std::max(start, k * win_ns), hi = std::min(done, (k + 1) * win_ns);
      if (hi <= lo) break;
      work[k] += (hi - lo) / static_cast<double>(s.latency_ns);
    }
  }
  w.min_samples = UINT64_MAX;
  w.min_beyond_tail = UINT64_MAX;
  for (int k = 0; k < kWindows; ++k) {
    w.rps.push_back(work[k] / (win_ns / 1e9));
    w.min_samples = std::min<std::uint64_t>(w.min_samples, lat[k].size());
    w.p50_ms.push_back(percentile(lat[k], 0.5).value);
    const Percentile tail = percentile(lat[k], tail_q);
    w.tail_ms.push_back(tail.value);
    w.min_beyond_tail = std::min(w.min_beyond_tail, tail.beyond);
  }
  return w;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The commit the sources came from, read from the checkout's own .git
/// (without running git, which would search parent directories).
std::string source_revision() {
  const std::string git = std::string(PERMBENCH_REPO_ROOT) + "/.git/";
  const std::string head = read_first_line(git + "HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "none" : head;
  const std::string ref = head.substr(5);
  const std::string loose = read_first_line(git + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(git + "packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "none";
}

/// `out/` beside the binary, relative to the working directory when it
/// lies below it.
std::string default_out_dir() {
  std::error_code ec;
  const std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "out";
  const std::filesystem::path out = exe.parent_path() / "out";
  const std::filesystem::path relative = std::filesystem::proximate(out, ec);
  return ec || relative.empty() ? out.string() : relative.string();
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::cout << "metric " << m.name << " " << fmt(m.value) << " " << m.unit;
  if (!note.empty()) std::cout << "  " << note;
  std::cout << "\n";
}

std::string pct_note(const Percentile& p) {
  return "samples=" + std::to_string(p.samples) + " beyond=" + std::to_string(p.beyond);
}

// ------------------------------------------------------------------- run

/// Run one workload; returns false on a wrong output or a failed set-up.
bool run_workload(const WorkloadSpec& spec, const Options& opt) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients = std::min(spec.clients, nproc);
  const std::vector<perm::Permutation> plans = make_plans(spec, opt.seed);
  outcomes().reset();
  Tracer::global().clear();
  std::vector<ClientState> states;
  states.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) states.emplace_back(opt.seed, c, spec, plans.size());

  const double copy_gbps = memcpy_gbps(spec.n * sizeof(std::uint32_t));
  std::cout << "permbench: workload=" << spec.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << "\n";
  std::cout << "stamp {\"workload\":\"" << spec.name << "\",\"seed\":" << opt.seed
            << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
            << ",\"cpu\":\"" << json_escape(cpu_model()) << "\",\"nproc\":" << nproc
            << ",\"l3\":\""
            << json_escape(read_first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"))
            << "\",\"kernel_variant\":\"" << hmm::cpu::to_string(hmm::cpu::kernel_variant())
            << "\",\"build_type\":\"" << PERMBENCH_BUILD_TYPE << "\",\"rev\":\""
            << json_escape(source_revision()) << "\",\"client_threads\":" << clients
            << ",\"connections\":" << (spec.kind == SystemKind::kInProc ? 0 : clients)
            << ",\"n\":" << spec.n << ",\"array_bytes\":" << spec.n * sizeof(std::uint32_t)
            << ",\"plans\":" << plans.size() << ",\"memcpy_gbps\":" << fmt(copy_gbps)
            << ",\"bytes_moved\":\"computed\"}\n";

  // Set-up, timed on fresh systems at least kMinSetupReps times and
  // until kSetupBudgetSeconds are spent (cheap set-ups repeat more, which
  // steadies their median); the last system serves the load. A traced
  // run sets up once.
  std::vector<double> setup_s;
  std::vector<double> plan_ready_ms;
  Setup setup;
  double setup_total = 0;
  for (int rep = 0; opt.trace ? rep < 1
                              : rep < kMinSetupReps ||
                                    (setup_total < kSetupBudgetSeconds && rep < kMaxSetupReps);
       ++rep) {
    setup = Setup{};  // tear the previous system down first
    runtime::StatusOr<Setup> s = set_up(spec, clients, plans, states[0]);
    if (!s.ok()) {
      std::cerr << "permbench: " << spec.name << " set-up failed: " << s.status().to_string()
                << "\n";
      return false;
    }
    setup = std::move(s).value();
    setup_s.push_back(setup.seconds);
    setup_total += setup.seconds;
    plan_ready_ms.insert(plan_ready_ms.end(), setup.plan_ready_ms.begin(),
                         setup.plan_ready_ms.end());
  }

  LoadGenerator load(spec, clients, opt.seed, plans, setup, states);
  (void)load.closed(kWarmupSeconds, false, false);
  const std::uint64_t pool_misses0 = hmm::util::BufferPool::global().stats().misses;
  const LoadResult closed = load.closed(opt.seconds * 2 / 3, opt.trace, true);
  const std::uint64_t pool_misses = hmm::util::BufferPool::global().stats().misses - pool_misses0;
  if (opt.trace) Tracer::global().set_enabled(true);
  const LoadResult open = load.open(opt.seconds / 3, spec.open_loop_rps);
  plan_ready_ms.insert(plan_ready_ms.end(), closed.plan_ready_ms.begin(),
                       closed.plan_ready_ms.end());

  const Windows windows = split_windows(closed, spec.tail_q);
  std::vector<double> closed_ms = latencies_ms(closed.samples);
  std::vector<double> open_ms = latencies_ms(open.samples);
  const Percentile tail = percentile(closed_ms, spec.tail_q);
  const Percentile closed_p50 = percentile(closed_ms, 0.5);
  const Percentile ol_p50 = percentile(open_ms, 0.5);
  const Percentile ol_p99 = percentile(open_ms, 0.99);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"throughput_rps", median(windows.rps), "1/s"},
        {"latency_p50_ms", median(windows.p50_ms), "ms"},
        {"latency_tail_ms", spec.tail_per_window ? median(windows.tail_ms) : tail.value, "ms"},
        {"ol_latency_p50_ms", ol_p50.value, "ms"},
        {"setup_s", median(setup_s), "s"},
    };
    const std::string win_note = "windows=" + std::to_string(kWindows) +
                                 " min_window_samples=" + std::to_string(windows.min_samples);
    std::string rates;
    for (double r : windows.rps) {
      if (!rates.empty()) rates += ',';
      rates += fmt(r);
    }
    print_metric(metrics[0], win_note + " window_rps=" + rates);
    print_metric(metrics[1], win_note + " " + pct_note(closed_p50));
    print_metric(metrics[2],
                 "q=" + fmt(spec.tail_q) +
                     (spec.tail_per_window
                          ? " per_window min_window_beyond=" + std::to_string(windows.min_beyond_tail)
                          : " whole_interval " + pct_note(tail)));
    print_metric(metrics[3], "rate=" + fmt(spec.open_loop_rps) + "/s " + pct_note(ol_p50) +
                                 " late_ms_max=" + fmt(static_cast<double>(open.late_max_ns) / 1e6));
    print_metric(metrics[4], "reps=" + std::to_string(setup_s.size()));
  } else {
    // Even windows ran untraced, odd windows traced.
    std::vector<double> traced_rps, untraced_rps, untraced_p50;
    for (int w = 0; w < kWindows; ++w) {
      (w % 2 == 1 ? traced_rps : untraced_rps).push_back(windows.rps[w]);
      if (w % 2 == 0) untraced_p50.push_back(windows.p50_ms[w]);
    }
    const double completed = static_cast<double>(std::max<std::size_t>(closed.samples.size(), 1));
    metrics = {
        {"trace.overhead_frac", 1.0 - median(traced_rps) / median(untraced_rps), "fraction"},
        {"load.ol_p99_ms", ol_p99.value, "ms"},
        {"load.late_ms_max", static_cast<double>(open.late_max_ns) / 1e6, "ms"},
        {"load.samples", static_cast<double>(closed.samples.size() + open.samples.size()),
         "count"},
        {"plan_ready_ms", median(plan_ready_ms), "ms"},
        {"util.pool_miss_per_req", static_cast<double>(pool_misses) / completed, "count"},
    };
    setup = Setup{};  // the probes start their own systems
    run_layer_probes(ProbeInput{&spec, clients, opt.seed, &plans, median(untraced_p50)},
                     metrics);
    Tracer::global().set_enabled(false);
    for (const Metric& m : metrics) {
      std::string note;
      if (m.name == "load.ol_p99_ms") note = pct_note(ol_p99);
      if (m.name == "plan_ready_ms") note = "plans=" + std::to_string(plan_ready_ms.size());
      print_metric(m, note);
    }
    const std::string trace_path = opt.out_dir + "/" + spec.name + "-seed" +
                                   std::to_string(opt.seed) + ".trace.json";
    if (Tracer::global().write_chrome_json(trace_path)) {
      std::cout << "trace " << trace_path << " spans=" << Tracer::global().recorded()
                << " dropped=" << Tracer::global().dropped() << "\n";
    } else {
      std::cerr << "permbench: could not write " << trace_path << "\n";
    }
  }
  setup = Setup{};

  const Outcomes& o = outcomes();
  const bool correct = o.mismatches.load() == 0;
  std::cout << "checks full_oracle=" << o.checked.load() << " mismatches=" << o.mismatches.load()
            << "\n";
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << o.attempted.load() << ", \"failed\": " << o.failed.load()
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a run that produced one (an empty
    // window after a stall) reports 0, which no gated metric reads.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    line << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << value
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return correct;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--workload all|NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n";
  return 2;
}

}  // namespace
}  // namespace permbench

int main(int argc, char** argv) {
  using namespace permbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--out") {
        opt.out_dir = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (!(opt.seconds >= 3 && opt.seconds <= 120)) {
    std::cerr << "permbench: --seconds must be in [3, 120]\n";
    return 2;
  }
  std::vector<const WorkloadSpec*> selected;
  if (opt.workload == "all") {
    for (const WorkloadSpec& spec : workload_table()) selected.push_back(&spec);
  } else if (const WorkloadSpec* spec = find_workload(opt.workload)) {
    selected.push_back(spec);
  } else {
    std::cerr << "permbench: unknown workload '" << opt.workload << "'\n";
    return usage(argv[0]);
  }
  if (opt.out_dir.empty()) opt.out_dir = default_out_dir();
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  hmm::net::ignore_sigpipe();

  bool ok = true;
  for (const WorkloadSpec* spec : selected) ok = run_workload(*spec, opt) && ok;
  return ok ? 0 : 1;
}
