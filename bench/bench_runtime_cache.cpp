/// \file bench_runtime_cache.cpp
/// \brief Runtime-layer benchmark: cold vs warm plan acquisition
///        through the PlanCache, and batched-execute throughput through
///        the Executor, at n = 2^10 .. 2^20.
///
/// Cold acquisition pays kAuto's compile (the host pick and its tables,
/// the plan the service serves); a warm hit is a fingerprint lookup.
/// The gap between the two columns *is* the amortization argument for
/// serving permutations from a cache.
///
/// Usage: bench_runtime_cache [--min 1K] [--max 1M] [--batch 16]
///                            [--family bit-reversal] [--json]
///
/// `--json` appends one JSON object per row (JSON Lines) after the
/// table — the repo's BENCH_*.json trajectory format.

#include "bench_common.hpp"

#include <future>
#include <iostream>
#include <vector>

#include "core/permuter.hpp"
#include "runtime/executor.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"

int main(int argc, char** argv) {
  using namespace hmm;
  util::Cli cli(argc, argv);
  if (!cli.expect_flags({"batch", "family", "json", "max", "min"}, std::cerr)) return 2;
  const std::uint64_t min_n = static_cast<std::uint64_t>(cli.get_int("min", 1 << 10));
  const std::uint64_t max_n = static_cast<std::uint64_t>(cli.get_int("max", 1 << 20));
  const std::uint64_t batch = static_cast<std::uint64_t>(cli.get_int("batch", 16));
  const std::string family = cli.get("family", "bit-reversal");
  const bool json = cli.get_bool("json");

  bench::print_header("Runtime plan cache + batched executor",
                      "the serving layer above Section VII");

  auto& pool = util::ThreadPool::global();

  util::Table table({"n", "cold ms", "warm us", "acq speedup", "batch", "serial ms",
                     "batched ms", "exec speedup", "hit rate %"});

  for (std::uint64_t n = std::max<std::uint64_t>(min_n, 1 << 10); n <= max_n; n <<= 1) {
    const perm::Permutation p = perm::by_name(family, n, 42);

    // --- Cold vs warm acquisition -----------------------------------
    // A fresh cache per repetition makes every first acquire a true
    // cold compile; warm time is the median over many repeat acquires
    // of the same key (it is far below timer resolution for one call).
    runtime::ServiceMetrics metrics;
    double cold_ms = 0;
    {
      runtime::PlanCache cache(runtime::PlanCache::Config{}, &metrics);
      util::Stopwatch sw;
      auto h = cache.acquire<float>(p);
      cold_ms = sw.millis();

      const int warm_iters = 1000;
      util::Stopwatch ws;
      for (int i = 0; i < warm_iters; ++i) {
        auto hh = cache.acquire<float>(p);
      }
      const double warm_us = ws.millis() * 1e3 / warm_iters;

      // --- Serial vs batched execution ------------------------------
      util::aligned_vector<float> a(n);
      for (std::uint64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i & 0xffff);
      std::vector<util::aligned_vector<float>> outs(batch);
      for (auto& o : outs) o.resize(n);
      util::aligned_vector<float> scratch(h->scratch_elements());

      const double serial_ms = bench::time_ms([&] {
        for (std::uint64_t r = 0; r < batch; ++r) {
          h->permute(std::span<const float>(a.data(), n),
                     std::span<float>(outs[r].data(), n),
                     std::span<float>(scratch.data(), scratch.size()));
        }
      });

      runtime::Executor executor(pool, &metrics);
      runtime::Status failure = runtime::Status::ok();
      const double batched_ms = bench::time_ms([&] {
        std::vector<std::future<runtime::Status>> futs;
        futs.reserve(batch);
        for (std::uint64_t r = 0; r < batch; ++r) {
          auto submitted = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                                      std::span<float>(outs[r].data(), n));
          if (!submitted.ok()) {
            failure = submitted.status();
            continue;
          }
          futs.push_back(std::move(submitted).value());
        }
        for (auto& f : futs) {
          const runtime::Status st = f.get();
          if (!st.is_ok()) failure = st;
        }
      });
      if (!failure.is_ok()) {
        std::cerr << "bench_runtime_cache: executor request failed: " << failure.to_string()
                  << "\n";
        return 1;
      }

      const runtime::MetricsSnapshot snap = metrics.snapshot();
      table.add_row({bench::size_label(n), util::format_ms(cold_ms),
                     util::format_double(warm_us, 2),
                     util::format_double(cold_ms * 1e3 / warm_us, 0),
                     util::format_count(batch), util::format_ms(serial_ms),
                     util::format_ms(batched_ms),
                     util::format_double(serial_ms / batched_ms, 2),
                     util::format_double(snap.hit_rate() * 100.0, 1)});
    }
  }

  table.print(std::cout);
  std::cout << "\n'cold' includes the full offline phase; 'warm' is a cache hit\n"
               "(fingerprint + LRU touch). 'exec speedup' compares one thread\n"
               "looping permute() against the executor overlapping the batch.\n";
  if (json) {
    std::cout << "\n";
    table.print_json_rows(std::cout, "\"bench\":\"runtime_cache\"");
  }
  return 0;
}
