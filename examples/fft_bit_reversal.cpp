/// \file fft_bit_reversal.cpp
/// \brief Domain example: the data-reordering stage of the FFT
///        (the paper's motivating application for bit-reversal).
///
/// An iterative radix-2 Cooley–Tukey FFT needs its input in
/// bit-reversed order. This example
///   1. runs a full FFT whose reorder stage uses the library
///      (scheduled plan), validated against a direct O(n^2) DFT,
///   2. times the reorder stage via the conventional scatter vs the
///      scheduled plan, and
///   3. shows that the plan is reused across every FFT invocation
///      (the offline setting: the permutation depends only on n).
///
/// Run: ./fft_bit_reversal [--n 1M] [--verify-n 1024]

#include <cmath>
#include <complex>
#include <iostream>
#include <numbers>

#include "core/conventional.hpp"
#include "core/plan.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace hmm;
using cplx = std::complex<double>;

/// Butterfly stages of the iterative FFT; expects bit-reversed input.
void fft_butterflies(std::vector<cplx>& x) {
  const std::uint64_t n = x.size();
  for (std::uint64_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
    const cplx wlen(std::cos(ang), std::sin(ang));
    for (std::uint64_t i = 0; i < n; i += len) {
      cplx w(1);
      for (std::uint64_t j = 0; j < len / 2; ++j) {
        const cplx u = x[i + j];
        const cplx v = x[i + j + len / 2] * w;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

/// Full FFT: scheduled-plan reorder + butterflies. The plan and the
/// scratch buffers are caller-owned so repeated FFTs reuse them.
void fft(const core::ScheduledPlan& plan, util::ThreadPool& pool, std::vector<cplx>& x,
         util::aligned_vector<cplx>& tmp, util::aligned_vector<cplx>& scratch) {
  // The bit-reversal permutation is an involution, so "send i to
  // rev(i)" equals "fetch from rev(i)"; either direction works.
  core::scheduled_cpu<cplx>(pool, plan, {x.data(), x.size()}, tmp, scratch);
  std::copy(tmp.begin(), tmp.end(), x.begin());
  fft_butterflies(x);
}

/// O(n^2) reference DFT.
std::vector<cplx> dft(const std::vector<cplx>& x) {
  const std::uint64_t n = x.size();
  std::vector<cplx> out(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    cplx acc(0);
    for (std::uint64_t t = 0; t < n; ++t) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * t) /
                         static_cast<double>(n);
      acc += x[t] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::uint64_t n = cli.get_int("n", 1 << 20);
  // Smallest size the GTX-680-shaped plan supports is 2*32^2 = 2048.
  const std::uint64_t verify_n = cli.get_int("verify-n", 2048);

  util::ThreadPool pool;
  const model::MachineParams machine = model::MachineParams::gtx680();

  // --- correctness: FFT (with library reorder) vs direct DFT ----------
  bool fft_ok = false;
  {
    const core::ScheduledPlan plan =
        core::ScheduledPlan::build(perm::bit_reversal(verify_n), machine);
    std::vector<cplx> x(verify_n);
    util::Xoshiro256 rng(2);
    for (auto& v : x) v = cplx(rng.uniform01() - 0.5, rng.uniform01() - 0.5);
    const std::vector<cplx> expected = dft(x);
    util::aligned_vector<cplx> tmp(verify_n), scratch(verify_n);
    fft(plan, pool, x, tmp, scratch);
    double max_err = 0;
    for (std::uint64_t i = 0; i < verify_n; ++i) {
      max_err = std::max(max_err, std::abs(x[i] - expected[i]));
    }
    fft_ok = max_err < 1e-6 * verify_n;
    std::cout << "FFT vs DFT (n=" << verify_n << "): max |error| = " << max_err
              << (fft_ok ? "  [OK]" : "  [FAIL]") << "\n";
  }

  // --- reorder-stage timing at scale ----------------------------------
  const perm::Permutation rev = perm::bit_reversal(n);
  util::Stopwatch sw;
  const core::ScheduledPlan plan = core::ScheduledPlan::build(rev, machine);
  std::cout << "reorder plan for n=" << n << " built in " << util::format_ms(sw.millis())
            << " ms (amortized over every FFT of this size)\n";

  util::aligned_vector<cplx> a(n), b(n), scratch(n);
  for (std::uint64_t i = 0; i < n; ++i) a[i] = cplx(static_cast<double>(i), 0);

  sw.reset();
  core::scheduled_cpu<cplx>(pool, plan, a, b, scratch);
  const double t_sched = sw.millis();
  util::aligned_vector<cplx> b2(n);
  sw.reset();
  core::d_designated_cpu<cplx>(pool, a, b2, rev);
  const double t_conv = sw.millis();

  const bool equal = b == b2;
  std::cout << "bit-reversal reorder of " << n << " complex<double>: scheduled "
            << util::format_ms(t_sched) << " ms vs conventional " << util::format_ms(t_conv)
            << " ms; equal: " << (equal ? "yes" : "NO") << "\n";
  return fft_ok && equal ? 0 : 1;
}
