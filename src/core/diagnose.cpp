#include "core/diagnose.hpp"

#include <ostream>

#include "core/layout.hpp"
#include "core/permuter.hpp"
#include "model/cost.hpp"
#include "perm/distribution.hpp"
#include "util/table.hpp"

namespace hmm::core {

Diagnosis diagnose(const perm::Permutation& p, const model::MachineParams& machine) {
  machine.validate();
  Diagnosis d;
  d.n = p.size();
  d.machine = machine;

  d.dist_forward = perm::distribution(p, machine.width);
  d.dist_inverse = perm::inverse_distribution(p, machine.width);
  d.dist_forward_ratio = static_cast<double>(d.dist_forward) / static_cast<double>(d.n);
  d.dist_inverse_ratio = static_cast<double>(d.dist_inverse) / static_cast<double>(d.n);

  d.cycles = analyze_cycles(p);
  d.is_identity = (d.cycles.fixed_points == d.n);
  d.is_involution = (d.cycles.longest <= 2);

  d.plan_supported = OfflinePermuter<float>::plan_supported(d.n, machine);
  if (d.plan_supported) {
    const MatrixShape shape = shape_for(d.n, machine.width);
    const std::uint64_t longest_row = std::max(shape.rows, shape.cols);
    d.shared_bytes_needed_f32 = row_pass_shared_bytes(longest_row, sizeof(float));
    d.shared_bytes_needed_f64 = row_pass_shared_bytes(longest_row, sizeof(double));
    d.fits_shared_f32 = d.shared_bytes_needed_f32 <= machine.shared_bytes;
    d.fits_shared_f64 = d.shared_bytes_needed_f64 <= machine.shared_bytes;
    d.time_scheduled = model::scheduled_time(d.n, machine);
  }

  d.time_d_designated = model::d_designated_time(d.n, d.dist_forward, machine);
  d.time_s_designated = model::s_designated_time(d.n, d.dist_inverse, machine);
  d.lower_bound = model::lower_bound(d.n, machine);

  std::uint64_t best = d.time_d_designated;
  d.recommendation = "d-designated";
  if (d.time_s_designated < best) {
    best = d.time_s_designated;
    d.recommendation = "s-designated";
  }
  if (d.plan_supported && d.fits_shared_f32 && d.time_scheduled < best) {
    d.recommendation = "scheduled";
  }

  d.host_recommendation = std::string(to_string(Strategy::kSDesignated));
  if (d.plan_supported) {
    const HostPick pick =
        host_pick(p.inverse(), sizeof(float), host_params(d.n * sizeof(float)));
    d.host_recommendation = std::string(to_string(pick.strategy));
    d.host_misses = pick.misses;
    d.host_conventional_ms = pick.conventional_ms;
    d.host_scheduled_ms = pick.scheduled_ms;
  }
  return d;
}

void print_diagnosis(std::ostream& os, const Diagnosis& d) {
  os << "permutation of n = " << d.n << " on HMM{w=" << d.machine.width
     << ", l=" << d.machine.latency << ", d=" << d.machine.dmms << "}\n";
  os << "  distribution d_w(P)   = " << d.dist_forward << "  ("
     << util::format_double(d.dist_forward_ratio, 5) << " of n)\n"
     << "  distribution d_w(P^-1)= " << d.dist_inverse << "  ("
     << util::format_double(d.dist_inverse_ratio, 5) << " of n)\n";
  os << "  cycles: " << d.cycles.cycles << " (fixed " << d.cycles.fixed_points
     << ", longest " << d.cycles.longest << ", moved " << d.cycles.moved << ")";
  if (d.is_identity) os << "  [identity]";
  if (!d.is_identity && d.is_involution) os << "  [involution]";
  os << "\n";
  os << "  scheduled plan: "
     << (d.plan_supported ? "supported" : "unsupported (size/shape)");
  if (d.plan_supported) {
    os << ", shared need " << util::format_bytes(d.shared_bytes_needed_f32) << " (f32) / "
       << util::format_bytes(d.shared_bytes_needed_f64) << " (f64); fits: "
       << (d.fits_shared_f32 ? "f32" : "") << (d.fits_shared_f64 ? "+f64" : "");
  }
  os << "\n";
  os << "  predicted HMM time units:\n"
     << "    d-designated: " << d.time_d_designated << "\n"
     << "    s-designated: " << d.time_s_designated << "\n";
  if (d.plan_supported) {
    os << "    scheduled   : " << d.time_scheduled << "\n";
  }
  os << "    lower bound : " << d.lower_bound << "\n"
     << "  recommendation: " << d.recommendation << "\n";
  os << "  host pick (kAuto, f32): " << d.host_recommendation;
  if (d.host_scheduled_ms > 0) {
    os << "  predicted host ms: s-designated " << util::format_ms(d.host_conventional_ms)
       << ", scheduled " << util::format_ms(d.host_scheduled_ms) << "  (L2 misses "
       << d.host_misses.lines << ", page-aliased " << d.host_misses.aliased << ")";
  } else if (d.plan_supported) {
    os << "  (source fits one core's L2: no simulation)";
  }
  os << "\n";
}

}  // namespace hmm::core
