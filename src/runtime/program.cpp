#include "runtime/program.hpp"

#include <new>
#include <string>

#include "perm/generators.hpp"
#include "util/bits.hpp"
#include "util/hash.hpp"

namespace hmm::runtime {

using perm::Permutation;

std::string_view to_string(ProgramOpCode op) noexcept {
  switch (op) {
    case ProgramOpCode::kPermute: return "permute";
    case ProgramOpCode::kInverse: return "inverse";
    case ProgramOpCode::kTranspose: return "transpose";
    case ProgramOpCode::kReverse: return "reverse";
    case ProgramOpCode::kShuffle: return "shuffle";
    case ProgramOpCode::kUnshuffle: return "unshuffle";
    case ProgramOpCode::kBitReversal: return "bit-reversal";
    case ProgramOpCode::kRotate: return "rotate";
  }
  return "unknown";
}

bool is_known_opcode(std::uint32_t op) noexcept {
  return op >= static_cast<std::uint32_t>(ProgramOpCode::kPermute) &&
         op <= static_cast<std::uint32_t>(ProgramOpCode::kRotate);
}

Fingerprint program_fingerprint(std::span<const ProgramOp> ops, std::uint64_t n) noexcept {
  // Version salt: a change to the identity schema must never alias
  // fingerprints minted under the old one.
  util::Hash64 h(0x50524f4752414d32ull);  // "PROGRAM2"
  h.update_u64(n);
  for (const ProgramOp& op : ops) {
    h.update_u32(static_cast<std::uint32_t>(op.op));
    h.update_u64(op.arg);
  }
  return Fingerprint{h.digest()};
}

namespace {

Status invalid(std::size_t index, ProgramOpCode op, const std::string& why) {
  return Status(StatusCode::kInvalidArgument,
                "program op " + std::to_string(index) + " (" + std::string(to_string(op)) +
                    "): " + why);
}

bool is_perfect_square(std::uint64_t n, std::uint64_t& root) {
  if (n == 0) return false;
  std::uint64_t lo = 1, hi = 1ull << 32;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (mid * mid < n) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  root = lo;
  return lo * lo == n;
}

/// Resolve one op to its n-element permutation, or a typed error. All
/// generator preconditions are checked *here* — the generators
/// themselves guard with HMM_CHECK (abort), which is an invariant
/// backstop this validator must keep hostile input away from.
StatusOr<std::shared_ptr<const Permutation>> resolve_op(const ProgramOp& op, std::size_t index,
                                                        std::uint64_t n,
                                                        const PlanResolver& resolver) {
  switch (op.op) {
    case ProgramOpCode::kPermute:
    case ProgramOpCode::kInverse: {
      if (!resolver) {
        return invalid(index, op.op, "no plan resolver available");
      }
      std::shared_ptr<const Permutation> plan = resolver(op.arg);
      if (plan == nullptr) {
        return invalid(index, op.op, "unregistered plan fingerprint (SUBMIT_PLAN it first)");
      }
      // The mismatched-n gate: reject before any compose() can see two
      // differently-sized permutations (compose aborts on that).
      if (plan->size() != n) {
        return invalid(index, op.op,
                       "plan size " + std::to_string(plan->size()) +
                           " does not match the program element count " + std::to_string(n));
      }
      if (op.op == ProgramOpCode::kPermute) return plan;
      return std::make_shared<const Permutation>(plan->inverse());
    }
    case ProgramOpCode::kTranspose: {
      if (op.arg != 0) return invalid(index, op.op, "argument must be 0");
      std::uint64_t root = 0;
      if (!is_perfect_square(n, root)) {
        return invalid(index, op.op, "element count must be a perfect square");
      }
      return std::make_shared<const Permutation>(perm::transpose(root, root));
    }
    case ProgramOpCode::kReverse: {
      if (op.arg != 0) return invalid(index, op.op, "argument must be 0");
      if (!util::is_pow2(n)) return invalid(index, op.op, "element count must be a power of two");
      return std::make_shared<const Permutation>(perm::bit_complement(n));
    }
    case ProgramOpCode::kShuffle: {
      if (op.arg != 0) return invalid(index, op.op, "argument must be 0");
      if (!util::is_pow2(n)) return invalid(index, op.op, "element count must be a power of two");
      return std::make_shared<const Permutation>(perm::shuffle(n));
    }
    case ProgramOpCode::kUnshuffle: {
      if (op.arg != 0) return invalid(index, op.op, "argument must be 0");
      if (!util::is_pow2(n)) return invalid(index, op.op, "element count must be a power of two");
      return std::make_shared<const Permutation>(perm::unshuffle(n));
    }
    case ProgramOpCode::kBitReversal: {
      if (op.arg != 0) return invalid(index, op.op, "argument must be 0");
      if (!util::is_pow2(n)) return invalid(index, op.op, "element count must be a power of two");
      return std::make_shared<const Permutation>(perm::bit_reversal(n));
    }
    case ProgramOpCode::kRotate:
      return std::make_shared<const Permutation>(perm::rotation(n, op.arg % n));
  }
  return invalid(index, op.op, "unknown opcode");
}

}  // namespace

StatusOr<ResolvedProgram> resolve_program(const Program& program, std::uint64_t n,
                                          const PlanResolver& resolver) {
  if (n == 0) return Status(StatusCode::kInvalidArgument, "program: empty element array");
  if (program.ops.empty()) {
    return Status(StatusCode::kInvalidArgument, "program: empty op chain");
  }
  if (program.ops.size() > kMaxProgramOps) {
    return Status(StatusCode::kInvalidArgument,
                  "program: op count " + std::to_string(program.ops.size()) +
                      " exceeds the cap of " + std::to_string(kMaxProgramOps));
  }
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    if (!is_known_opcode(static_cast<std::uint32_t>(program.ops[i].op))) {
      return Status(StatusCode::kInvalidArgument,
                    "program op " + std::to_string(i) + ": unknown opcode " +
                        std::to_string(static_cast<std::uint32_t>(program.ops[i].op)));
    }
  }

  ResolvedProgram resolved;
  resolved.fingerprint = program_fingerprint(program.ops, n);
  resolved.stages.reserve(program.ops.size());
  try {
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
      StatusOr<std::shared_ptr<const Permutation>> stage =
          resolve_op(program.ops[i], i, n, resolver);
      if (!stage.ok()) return stage.status();
      resolved.stages.push_back(std::move(stage).value());
    }
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kResourceExhausted, "program: allocation failed while resolving");
  }
  return resolved;
}

StatusOr<perm::Permutation> fuse_program(const ResolvedProgram& resolved) {
  if (resolved.stages.empty()) {
    return Status(StatusCode::kInvalidArgument, "program: nothing to fuse");
  }
  const std::uint64_t n = resolved.stages.front()->size();
  for (const auto& stage : resolved.stages) {
    if (stage == nullptr || stage->size() != n) {
      // Last typed gate before compose(): its size check aborts.
      return Status(StatusCode::kInvalidArgument, "program: stage sizes disagree");
    }
  }
  try {
    // Left fold: after stage 1 an element sits at P1(i); stage k moves
    // it on to Pk(...). compose is (this ∘ other)(i) = this(other(i)),
    // so the accumulated composite is always `next ∘ acc`.
    Permutation composite = *resolved.stages.front();
    for (std::size_t i = 1; i < resolved.stages.size(); ++i) {
      composite = resolved.stages[i]->compose(composite);
    }
    return composite;
  } catch (const std::bad_alloc&) {
    return Status(StatusCode::kResourceExhausted, "program: allocation failed while fusing");
  }
}

}  // namespace hmm::runtime
