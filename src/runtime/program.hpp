#pragma once
/// \file program.hpp
/// \brief The PROGRAM subsystem: a validated op-chain IR over
///        registered permutations and a fusion compiler.
///
/// The paper's optimality result is per-permutation: any offline
/// permutation costs three passes on the HMM. A *chain* of k
/// permutations served naively therefore costs 3k passes plus k wire
/// round trips — yet the composite P_k ∘ … ∘ P_1 is itself one
/// permutation worth exactly three passes. This subsystem closes that
/// gap: a client ships the chain once (EXECUTE_PROGRAM), the service
/// folds it into one composite `perm::Permutation` via the existing
/// `compose()`/`inverse()` algebra, and the PlanCache compiles a single
/// scheduled plan for the composite. Affine index-permutation pipelines
/// (FFT stages, shuffle networks, tensor relayouts) are exactly this
/// shape.
///
/// The IR is deliberately tiny: an op is an opcode plus one u64
/// argument. Two opcodes reference plans the client registered via
/// SUBMIT_PLAN (by fingerprint — the wire plan id *is* the registry
/// key); the rest are parametric generators from perm/generators.hpp,
/// so common pipeline stages need no registration round trip at all.
///
/// Validation is the hostile-input boundary. Every structural error —
/// unknown opcode, unregistered fingerprint, generator precondition
/// (power-of-two, perfect square), and above all a *size-mismatched
/// chain* — is rejected with a typed `kInvalidArgument` **before** any
/// `Permutation::compose()` runs, because compose's own size check is
/// an HMM_CHECK process abort (an invariant backstop, not an input
/// validator). A hostile program must never reach it.
///
/// Execution semantics (fixed, and what the fused-against-sequential
/// tests pin down): ops apply in list order. Stage 1 moves the element
/// at index i to P1(i), stage 2 moves it on to P2(P1(i)), so the
/// composite is C = Pk ∘ … ∘ P1 — built here as a left fold
/// `C = stage.compose(C)`. An INVERSE(fp) stage applies the inverse of
/// the registered permutation, so PERMUTE(fp) followed by INVERSE(fp)
/// composes to the identity (served by the identity fast-path without
/// touching the plan tier).
///
/// The composite *program fingerprint* is an order-sensitive hash
/// over (n, opcode, arg) triples. It identifies the program — the
/// composite-permutation cache in RobustPermuteService keys off it so
/// repeated programs skip re-resolution and re-composition — while the
/// PlanCache keys the compiled plan off the composite permutation's
/// own content fingerprint (identical composites from different op
/// spellings share one compiled plan, and the cache's single-flight
/// holds for concurrent first submissions).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "perm/permutation.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/status.hpp"

namespace hmm::runtime {

/// Program opcodes. Wire values are frozen by docs/PROTOCOL.md —
/// append, never renumber.
enum class ProgramOpCode : std::uint32_t {
  kPermute = 1,      ///< apply a registered plan; arg = plan fingerprint
  kInverse = 2,      ///< apply the inverse of a registered plan; arg = fingerprint
  kTranspose = 3,    ///< square transpose; arg = 0; n must be a perfect square
  kReverse = 4,      ///< full reversal (bit complement); arg = 0; n a power of two
  kShuffle = 5,      ///< perfect shuffle; arg = 0; n a power of two
  kUnshuffle = 6,    ///< inverse perfect shuffle; arg = 0; n a power of two
  kBitReversal = 7,  ///< FFT bit-reversal; arg = 0; n a power of two
  kRotate = 8,       ///< cyclic rotation; arg = shift (taken mod n)
};

/// Snake-ish label for logs and the permd_client op vocabulary.
[[nodiscard]] std::string_view to_string(ProgramOpCode op) noexcept;

/// True iff `op` is a known opcode value (the decode-time gate; an
/// unknown opcode is a typed rejection, never UB on a switch).
[[nodiscard]] bool is_known_opcode(std::uint32_t op) noexcept;

/// One program step: an opcode plus its argument. For the plan-
/// referencing ops the argument is the registered mapping's
/// fingerprint; for kRotate it is the shift; the remaining generator
/// ops require arg == 0 (rejected otherwise, so the field can gain
/// meaning later without silently changing old traffic).
struct ProgramOp {
  ProgramOpCode op = ProgramOpCode::kPermute;
  std::uint64_t arg = 0;

  friend constexpr bool operator==(const ProgramOp&, const ProgramOp&) = default;
};

/// Op-count cap, shared by the wire decoder and the validator: deep
/// chains fuse to one permutation anyway, so the cap bounds hostile
/// resolution cost, not expressiveness.
inline constexpr std::uint32_t kMaxProgramOps = 16;

/// An op chain over n-element arrays. `ops` apply in order.
struct Program {
  std::vector<ProgramOp> ops;
};

/// Order-sensitive program identity: util::Hash64 over (n, then each op's
/// opcode + arg in chain order). Two programs with the same ops in a
/// different order hash differently (composition does not commute);
/// the same ops at a different n hash differently too.
[[nodiscard]] Fingerprint program_fingerprint(std::span<const ProgramOp> ops,
                                              std::uint64_t n) noexcept;

/// Looks up a registered permutation by mapping fingerprint; nullptr =
/// unknown. The net server binds this to its SUBMIT_PLAN registry;
/// tests bind lambdas.
using PlanResolver =
    std::function<std::shared_ptr<const perm::Permutation>(std::uint64_t fingerprint)>;

/// A validated program: every op resolved to a concrete n-element
/// permutation (INVERSE ops already inverted, generator ops already
/// generated), ready to compose.
struct ResolvedProgram {
  std::vector<std::shared_ptr<const perm::Permutation>> stages;
  Fingerprint fingerprint;  ///< program_fingerprint(ops, n)
};

/// Validate and resolve an op chain against `n`-element payloads.
/// Rejects with a typed kInvalidArgument — never an abort — on:
///  - empty chain, or more than kMaxProgramOps ops;
///  - unknown opcodes or nonzero args on zero-arg generator ops;
///  - unregistered plan fingerprints (PERMUTE/INVERSE);
///  - generator preconditions (power-of-two n for shuffle/unshuffle/
///    bit-reversal/reverse, perfect-square n for transpose);
///  - any referenced plan whose size differs from n (the mismatched-n
///    gate that keeps hostile chains away from compose()'s HMM_CHECK).
/// kResourceExhausted on allocation failure while generating.
[[nodiscard]] StatusOr<ResolvedProgram> resolve_program(const Program& program,
                                                        std::uint64_t n,
                                                        const PlanResolver& resolver);

/// Fuse a resolved chain into its composite permutation
/// (C = stage_k ∘ … ∘ stage_1, so C moves index i wherever applying
/// the stages one after another would). Stages must all share one size — guaranteed by
/// resolve_program, re-verified here (typed, not aborted) because this
/// is the last gate before compose(). kResourceExhausted on allocation
/// failure.
[[nodiscard]] StatusOr<perm::Permutation> fuse_program(const ResolvedProgram& resolved);

}  // namespace hmm::runtime
