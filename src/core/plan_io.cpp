#include "core/plan_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>

namespace hmm::core {
namespace {

// 7-byte magic + 1 format-version byte. Version history:
//   1: initial format (no payload sanity metadata).
//   2: same layout, but loaders verify every schedule entry is in range
//      for its row length (degree checks) — v1 files are rejected so a
//      foreign or stale file can never be half-trusted. Loaders also
//      check that every row is a permutation (no repeated entry); the
//      bytes are unchanged, so files written by any v2 saver still load.
//      The direct arrays g1..g3 stay on disk; the loader derives the
//      host's gather tables (their row inverses) after checking them.
//   3: the same header, then g1..g3 only. The six (p̂, q) schedule
//      arrays are gone: plans no longer hold them, and the simulator
//      derives them from g (core::bank_schedules). v2 files are refused
//      rather than read past their schedules: the repository commits no
//      plan file, so a stale one is rebuilt, not migrated.
constexpr char kMagic[7] = {'H', 'M', 'M', 'P', 'L', 'A', 'N'};
constexpr char kVersion = 3;

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

bool read_u64(std::istream& is, std::uint64_t& v) {
  return static_cast<bool>(is.read(reinterpret_cast<char*>(&v), sizeof v));
}

void write_u16s(std::ostream& os, const util::aligned_vector<std::uint16_t>& v) {
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(std::uint16_t)));
}

bool read_u16s(std::istream& is, util::aligned_vector<std::uint16_t>& v, std::uint64_t count) {
  v.resize(count);
  return static_cast<bool>(is.read(reinterpret_cast<char*>(v.data()),
                                   static_cast<std::streamsize>(count * sizeof(std::uint16_t))));
}

}  // namespace

bool save_plan(std::ostream& os, const ScheduledPlan& plan) {
  os.write(kMagic, sizeof kMagic);
  os.put(kVersion);
  write_u64(os, plan.shape().rows);
  write_u64(os, plan.shape().cols);
  write_u64(os, plan.params().width);
  write_u64(os, plan.params().latency);
  write_u64(os, plan.params().dmms);
  write_u64(os, plan.params().shared_bytes);
  // The file keeps the direct row permutations g; the plan holds their
  // row inverses (the gather tables), so invert back on save.
  for (unsigned pass = 1; pass <= 3; ++pass) write_u16s(os, plan.direct(pass));
  return static_cast<bool>(os);
}

namespace {

/// Record the failure reason (when the caller asked for one) and fail.
std::nullopt_t load_fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return std::nullopt;
}

}  // namespace

std::optional<ScheduledPlan> load_plan(std::istream& is, std::string* error) {
  char magic[7];
  if (!is.read(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return load_fail(error, "bad magic (not an HMMPLAN file)");
  }
  char version = 0;
  if (!is.get(version) || version != kVersion) {
    return load_fail(error, "unknown or unsupported format version");
  }
  std::uint64_t rows = 0, cols = 0, width = 0, latency = 0, dmms = 0, shared = 0;
  if (!read_u64(is, rows) || !read_u64(is, cols) || !read_u64(is, width) ||
      !read_u64(is, latency) || !read_u64(is, dmms) || !read_u64(is, shared)) {
    return load_fail(error, "truncated header");
  }
  // Bound sanity before allocating anything.
  if (rows == 0 || cols == 0 || rows > (1ull << 16) || cols > (1ull << 16) ||
      width == 0 || width > 64 || !util::is_pow2(width) || dmms == 0 ||
      !util::is_pow2(dmms) || latency == 0) {
    return load_fail(error, "machine parameters or matrix shape out of range");
  }
  const std::uint64_t n = rows * cols;
  model::MachineParams params;
  params.width = static_cast<std::uint32_t>(width);
  params.latency = static_cast<std::uint32_t>(latency);
  params.dmms = static_cast<std::uint32_t>(dmms);
  params.shared_bytes = shared;

  util::aligned_vector<std::uint16_t> g1, g2, g3;
  if (!read_u16s(is, g1, n) || !read_u16s(is, g2, n) || !read_u16s(is, g3, n)) {
    return load_fail(error, "truncated gather payload");
  }
  // Pass 1/3 rows have length `cols`, pass 2 rows (the transposed
  // matrix) have length `rows`; a corrupted payload must fail here, not
  // in a kernel.
  for (const auto& [v, row_len] : {std::pair{&g1, cols}, {&g2, rows}, {&g3, cols}}) {
    if (!rows_are_permutations(*v, row_len)) {
      return load_fail(error, "plan row is not a permutation of its row (corrupt payload)");
    }
  }
  return ScheduledPlan::restore(MatrixShape{rows, cols}, params, std::move(g1), std::move(g2),
                                std::move(g3));
}

bool save_plan_file(const std::string& path, const ScheduledPlan& plan) {
  std::ofstream os(path, std::ios::binary);
  return os && save_plan(os, plan);
}

std::optional<ScheduledPlan> load_plan_file(const std::string& path, std::string* error) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return load_fail(error, "cannot open file");
  return load_plan(is, error);
}

}  // namespace hmm::core
