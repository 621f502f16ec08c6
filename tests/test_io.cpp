#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/plan_io.hpp"
#include "core/scheduled.hpp"
#include "perm/generators.hpp"
#include "perm/io.hpp"
#include "test_helpers.hpp"

namespace hmm {
namespace {

using model::MachineParams;

TEST(PermIo, RoundTrip) {
  const perm::Permutation p = perm::by_name("random", 4096, 13);
  std::stringstream ss;
  ASSERT_TRUE(perm::save(ss, p));
  const auto loaded = perm::load(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, p);
}

TEST(PermIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOTAPERM12345678901234567890";
  EXPECT_FALSE(perm::load(ss).has_value());
}

TEST(PermIo, RejectsTruncatedPayload) {
  const perm::Permutation p = perm::identical(1024);
  std::stringstream ss;
  ASSERT_TRUE(perm::save(ss, p));
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  EXPECT_FALSE(perm::load(cut).has_value());
}

TEST(PermIo, RejectsCorruptedMapping) {
  const perm::Permutation p = perm::identical(64);
  std::stringstream ss;
  ASSERT_TRUE(perm::save(ss, p));
  std::string bytes = ss.str();
  // Duplicate one mapping entry (last 4 bytes := preceding 4 bytes).
  std::copy(bytes.end() - 8, bytes.end() - 4, bytes.end() - 4);
  std::stringstream bad(bytes);
  EXPECT_FALSE(perm::load(bad).has_value());
}

TEST(PermIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hmm_perm_io_test.bin";
  const perm::Permutation p = perm::bit_reversal(2048);
  ASSERT_TRUE(perm::save_file(path, p));
  const auto loaded = perm::load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, p);
  std::remove(path.c_str());
  EXPECT_FALSE(perm::load_file(path).has_value());
}

TEST(PlanIo, RoundTripPreservesEverything) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::by_name("random", 1024, 3);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);

  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, plan));
  const auto loaded = core::load_plan(ss);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->size(), plan.size());
  EXPECT_EQ(loaded->shape(), plan.shape());
  EXPECT_EQ(loaded->params(), plan.params());
  for (unsigned pass = 1; pass <= 3; ++pass) {
    EXPECT_EQ(loaded->direct(pass), plan.direct(pass)) << "pass " << pass;
  }
  // The gather tables are derived on load, identical to the built ones.
  EXPECT_TRUE(std::ranges::equal(loaded->gather1(), plan.gather1()));
  EXPECT_TRUE(std::ranges::equal(loaded->gather2(), plan.gather2()));
  EXPECT_TRUE(std::ranges::equal(loaded->gather3(), plan.gather3()));
  // Deep check: the loaded plan still realizes exactly P.
  EXPECT_TRUE(loaded->validate(p));
}

TEST(PlanIo, LoadedPlanExecutes) {
  const MachineParams mp = MachineParams::tiny(8, 20, 4);
  const std::uint64_t n = 1 << 12;
  const perm::Permutation p = perm::bit_reversal(n);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, core::ScheduledPlan::build(p, mp)));
  const auto plan = core::load_plan(ss);
  ASSERT_TRUE(plan.has_value());

  util::ThreadPool pool(2);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n), s1(n);
  core::scheduled_cpu<float>(pool, *plan, a, b, s1);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
}

TEST(PlanIo, RejectsGarbageHeaders) {
  {
    std::stringstream ss;
    ss << "HMMPLAN";  // magic but no version byte / fields
    EXPECT_FALSE(core::load_plan(ss).has_value());
  }
  {
    std::stringstream ss;
    ss << "HMMPLAN";
    ss.put(3);  // valid magic + version, truncated header fields
    EXPECT_FALSE(core::load_plan(ss).has_value());
  }
  {
    std::stringstream ss;
    ss << "WRONGMAG" << std::string(200, '\0');
    EXPECT_FALSE(core::load_plan(ss).has_value());
  }
}

TEST(PlanIo, RejectsTruncatedPayload) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::shuffle(1024);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, core::ScheduledPlan::build(p, mp)));
  std::string bytes = ss.str();
  bytes.resize(bytes.size() / 2);  // valid header, half the gather payload
  std::stringstream cut(bytes);
  EXPECT_FALSE(core::load_plan(cut).has_value());
}

TEST(PlanIo, RejectsGatherPayloadShortByOneEntry) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, core::ScheduledPlan::build(perm::shuffle(1024), mp)));
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - sizeof(std::uint16_t));  // g3 loses its last entry
  std::stringstream cut(bytes);
  std::string why;
  EXPECT_FALSE(core::load_plan(cut, &why).has_value());
  EXPECT_NE(why.find("truncated"), std::string::npos) << why;
}

TEST(PlanIo, RejectsUnknownFormatVersion) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::shuffle(256);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, core::ScheduledPlan::build(p, mp)));
  std::string bytes = ss.str();
  bytes[7] = 1;  // the retired v1 header — a stale file must fail cleanly
  std::stringstream old(bytes);
  EXPECT_FALSE(core::load_plan(old).has_value());
  bytes[7] = 99;  // a future version this loader cannot parse
  std::stringstream future_version(bytes);
  EXPECT_FALSE(core::load_plan(future_version).has_value());
}

// A well-formed version-2 file — the same header, then the six (p̂, q)
// schedule arrays, then g1..g3 — is refused on its version byte.
TEST(PlanIo, RejectsVersion2File) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const core::ScheduledPlan plan =
      core::ScheduledPlan::build(perm::by_name("random", 1024, 3), mp);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, plan));
  const std::string v3 = ss.str();
  const std::size_t header = 8 + 6 * 8;

  std::string v2 = v3.substr(0, header);
  v2[7] = 2;
  for (const core::RowScheduleSet& set : core::bank_schedules(plan)) {
    for (const auto* a : {&set.phat, &set.q}) {
      v2.append(reinterpret_cast<const char*>(a->data()), a->size() * sizeof(std::uint16_t));
    }
  }
  v2.append(v3, header);
  ASSERT_EQ(v2.size(), v3.size() + 6 * plan.size() * sizeof(std::uint16_t));

  std::stringstream old(v2);
  std::string why;
  EXPECT_FALSE(core::load_plan(old, &why).has_value());
  EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST(PlanIo, RejectsOutOfRangeScheduleEntry) {
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::shuffle(1024);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, core::ScheduledPlan::build(p, mp)));
  std::string bytes = ss.str();
  // First u16 of g1 sits right after the 8-byte magic/version + six
  // u64 header fields. 0xFFFF indexes far outside any row (the shape of
  // n=1024 has cols <= 32), so degree sanity must reject it.
  const std::size_t first_entry = 8 + 6 * 8;
  bytes[first_entry] = static_cast<char>(0xFF);
  bytes[first_entry + 1] = static_cast<char>(0xFF);
  std::stringstream corrupt(bytes);
  EXPECT_FALSE(core::load_plan(corrupt).has_value());
}

TEST(PlanIo, RejectsScheduleRowWithRepeatedEntry) {
  // Every entry in range, but one row of a stored g repeats an index:
  // executing it would leave an output slot unwritten (stale pooled
  // bytes on the serving path), so the loader must refuse it.
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::by_name("random", 1024, 3);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  std::stringstream ss;
  ASSERT_TRUE(core::save_plan(ss, plan));
  const std::string pristine = ss.str();

  // Layout after the 8 + 6*8 header bytes: g1, g2, g3 — n u16 entries
  // each.
  const std::uint64_t n = plan.size();
  const std::size_t header = 8 + 6 * 8;
  for (std::size_t array = 0; array < 3; ++array) {
    std::string bytes = pristine;
    const std::size_t row0 = header + array * n * sizeof(std::uint16_t);
    // Entry 1 of row 0 := entry 0 of row 0.
    bytes[row0 + 2] = bytes[row0];
    bytes[row0 + 3] = bytes[row0 + 1];
    std::stringstream corrupt(bytes);
    std::string why;
    EXPECT_FALSE(core::load_plan(corrupt, &why).has_value()) << "array " << array;
    EXPECT_NE(why.find("not a permutation"), std::string::npos) << why;
  }
  std::stringstream intact(pristine);
  EXPECT_TRUE(core::load_plan(intact).has_value());
}

TEST(PlanIo, RejectsInsaneDimensions) {
  // Craft a header with width = 7 (not a power of two).
  std::stringstream ss;
  ss.write("HMMPLAN", 7);
  ss.put(3);  // current format version
  auto w64 = [&](std::uint64_t v) { ss.write(reinterpret_cast<const char*>(&v), 8); };
  w64(16);  // rows
  w64(16);  // cols
  w64(7);   // width: invalid
  w64(100);
  w64(2);
  w64(48 * 1024);
  EXPECT_FALSE(core::load_plan(ss).has_value());
}

TEST(PlanIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hmm_plan_io_test.bin";
  const MachineParams mp = MachineParams::tiny(4, 9, 2);
  const perm::Permutation p = perm::shuffle(256);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, mp);
  ASSERT_TRUE(core::save_plan_file(path, plan));
  const auto loaded = core::load_plan_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->validate(p));
  std::remove(path.c_str());
  EXPECT_FALSE(core::load_plan_file(path).has_value());
}

}  // namespace
}  // namespace hmm
