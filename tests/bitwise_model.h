// Bitwise comparison of group models, for the tests that pin a saved,
// shipped or reloaded model to the model it was made from.

#ifndef DOPPLER_TESTS_BITWISE_MODEL_H_
#define DOPPLER_TESTS_BITWISE_MODEL_H_

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/profiler.h"

namespace doppler {

inline std::uint64_t Bits(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

// Every field of `got` equals the one in `want`, doubles bit for bit.
inline void ExpectBitIdentical(const core::GroupModel& got,
                               const core::GroupModel& want) {
  EXPECT_EQ(Bits(got.global_mean()), Bits(want.global_mean()));
  const std::vector<core::GroupStats> got_groups = got.AllGroups();
  const std::vector<core::GroupStats> want_groups = want.AllGroups();
  ASSERT_EQ(got_groups.size(), want_groups.size());
  for (std::size_t g = 0; g < want_groups.size(); ++g) {
    const core::GroupStats& a = got_groups[g];
    const core::GroupStats& b = want_groups[g];
    EXPECT_EQ(a.group_id, b.group_id);
    EXPECT_EQ(a.count, b.count) << "group " << b.group_id;
    EXPECT_EQ(Bits(a.mean_probability), Bits(b.mean_probability))
        << "group " << b.group_id;
    EXPECT_EQ(Bits(a.std_probability), Bits(b.std_probability))
        << "group " << b.group_id;
    EXPECT_EQ(Bits(a.mean_score), Bits(b.mean_score)) << "group " << b.group_id;
  }
}

}  // namespace doppler

#endif  // DOPPLER_TESTS_BITWISE_MODEL_H_
