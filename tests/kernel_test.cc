// Differential harness for the SIMD kernel layer (DESIGN.md §15): every
// compiled-in implementation of the mark kernels is held to EXACT equality
// — the same marks and the same integer count — against the scalar
// reference, across every tail alignment and tie-heavy capacity values.
// The dispatch shim itself is swept over every DOPPLER_KERNEL override
// value.

#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/kernels/kernels.h"
#include "util/random.h"

namespace doppler::kernels {
namespace {

// Every implementation compiled into this binary AND runnable on this CPU,
// scalar first (the reference).
std::vector<const KernelOps*> AvailableImpls() {
  std::vector<const KernelOps*> impls;
  for (KernelIsa isa :
       {KernelIsa::kScalar, KernelIsa::kAvx2, KernelIsa::kNeon}) {
    const KernelOps* ops = KernelOpsFor(isa);
    if (ops != nullptr) impls.push_back(ops);
  }
  return impls;
}

const KernelOps& Scalar() { return *KernelOpsFor(KernelIsa::kScalar); }

// Row counts covering every tail alignment of the 2-, 4- and 8-wide double
// kernels.
const std::size_t kRowCounts[] = {0,  1,  2,  3,  4,   5,   6,   7,  8,
                                  9,  15, 16, 17, 31,  63,  64,  65, 100,
                                  127, 128, 129, 200, 255, 256, 257};

TEST(KernelLayerTest, ScalarAlwaysAvailable) {
  ASSERT_NE(KernelOpsFor(KernelIsa::kScalar), nullptr);
  EXPECT_STREQ(KernelOpsFor(KernelIsa::kScalar)->name, "scalar");
}

// Columns probing strict-comparison edges: exact ties everywhere, NaNs
// (compare false both ways), infinities, and negative zero (== 0.0).
std::vector<double> MakeColumn(Rng& rng, std::size_t n) {
  std::vector<double> column(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(8)) {
      case 0:
        column[i] = 5.0;  // tie with the probed limit
        break;
      case 1:
        column[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 2:
        column[i] = std::numeric_limits<double>::infinity();
        break;
      case 3:
        column[i] = -std::numeric_limits<double>::infinity();
        break;
      case 4:
        column[i] = -0.0;
        break;
      default:
        column[i] = (static_cast<double>(rng.UniformInt(2000)) - 1000.0) /
                    100.0;
        break;
    }
  }
  return column;
}

const double kLimits[] = {5.0, 0.0, -3.33, 1e12, -1e12,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};

TEST(KernelLayerTest, MarkKernelsMatchScalarAndOnlyCountFreshRows) {
  for (const KernelOps* impl : AvailableImpls()) {
    Rng rng(99);
    for (std::size_t n : kRowCounts) {
      const std::vector<double> column = MakeColumn(rng, n);
      for (double limit : kLimits) {
        // Pre-marked rows exercise the fresh-only counting: a random
        // subset is already 1, as after a previous column's scan.
        std::vector<unsigned char> marks_ref(n), marks_impl(n);
        for (std::size_t i = 0; i < n; ++i) {
          marks_ref[i] = static_cast<unsigned char>(rng.UniformInt(3) == 0);
          marks_impl[i] = marks_ref[i];
        }
        const std::size_t expected_above = Scalar().mark_above(
            column.data(), n, limit, marks_ref.data());
        const std::size_t got_above = impl->mark_above(
            column.data(), n, limit, marks_impl.data());
        EXPECT_EQ(got_above, expected_above)
            << impl->name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(marks_impl, marks_ref)
            << impl->name << " n=" << n << " limit=" << limit;

        const std::size_t expected_below = Scalar().mark_below(
            column.data(), n, limit, marks_ref.data());
        const std::size_t got_below = impl->mark_below(
            column.data(), n, limit, marks_impl.data());
        EXPECT_EQ(got_below, expected_below)
            << impl->name << " n=" << n << " limit=" << limit;
        EXPECT_EQ(marks_impl, marks_ref)
            << impl->name << " n=" << n << " limit=" << limit;
      }
    }
  }
}

TEST(KernelDispatchTest, ParseRecognisesExactlyTheThreeVariants) {
  KernelIsa isa;
  EXPECT_TRUE(ParseKernelIsa("scalar", &isa));
  EXPECT_EQ(isa, KernelIsa::kScalar);
  EXPECT_TRUE(ParseKernelIsa("avx2", &isa));
  EXPECT_EQ(isa, KernelIsa::kAvx2);
  EXPECT_TRUE(ParseKernelIsa("neon", &isa));
  EXPECT_EQ(isa, KernelIsa::kNeon);
  EXPECT_FALSE(ParseKernelIsa("", &isa));
  EXPECT_FALSE(ParseKernelIsa("AVX2", &isa));
  EXPECT_FALSE(ParseKernelIsa("sse", &isa));
}

TEST(KernelDispatchTest, SelectSweepsEveryOverrideValue) {
  // No override: the best available variant.
  const KernelOps& best = SelectKernels(nullptr);
  EXPECT_EQ(&SelectKernels(""), &best);

  // Explicit scalar always honoured.
  EXPECT_STREQ(SelectKernels("scalar").name, "scalar");

  // A recognised but unavailable variant falls back to scalar; an
  // available one is honoured.
  for (const char* name : {"avx2", "neon"}) {
    KernelIsa isa;
    ASSERT_TRUE(ParseKernelIsa(name, &isa));
    const KernelOps& selected = SelectKernels(name);
    if (KernelOpsFor(isa) != nullptr) {
      EXPECT_STREQ(selected.name, name);
    } else {
      EXPECT_STREQ(selected.name, "scalar");
    }
  }

  // Unrecognised values warn and pick the best.
  EXPECT_EQ(&SelectKernels("bogus"), &best);
}

TEST(KernelDispatchTest, ScopedOverrideSwapsAndRestoresActiveTable) {
  const KernelOps& before = ActiveKernels();
  {
    ScopedKernelOverride to_scalar(KernelIsa::kScalar);
    EXPECT_STREQ(ActiveKernels().name, "scalar");
    {
      // Overrides nest; a null table falls back to scalar rather than
      // clearing the resolved state.
      ScopedKernelOverride to_null(nullptr);
      EXPECT_STREQ(ActiveKernels().name, "scalar");
    }
    EXPECT_STREQ(ActiveKernels().name, "scalar");
  }
  EXPECT_EQ(&ActiveKernels(), &before);
}

}  // namespace
}  // namespace doppler::kernels
