// The 7-value lattice (paper Definition 5/7, Fig. 3) — frozen truth tables
// of every value operation, the wire code, and exhaustive checks of the
// order, the lattice laws and the learner's operators.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/matrix_cells.hpp"
#include "lattice/dependency_value.hpp"

namespace bbmg {
namespace {

constexpr DepValue P = DepValue::Parallel;
constexpr DepValue F = DepValue::Forward;
constexpr DepValue B = DepValue::Backward;
constexpr DepValue M = DepValue::Mutual;
constexpr DepValue MF = DepValue::MaybeForward;
constexpr DepValue MB = DepValue::MaybeBackward;
constexpr DepValue MM = DepValue::MaybeMutual;

TEST(DepValue, DistancesMatchDefinition7) {
  EXPECT_EQ(dep_distance(P), 0u);
  EXPECT_EQ(dep_distance(F), 1u);
  EXPECT_EQ(dep_distance(B), 1u);
  EXPECT_EQ(dep_distance(MF), 4u);
  EXPECT_EQ(dep_distance(M), 4u);
  EXPECT_EQ(dep_distance(MB), 4u);
  EXPECT_EQ(dep_distance(MM), 9u);
}

// Frozen truth tables: the whole value layer written out literally, rows
// and columns in kAllDepValues order.  The other tests here check lattice
// laws with the product's own functions, so a wrong flag mask that still
// forms a lattice would pass them; these tables would not.
constexpr DepValue kLub[kNumDepValues][kNumDepValues] = {
    {P, F, B, M, MF, MB, MM},  // P
    {F, F, M, M, MF, MM, MM},  // F
    {B, M, B, M, MM, MB, MM},  // B
    {M, M, M, M, MM, MM, MM},  // M
    {MF, MF, MM, MM, MF, MM, MM},  // MF
    {MB, MM, MB, MM, MM, MB, MM},  // MB
    {MM, MM, MM, MM, MM, MM, MM},  // MM
};

constexpr bool kLeq[kNumDepValues][kNumDepValues] = {
    {1, 1, 1, 1, 1, 1, 1},  // P
    {0, 1, 0, 1, 1, 0, 1},  // F
    {0, 0, 1, 1, 0, 1, 1},  // B
    {0, 0, 0, 1, 0, 0, 1},  // M
    {0, 0, 0, 0, 1, 0, 1},  // MF
    {0, 0, 0, 0, 0, 1, 1},  // MB
    {0, 0, 0, 0, 0, 0, 1},  // MM
};

struct ValueRow {
  DepValue v;
  unsigned distance;
  DepValue mirror;
  bool permits_forward, permits_backward;
  bool requires_forward, requires_backward;
  DepValue generalize_forward, generalize_backward;
  DepValue weaken_forward, weaken_backward;
  std::vector<DepValue> lower_covers;  // in search order
};

const std::vector<ValueRow> kRows = {
    {P, 0, P, 0, 0, 0, 0, F, B, P, P, {}},
    {F, 1, B, 1, 0, 1, 0, F, M, MF, F, {P}},
    {B, 1, F, 0, 1, 0, 1, M, B, B, MB, {P}},
    {M, 4, M, 1, 1, 1, 1, M, M, MM, MM, {F, B}},
    {MF, 4, MB, 1, 0, 0, 0, MF, MM, MF, MF, {F}},
    {MB, 4, MF, 0, 1, 0, 0, MM, MB, MB, MB, {B}},
    {MM, 9, MM, 1, 1, 0, 0, MM, MM, MM, MM, {MF, M, MB}},
};

TEST(DepValue, FrozenLubAndLeqTables) {
  for (std::size_t i = 0; i < kNumDepValues; ++i) {
    for (std::size_t j = 0; j < kNumDepValues; ++j) {
      const DepValue a = kAllDepValues[i];
      const DepValue b = kAllDepValues[j];
      EXPECT_EQ(dep_lub(a, b), kLub[i][j])
          << dep_to_string(a) << " lub " << dep_to_string(b);
      EXPECT_EQ(dep_leq(a, b), kLeq[i][j])
          << dep_to_string(a) << " <= " << dep_to_string(b);
    }
  }
}

TEST(DepValue, FrozenPerValueRows) {
  ASSERT_EQ(kRows.size(), kNumDepValues);
  for (std::size_t i = 0; i < kNumDepValues; ++i) {
    const ValueRow& row = kRows[i];
    const DepValue v = row.v;
    ASSERT_EQ(v, kAllDepValues[i]);
    SCOPED_TRACE(std::string(dep_to_string(v)));
    EXPECT_EQ(dep_distance(v), row.distance);
    EXPECT_EQ(dep_mirror(v), row.mirror);
    EXPECT_EQ(dep_permits_forward(v), row.permits_forward);
    EXPECT_EQ(dep_permits_backward(v), row.permits_backward);
    EXPECT_EQ(dep_requires_forward(v), row.requires_forward);
    EXPECT_EQ(dep_requires_backward(v), row.requires_backward);
    EXPECT_EQ(dep_generalize_permit_forward(v), row.generalize_forward);
    EXPECT_EQ(dep_generalize_permit_backward(v), row.generalize_backward);
    EXPECT_EQ(dep_weaken_forward_requirement(v), row.weaken_forward);
    EXPECT_EQ(dep_weaken_backward_requirement(v), row.weaken_backward);
    EXPECT_EQ(dep_lower_covers(v), row.lower_covers);
  }
}

TEST(DepValue, WireCodeIsTheIndexInAllValues) {
  // The snapshot and wire byte of a value is its kAllDepValues index, read
  // back through the one cell codec; every other byte is rejected.
  for (unsigned byte = 0; byte < 256; ++byte) {
    const auto code = static_cast<std::uint8_t>(byte);
    const std::vector<std::uint8_t> cells = {0, code, 0, 0};  // 2x2, row-major
    ByteReader r(cells.data(), cells.size());
    if (byte < kNumDepValues) {
      const DepValue v = kAllDepValues[byte];
      EXPECT_EQ(dep_code(v), code);
      EXPECT_EQ(dep_from_code(code), v);
      EXPECT_EQ(read_matrix_cells(r, 2, "test: ").at(0, 1), v);
    } else {
      EXPECT_FALSE(dep_from_code(code).has_value()) << byte;
      try {
        (void)read_matrix_cells(r, 2, "test: ");
        ADD_FAILURE() << "byte " << byte << " was accepted";
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "test: invalid dependency value") << byte;
      }
    }
  }
}

TEST(DepValue, BottomAndTop) {
  for (DepValue v : kAllDepValues) {
    EXPECT_TRUE(dep_leq(P, v)) << dep_to_string(v);
    EXPECT_TRUE(dep_leq(v, MM)) << dep_to_string(v);
  }
}

TEST(DepValue, CoverRelationsOfFigure3) {
  // The exact Hasse diagram.
  EXPECT_TRUE(dep_leq(P, F));
  EXPECT_TRUE(dep_leq(P, B));
  EXPECT_TRUE(dep_leq(F, MF));
  EXPECT_TRUE(dep_leq(F, M));
  EXPECT_TRUE(dep_leq(B, MB));
  EXPECT_TRUE(dep_leq(B, M));
  EXPECT_TRUE(dep_leq(MF, MM));
  EXPECT_TRUE(dep_leq(M, MM));
  EXPECT_TRUE(dep_leq(MB, MM));
  // Incomparabilities.
  EXPECT_FALSE(dep_leq(F, B));
  EXPECT_FALSE(dep_leq(B, F));
  EXPECT_FALSE(dep_leq(MF, M));
  EXPECT_FALSE(dep_leq(M, MF));
  EXPECT_FALSE(dep_leq(MF, MB));
  EXPECT_FALSE(dep_leq(MB, MF));
  EXPECT_FALSE(dep_leq(F, MB));
  EXPECT_FALSE(dep_leq(B, MF));
}

TEST(DepValue, LeqIsAPartialOrder) {
  for (DepValue a : kAllDepValues) {
    EXPECT_TRUE(dep_leq(a, a));  // reflexive
    for (DepValue b : kAllDepValues) {
      if (dep_leq(a, b) && dep_leq(b, a)) {
        EXPECT_EQ(a, b);  // antisymmetric
      }
      for (DepValue c : kAllDepValues) {
        if (dep_leq(a, b) && dep_leq(b, c)) {
          EXPECT_TRUE(dep_leq(a, c));  // transitive
        }
      }
    }
  }
}

TEST(DepValue, LeqImpliesDistanceMonotone) {
  for (DepValue a : kAllDepValues) {
    for (DepValue b : kAllDepValues) {
      if (dep_leq(a, b)) {
        EXPECT_LE(dep_distance(a), dep_distance(b));
      }
    }
  }
}

TEST(DepValue, LubIsLeastUpperBound) {
  for (DepValue a : kAllDepValues) {
    for (DepValue b : kAllDepValues) {
      const DepValue j = dep_lub(a, b);
      EXPECT_TRUE(dep_leq(a, j));
      EXPECT_TRUE(dep_leq(b, j));
      // Least: no other upper bound is strictly below j.
      for (DepValue u : kAllDepValues) {
        if (dep_leq(a, u) && dep_leq(b, u)) {
          EXPECT_TRUE(dep_leq(j, u));
        }
      }
    }
  }
}

TEST(DepValue, LubCommutativeAssociativeIdempotent) {
  for (DepValue a : kAllDepValues) {
    EXPECT_EQ(dep_lub(a, a), a);
    for (DepValue b : kAllDepValues) {
      EXPECT_EQ(dep_lub(a, b), dep_lub(b, a));
      for (DepValue c : kAllDepValues) {
        EXPECT_EQ(dep_lub(dep_lub(a, b), c), dep_lub(a, dep_lub(b, c)));
      }
    }
  }
}

TEST(DepValue, SpecificLubs) {
  EXPECT_EQ(dep_lub(F, B), M);
  EXPECT_EQ(dep_lub(MF, MB), MM);
  EXPECT_EQ(dep_lub(MF, M), MM);
  EXPECT_EQ(dep_lub(F, MB), MM);
  EXPECT_EQ(dep_lub(P, F), F);
}

TEST(DepValue, MirrorIsAnOrderIsomorphismAndInvolution) {
  for (DepValue a : kAllDepValues) {
    EXPECT_EQ(dep_mirror(dep_mirror(a)), a);
    EXPECT_EQ(dep_distance(dep_mirror(a)), dep_distance(a));
    for (DepValue b : kAllDepValues) {
      EXPECT_EQ(dep_leq(a, b), dep_leq(dep_mirror(a), dep_mirror(b)));
    }
  }
  EXPECT_EQ(dep_mirror(F), B);
  EXPECT_EQ(dep_mirror(MF), MB);
  EXPECT_EQ(dep_mirror(P), P);
  EXPECT_EQ(dep_mirror(M), M);
  EXPECT_EQ(dep_mirror(MM), MM);
}

TEST(DepValue, PermissionPredicates) {
  for (DepValue v : kAllDepValues) {
    // Requirements imply permissions.
    if (dep_requires_forward(v)) {
      EXPECT_TRUE(dep_permits_forward(v));
    }
    if (dep_requires_backward(v)) {
      EXPECT_TRUE(dep_permits_backward(v));
    }
    // Permission sets are upward closed (needed for minimal
    // generalization to be well defined).
    for (DepValue w : kAllDepValues) {
      if (dep_leq(v, w)) {
        if (dep_permits_forward(v)) {
          EXPECT_TRUE(dep_permits_forward(w));
        }
        if (dep_permits_backward(v)) {
          EXPECT_TRUE(dep_permits_backward(w));
        }
      }
    }
  }
  EXPECT_TRUE(dep_permits_forward(F));
  EXPECT_FALSE(dep_permits_forward(B));
  EXPECT_FALSE(dep_permits_forward(MB));
  EXPECT_TRUE(dep_permits_forward(MM));
}

TEST(DepValue, GeneralizationIsMinimalAndSound) {
  for (DepValue v : kAllDepValues) {
    const DepValue g = dep_generalize_permit_forward(v);
    EXPECT_TRUE(dep_leq(v, g));
    EXPECT_TRUE(dep_permits_forward(g));
    // Minimality: nothing strictly below g (and >= v) permits forward.
    for (DepValue w : kAllDepValues) {
      if (dep_leq(v, w) && dep_permits_forward(w)) {
        EXPECT_TRUE(dep_leq(g, w)) << dep_to_string(v);
      }
    }
    const DepValue gb = dep_generalize_permit_backward(v);
    EXPECT_TRUE(dep_leq(v, gb));
    EXPECT_TRUE(dep_permits_backward(gb));
    for (DepValue w : kAllDepValues) {
      if (dep_leq(v, w) && dep_permits_backward(w)) {
        EXPECT_TRUE(dep_leq(gb, w)) << dep_to_string(v);
      }
    }
  }
}

TEST(DepValue, GeneralizationIsMonotone) {
  // Needed for the learner's dominance argument: extending a more specific
  // hypothesis never overtakes a more general one.
  for (DepValue a : kAllDepValues) {
    for (DepValue b : kAllDepValues) {
      if (!dep_leq(a, b)) continue;
      EXPECT_TRUE(dep_leq(dep_generalize_permit_forward(a),
                          dep_generalize_permit_forward(b)));
      EXPECT_TRUE(dep_leq(dep_generalize_permit_backward(a),
                          dep_generalize_permit_backward(b)));
      EXPECT_TRUE(dep_leq(dep_weaken_forward_requirement(a),
                          dep_weaken_forward_requirement(b)));
      EXPECT_TRUE(dep_leq(dep_weaken_backward_requirement(a),
                          dep_weaken_backward_requirement(b)));
    }
  }
}

TEST(DepValue, WeakeningIsMinimalAndRemovesTheRequirement) {
  for (DepValue v : kAllDepValues) {
    const DepValue w = dep_weaken_forward_requirement(v);
    EXPECT_TRUE(dep_leq(v, w));
    EXPECT_FALSE(dep_requires_forward(w));
    for (DepValue u : kAllDepValues) {
      if (dep_leq(v, u) && !dep_requires_forward(u)) {
        EXPECT_TRUE(dep_leq(w, u));
      }
    }
  }
  EXPECT_EQ(dep_weaken_forward_requirement(F), MF);
  EXPECT_EQ(dep_weaken_forward_requirement(M), MM);
  EXPECT_EQ(dep_weaken_backward_requirement(B), MB);
  EXPECT_EQ(dep_weaken_backward_requirement(M), MM);
}

TEST(DepValue, StringRoundTrip) {
  for (DepValue v : kAllDepValues) {
    EXPECT_EQ(dep_from_string(dep_to_string(v)), v);
  }
  EXPECT_EQ(dep_to_string(P), "||");
  EXPECT_EQ(dep_to_string(MM), "<->?");
  EXPECT_THROW((void)dep_from_string("bogus"), Error);
}

}  // namespace
}  // namespace bbmg
