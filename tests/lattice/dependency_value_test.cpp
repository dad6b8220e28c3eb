// The 7-value lattice (paper Definition 5/7, Fig. 3) — exhaustive checks
// of the order, the lattice laws, and the learner's operator tables.
#include <gtest/gtest.h>

#include "common/error.hpp"
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

TEST(DepValue, LookupTablesMatchTheSwitchFunctions) {
  // Exhaustive 7x7: the tables the matrix join runs on are the switch
  // functions, cell for cell.
  for (DepValue a : kAllDepValues) {
    EXPECT_EQ(kDepDistanceTable[static_cast<std::size_t>(a)], dep_distance(a))
        << dep_to_string(a);
    for (DepValue b : kAllDepValues) {
      EXPECT_EQ(kDepLubTable[static_cast<std::size_t>(a) * 8 +
                             static_cast<std::size_t>(b)],
                dep_lub(a, b))
          << dep_to_string(a) << " lub " << dep_to_string(b);
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
