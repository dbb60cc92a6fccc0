// Unit tests for qsyn/la: vectors, LU decomposition, and the V0/V1 states.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "la/gate_constants.h"
#include "la/lu.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace qsyn::la {
namespace {

const Complex kI(0.0, 1.0);

// --- Vector ------------------------------------------------------------------

TEST(Vector, BasisConstruction) {
  const Vector e2 = Vector::basis(4, 2);
  EXPECT_EQ(e2.size(), 4u);
  EXPECT_EQ(e2[2], Complex(1.0, 0.0));
  EXPECT_EQ(e2[0], Complex(0.0, 0.0));
  EXPECT_THROW((void)Vector::basis(4, 4), LogicError);
}

TEST(Vector, Arithmetic) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, 4.0};
  const Vector s = a + b;
  EXPECT_EQ(s[0], Complex(4.0, 0.0));
  EXPECT_EQ((s - b)[1], Complex(2.0, 0.0));
  EXPECT_EQ((a * kI)[0], kI);
}

TEST(Vector, DotIsConjugateLinear) {
  const Vector a{kI, 0.0};
  const Vector b{1.0, 0.0};
  // <a|b> = conj(i)*1 = -i.
  EXPECT_EQ(a.dot(b), Complex(0.0, -1.0));
  EXPECT_EQ(b.dot(a), kI);
}

TEST(Vector, NormAndNormalize) {
  Vector v{3.0, 4.0};
  EXPECT_NEAR(v.norm(), 5.0, 1e-12);
  EXPECT_NEAR(v.norm_squared(), 25.0, 1e-12);
  v.normalize();
  EXPECT_NEAR(v.norm(), 1.0, 1e-12);
  Vector zero(3);
  EXPECT_THROW(zero.normalize(), LogicError);
}

TEST(Vector, KroneckerProduct) {
  const Vector a{1.0, 2.0};
  const Vector b{0.0, 1.0};
  const Vector k = a.kron(b);
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[1], Complex(1.0, 0.0));
  EXPECT_EQ(k[3], Complex(2.0, 0.0));
}

TEST(Vector, EqualUpToPhase) {
  const Vector v = state_v0();
  Vector w = v;
  w *= std::exp(kI * 1.2);
  EXPECT_TRUE(v.equal_up_to_phase(w));
  EXPECT_FALSE(v.approx_equal(w));
  EXPECT_FALSE(v.equal_up_to_phase(state_v1()));
}

TEST(Vector, MatrixVectorProduct) {
  const Vector x = mat_x() * Vector{1.0, 0.0};
  EXPECT_EQ(x[0], Complex(0.0, 0.0));
  EXPECT_EQ(x[1], Complex(1.0, 0.0));
  EXPECT_THROW((void)(Matrix::identity(3) * Vector{1.0, 0.0}), LogicError);
}

// --- V0/V1 states (paper Section 2) ------------------------------------------

TEST(States, V0IsVAppliedToZero) {
  EXPECT_TRUE((mat_v() * state_0()).approx_equal(state_v0()));
}

TEST(States, V1IsVAppliedToOne) {
  EXPECT_TRUE((mat_v() * state_1()).approx_equal(state_v1()));
}

TEST(States, PaperIdentityV0EqualsVdagOne) {
  // The paper's reduction from six to four values: V0 = V+1 and V1 = V+0.
  EXPECT_TRUE((mat_v_dagger() * state_1()).approx_equal(state_v0()));
  EXPECT_TRUE((mat_v_dagger() * state_0()).approx_equal(state_v1()));
}

TEST(States, VOnV0GivesOneExactly) {
  EXPECT_TRUE((mat_v() * state_v0()).approx_equal(state_1()));
  EXPECT_TRUE((mat_v() * state_v1()).approx_equal(state_0()));
  EXPECT_TRUE((mat_v_dagger() * state_v0()).approx_equal(state_0()));
  EXPECT_TRUE((mat_v_dagger() * state_v1()).approx_equal(state_1()));
}

TEST(States, NotSwapsV0V1Exactly) {
  EXPECT_TRUE((mat_x() * state_v0()).approx_equal(state_v1()));
  EXPECT_TRUE((mat_x() * state_v1()).approx_equal(state_v0()));
}

TEST(States, MixedStatesMeasureHalf) {
  EXPECT_NEAR(std::norm(state_v0()[1]), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(state_v1()[1]), 0.5, 1e-12);
  EXPECT_NEAR(state_v0().norm(), 1.0, 1e-12);
}

// --- LU ----------------------------------------------------------------------

TEST(Lu, DeterminantOfKnownMatrix) {
  const Matrix m{{4.0, 3.0}, {6.0, 3.0}};
  EXPECT_NEAR(std::abs(determinant(m) - Complex(-6.0, 0.0)), 0.0, 1e-9);
}

TEST(Lu, DeterminantOfIdentity) {
  EXPECT_NEAR(std::abs(determinant(Matrix::identity(5)) - Complex(1.0, 0.0)),
              0.0, 1e-12);
}

TEST(Lu, DeterminantOfPermutationIsSign) {
  // A single transposition has determinant -1.
  const Matrix p = Matrix::permutation({1, 0, 2});
  EXPECT_NEAR(std::abs(determinant(p) - Complex(-1.0, 0.0)), 0.0, 1e-12);
}

TEST(Lu, SingularDetection) {
  const Matrix m{{1.0, 2.0}, {2.0, 4.0}};
  LuDecomposition lu(m);
  EXPECT_TRUE(lu.is_singular());
  EXPECT_NEAR(std::abs(lu.determinant()), 0.0, 1e-9);
  EXPECT_THROW((void)lu.solve(Vector{1.0, 0.0}), LogicError);
}

TEST(Lu, SolveRoundTrip) {
  const Matrix a{{2.0, 1.0, 0.0}, {1.0, 3.0, 1.0}, {0.0, 1.0, 4.0}};
  const Vector x_true{1.0, -2.0, 3.0};
  const Vector b = a * x_true;
  const Vector x = solve(a, b);
  EXPECT_TRUE(x.approx_equal(x_true, 1e-9));
}

TEST(Lu, ComplexSolve) {
  const Matrix a{{kI, 1.0}, {1.0, kI}};
  const Vector x_true{Complex(0.5, 0.25), Complex(-1.0, 2.0)};
  const Vector b = a * x_true;
  EXPECT_TRUE(solve(a, b).approx_equal(x_true, 1e-9));
}

TEST(Lu, InverseOfUnitaryIsAdjoint) {
  const Matrix v = mat_v();
  EXPECT_TRUE(inverse(v).approx_equal(v.adjoint(), 1e-9));
}

TEST(Lu, InverseRoundTrip) {
  Rng rng(99);
  Matrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m(r, c) = Complex(rng.uniform() - 0.5, rng.uniform() - 0.5);
    }
  }
  EXPECT_TRUE((m * inverse(m)).is_identity(1e-8));
  EXPECT_TRUE((inverse(m) * m).is_identity(1e-8));
}

TEST(Lu, MatrixSolveMultipleRhs) {
  const Matrix a{{3.0, 1.0}, {1.0, 2.0}};
  const Matrix b{{1.0, 0.0}, {0.0, 1.0}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_TRUE((a * x).is_identity(1e-9));
}

TEST(Lu, RequiresSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), LogicError);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = solve(a, Vector{5.0, 7.0});
  EXPECT_TRUE(x.approx_equal(Vector{7.0, 5.0}, 1e-12));
}

}  // namespace
}  // namespace qsyn::la
