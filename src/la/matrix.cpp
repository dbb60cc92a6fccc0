#include "la/matrix.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace qsyn::la {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, Complex(0.0, 0.0)) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    QSYN_CHECK(row.size() == cols_,
               "Matrix initializer rows must be equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zero(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix Matrix::diagonal(const std::vector<Complex>& entries) {
  Matrix m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

Matrix Matrix::permutation(const std::vector<std::size_t>& perm) {
  const std::size_t n = perm.size();
  Matrix m(n, n);
  std::vector<bool> hit(n, false);
  for (std::size_t j = 0; j < n; ++j) {
    QSYN_CHECK(perm[j] < n, "permutation image out of range");
    QSYN_CHECK(!hit[perm[j]], "permutation images must be distinct");
    hit[perm[j]] = true;
    m(perm[j], j) = 1.0;
  }
  return m;
}

Complex& Matrix::at(std::size_t r, std::size_t c) {
  QSYN_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return data_[r * cols_ + c];
}

const Complex& Matrix::at(std::size_t r, std::size_t c) const {
  QSYN_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return data_[r * cols_ + c];
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  QSYN_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
             "Matrix addition requires equal shapes");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  QSYN_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_,
             "Matrix subtraction requires equal shapes");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(Complex scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  QSYN_CHECK(lhs.cols_ == rhs.rows_,
             "Matrix product requires lhs.cols == rhs.rows");
  Matrix out(lhs.rows_, rhs.cols_);
  // i-k-j loop order: streams through rhs rows contiguously.
  for (std::size_t i = 0; i < lhs.rows_; ++i) {
    for (std::size_t k = 0; k < lhs.cols_; ++k) {
      const Complex a = lhs(i, k);
      if (a == Complex(0.0, 0.0)) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

bool Matrix::equal_up_to_phase(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  // Find the largest-magnitude entry of *this to fix the phase.
  std::size_t ref = data_.size();
  double best = tol;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i]) > best) {
      best = std::abs(data_[i]);
      ref = i;
    }
  }
  if (ref == data_.size()) {
    // Effectively the zero matrix; equal up to phase iff other is zero too.
    return other.frobenius_norm() <= tol * static_cast<double>(data_.size());
  }
  if (std::abs(other.data_[ref]) <= tol) return false;
  const Complex phase = other.data_[ref] / data_[ref];
  if (std::abs(std::abs(phase) - 1.0) > tol) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] * phase - other.data_[i]) > tol) return false;
  }
  return true;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::conjugate() const {
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = std::conj(data_[i]);
  }
  return out;
}

Matrix Matrix::adjoint() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = std::conj((*this)(r, c));
    }
  }
  return out;
}

Complex Matrix::trace() const {
  QSYN_CHECK(is_square(), "trace requires a square matrix");
  Complex t(0.0, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (const auto& v : data_) sum += std::norm(v);
  return std::sqrt(sum);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  QSYN_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "max_abs_diff requires equal shapes");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

Matrix Matrix::pow(std::size_t exponent) const {
  QSYN_CHECK(is_square(), "pow requires a square matrix");
  Matrix result = identity(rows_);
  Matrix base = *this;
  while (exponent > 0) {
    if ((exponent & 1U) != 0) result = result * base;
    base = base * base;
    exponent >>= 1U;
  }
  return result;
}

Matrix Matrix::kron(const Matrix& rhs) const {
  Matrix out(rows_ * rhs.rows_, cols_ * rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const Complex a = (*this)(r, c);
      if (a == Complex(0.0, 0.0)) continue;
      for (std::size_t rr = 0; rr < rhs.rows_; ++rr) {
        for (std::size_t cc = 0; cc < rhs.cols_; ++cc) {
          out(r * rhs.rows_ + rr, c * rhs.cols_ + cc) = a * rhs(rr, cc);
        }
      }
    }
  }
  return out;
}

Matrix Matrix::direct_sum(const Matrix& rhs) const {
  Matrix out(rows_ + rhs.rows_, cols_ + rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, c) = (*this)(r, c);
  }
  for (std::size_t r = 0; r < rhs.rows_; ++r) {
    for (std::size_t c = 0; c < rhs.cols_; ++c) {
      out(rows_ + r, cols_ + c) = rhs(r, c);
    }
  }
  return out;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t height,
                     std::size_t width) const {
  QSYN_CHECK(r0 + height <= rows_ && c0 + width <= cols_,
             "block out of range");
  Matrix out(height, width);
  for (std::size_t r = 0; r < height; ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      out(r, c) = (*this)(r0 + r, c0 + c);
    }
  }
  return out;
}

bool Matrix::is_identity(double tol) const {
  if (!is_square()) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const Complex want = (r == c) ? Complex(1.0, 0.0) : Complex(0.0, 0.0);
      if (std::abs((*this)(r, c) - want) > tol) return false;
    }
  }
  return true;
}

bool Matrix::is_unitary(double tol) const {
  if (!is_square()) return false;
  return (*this * adjoint()).is_identity(tol);
}

bool Matrix::is_hermitian(double tol) const {
  if (!is_square()) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (std::abs((*this)(r, c) - std::conj((*this)(c, r))) > tol) {
        return false;
      }
    }
  }
  return true;
}

bool Matrix::is_permutation(double tol) const {
  if (!is_square()) return false;
  for (std::size_t c = 0; c < cols_; ++c) {
    std::size_t ones = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double mag = std::abs((*this)(r, c));
      if (mag > tol) {
        if (std::abs((*this)(r, c) - Complex(1.0, 0.0)) > tol) return false;
        ++ones;
      }
    }
    if (ones != 1) return false;
  }
  // Column-wise single ones + squareness implies row-wise too only if the
  // hit rows are distinct; verify.
  std::vector<bool> hit(rows_, false);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      if (std::abs((*this)(r, c)) > tol) {
        if (hit[r]) return false;
        hit[r] = true;
      }
    }
  }
  return true;
}

bool Matrix::is_permutation_up_to_phases(double tol) const {
  if (!is_square()) return false;
  std::vector<bool> hit(rows_, false);
  for (std::size_t c = 0; c < cols_; ++c) {
    std::size_t found = rows_;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double mag = std::abs((*this)(r, c));
      if (mag > tol) {
        if (found != rows_) return false;          // second nonzero in column
        if (std::abs(mag - 1.0) > tol) return false;  // not unit modulus
        found = r;
      }
    }
    if (found == rows_ || hit[found]) return false;
    hit[found] = true;
  }
  return true;
}

std::vector<std::size_t> Matrix::extract_permutation(bool allow_phases,
                                                     double tol) const {
  QSYN_CHECK(allow_phases ? is_permutation_up_to_phases(tol)
                          : is_permutation(tol),
             "matrix is not a permutation matrix");
  std::vector<std::size_t> perm(cols_);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      if (std::abs((*this)(r, c)) > tol) {
        perm[c] = r;
        break;
      }
    }
  }
  return perm;
}

std::string Matrix::to_string(int precision) const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      const Complex v = (*this)(r, c);
      if (c != 0) os << ", ";
      os << v.real();
      if (v.imag() >= 0) os << "+";
      os << v.imag() << "i";
    }
    os << (r + 1 == rows_ ? "]]" : "]\n");
  }
  return os.str();
}

}  // namespace qsyn::la
