// Dynamic-dimensionality float vector: the point type stored in every
// access method in this project. Feature vectors are float (as in the
// original GiST/Blobworld code lineage); accumulations are done in double.

#ifndef BLOBWORLD_GEOM_VEC_H_
#define BLOBWORLD_GEOM_VEC_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.h"

namespace bw::geom {

/// A point in D-dimensional space. Dimensionality is a runtime property
/// (the Blobworld pipeline produces vectors of many different widths:
/// 218-D histograms, 1..20-D SVD projections).
class Vec {
 public:
  Vec() = default;
  explicit Vec(size_t dim, float fill = 0.0f) : coords_(dim, fill) {}
  explicit Vec(std::vector<float> coords) : coords_(std::move(coords)) {}
  Vec(std::initializer_list<float> coords) : coords_(coords) {}

  Vec(const Vec&) = default;
  Vec& operator=(const Vec&) = default;
  Vec(Vec&&) = default;
  Vec& operator=(Vec&&) = default;

  size_t dim() const { return coords_.size(); }
  bool empty() const { return coords_.empty(); }

  float operator[](size_t i) const {
    BW_DCHECK_LT(i, coords_.size());
    return coords_[i];
  }
  float& operator[](size_t i) {
    BW_DCHECK_LT(i, coords_.size());
    return coords_[i];
  }

  const float* data() const { return coords_.data(); }
  float* data() { return coords_.data(); }
  const std::vector<float>& coords() const { return coords_; }

  /// Squared Euclidean distance to another point of the same dimension.
  double DistanceSquaredTo(const Vec& other) const {
    BW_DCHECK_EQ(dim(), other.dim());
    double acc = 0.0;
    for (size_t i = 0; i < coords_.size(); ++i) {
      double d = static_cast<double>(coords_[i]) - other.coords_[i];
      acc += d * d;
    }
    return acc;
  }

  /// Euclidean distance to another point.
  double DistanceTo(const Vec& other) const {
    return std::sqrt(DistanceSquaredTo(other));
  }

  /// Euclidean norm.
  double Norm() const {
    double acc = 0.0;
    for (float c : coords_) acc += static_cast<double>(c) * c;
    return std::sqrt(acc);
  }

  /// Sum of all coordinates (used for histogram mass checks).
  double Sum() const {
    double acc = 0.0;
    for (float c : coords_) acc += c;
    return acc;
  }

  /// True when no coordinate is NaN or infinite. Distances to a point
  /// that is not finite are NaN or infinite, so the serving boundary
  /// rejects such points.
  bool IsFinite() const {
    for (float c : coords_) {
      if (!std::isfinite(c)) return false;
    }
    return true;
  }

  /// Returns the first `k` coordinates as a new vector (SVD truncation).
  Vec Truncated(size_t k) const {
    BW_DCHECK_LE(k, dim());
    return Vec(std::vector<float>(coords_.begin(), coords_.begin() + k));
  }

  bool operator==(const Vec& other) const { return coords_ == other.coords_; }

  Vec& operator+=(const Vec& other) {
    BW_DCHECK_EQ(dim(), other.dim());
    for (size_t i = 0; i < coords_.size(); ++i) coords_[i] += other.coords_[i];
    return *this;
  }
  Vec& operator-=(const Vec& other) {
    BW_DCHECK_EQ(dim(), other.dim());
    for (size_t i = 0; i < coords_.size(); ++i) coords_[i] -= other.coords_[i];
    return *this;
  }
  Vec& operator*=(float s) {
    for (float& c : coords_) c *= s;
    return *this;
  }

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(Vec a, float s) { return a *= s; }

  /// "(x0, x1, ...)" for debugging output.
  std::string ToString() const;

 private:
  std::vector<float> coords_;
};

}  // namespace bw::geom

#endif  // BLOBWORLD_GEOM_VEC_H_
