#include "index/ball_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace tkdc {

BallTree::BallTree(const Dataset& data, IndexOptions options)
    : SpatialIndex(data, std::move(options)) {
  ResolveScale();
  BuildTree();
  // Per-node geometry arrives out of order (SetNodeGeometry resizes as the
  // build discovers nodes); the counts must agree once the build is done.
  TKDC_CHECK(centroids_.size() == nodes_.size() * dims_);
  TKDC_CHECK(radii_.size() == nodes_.size());
  TKDC_CHECK(radii_min_.size() == nodes_.size());
}

BallTree::BallTree(size_t dims, std::vector<double> reordered_points,
                   std::vector<size_t> original_index,
                   std::vector<IndexNode> nodes, std::vector<double> centroids,
                   std::vector<double> radii, std::vector<double> radii_min,
                   std::vector<double> scale, IndexOptions options)
    : SpatialIndex(dims, std::move(reordered_points),
                   std::move(original_index), std::move(nodes),
                   std::move(options)),
      centroids_(std::move(centroids)),
      radii_(std::move(radii)),
      radii_min_(std::move(radii_min)) {
  options_.scale = std::move(scale);
  ResolveScale();
  TKDC_CHECK(centroids_.size() == nodes_.size() * dims_);
  TKDC_CHECK(radii_.size() == nodes_.size());
  TKDC_CHECK(radii_min_.size() == nodes_.size());
}

void BallTree::ResolveScale() {
  scale_ = options_.scale;
  if (scale_.empty()) scale_.assign(dims_, 1.0);
  TKDC_CHECK_MSG(scale_.size() == dims_, "index scale must match dims");
  inv_scale_.resize(dims_);
  for (size_t j = 0; j < dims_; ++j) {
    TKDC_CHECK_MSG(scale_[j] > 0.0, "index scale must be positive");
    inv_scale_[j] = 1.0 / scale_[j];
  }
}

void BallTree::SetNodeGeometry(size_t node_index, const BoundingBox& box) {
  (void)box;  // The ball geometry comes from the points, not the box.
  if (radii_.size() <= node_index) {
    radii_.resize(node_index + 1, 0.0);
    radii_min_.resize(node_index + 1, 0.0);
    centroids_.resize((node_index + 1) * dims_, 0.0);
  }
  const IndexNode& node = nodes_[node_index];
  double* centroid = centroids_.data() + node_index * dims_;
  std::fill(centroid, centroid + dims_, 0.0);
  const double inv_count = 1.0 / static_cast<double>(node.count());
  for (size_t i = node.begin; i < node.end; ++i) {
    const double* p = points_.data() + i * dims_;
    for (size_t j = 0; j < dims_; ++j) centroid[j] += p[j];
  }
  for (size_t j = 0; j < dims_; ++j) centroid[j] *= inv_count;

  double max_sq = 0.0;
  double min_sq = std::numeric_limits<double>::infinity();
  for (size_t i = node.begin; i < node.end; ++i) {
    const double* p = points_.data() + i * dims_;
    double z = 0.0;
    for (size_t j = 0; j < dims_; ++j) {
      const double u = (p[j] - centroid[j]) * scale_[j];
      z += u * u;
    }
    max_sq = std::max(max_sq, z);
    min_sq = std::min(min_sq, z);
  }
  radii_[node_index] = std::sqrt(max_sq);
  radii_min_[node_index] = std::sqrt(min_sq);
}

size_t BallTree::PartitionNode(size_t node_index, size_t depth,
                               const BoundingBox& box,
                               std::vector<double>& scratch,
                               uint8_t* split_axis) {
  (void)depth;
  (void)box;
  const IndexNode& node = nodes_[node_index];
  const size_t count = node.count();
  auto dist_sq = [&](const double* p, const double* q) {
    double z = 0.0;
    for (size_t j = 0; j < dims_; ++j) {
      const double u = (p[j] - q[j]) * scale_[j];
      z += u * u;
    }
    return z;
  };

  // SetNodeGeometry ran before the split, so this node's centroid is
  // final. Pivot A: the point farthest from it.
  const double* centroid = centroids_.data() + node_index * dims_;
  size_t a_row = node.begin;
  double farthest = -1.0;
  for (size_t i = node.begin; i < node.end; ++i) {
    const double z = dist_sq(points_.data() + i * dims_, centroid);
    if (z > farthest) {
      farthest = z;
      a_row = i;
    }
  }
  if (farthest <= 0.0) return node.begin;  // All points identical.

  // Pivot B: the point farthest from A. The pivots are copied out because
  // the partition below moves rows.
  const std::vector<double> a(Point(a_row).begin(), Point(a_row).end());
  size_t b_row = node.begin;
  farthest = -1.0;
  for (size_t i = node.begin; i < node.end; ++i) {
    const double z = dist_sq(points_.data() + i * dims_, a.data());
    if (z > farthest) {
      farthest = z;
      b_row = i;
    }
  }
  const std::vector<double> b(Point(b_row).begin(), Point(b_row).end());

  // Split along the A -> B direction with the configured split-position
  // rule: the same median/midpoint rules as the k-d tree, but applied to
  // the projection onto the direction the points actually spread, so the
  // children stay as balanced as an axis split while shrinking along the
  // cloud's principal extent. The projection weight folds the build metric
  // in once: proj_i = sum_j p_ij * scale_j^2 * (B_j - A_j).
  std::vector<double> w(dims_);
  for (size_t j = 0; j < dims_; ++j) {
    w[j] = (b[j] - a[j]) * scale_[j] * scale_[j];
  }
  scratch.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const double* p = points_.data() + (node.begin + i) * dims_;
    double proj = 0.0;
    for (size_t j = 0; j < dims_; ++j) proj += p[j] * w[j];
    scratch[i] = proj;
  }
  // A and B project to opposite ends (proj(B) - proj(A) = distSq(A, B) in
  // the build metric, which is > 0 here), so the projection spread is
  // never degenerate; the fallbacks mirror the k-d path for numeric edge
  // cases. The split-position rule gets a copy because the partition needs
  // scratch to stay parallel to the rows it swaps.
  std::vector<double> proj(scratch.begin(), scratch.begin() + count);
  double split = ComputeSplitPosition(options_.split_rule, proj.data(), count);
  auto partition_rows = [&](double pivot) {
    size_t left = node.begin;
    size_t right = node.end;
    while (left < right) {
      if (scratch[left - node.begin] < pivot) {
        ++left;
      } else {
        --right;
        SwapPoints(left, right);
        std::swap(scratch[left - node.begin], scratch[right - node.begin]);
      }
    }
    return left;
  };
  size_t mid = partition_rows(split);
  if (mid == node.begin || mid == node.end) {
    const size_t median_rank = count / 2;
    std::nth_element(proj.begin(), proj.begin() + median_rank, proj.end());
    split = proj[median_rank];
    mid = partition_rows(split);
    if (mid == node.begin) {
      mid = partition_rows(std::nextafter(
          split, std::numeric_limits<double>::infinity()));
    }
  }
  *split_axis = 0;  // No split plane; the serialized field stays valid.
  return mid;
}

void BallTree::CentroidDistanceAndRadii(size_t node_index,
                                        std::span<const double> x,
                                        std::span<const double> inv_bw,
                                        double* dc, double* radius_hi,
                                        double* radius_lo) const {
  const double* centroid = centroids_.data() + node_index * dims_;
  double dist_sq = 0.0;
  double factor_hi = 0.0;
  double factor_lo = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < dims_; ++j) {
    const double u = (x[j] - centroid[j]) * inv_bw[j];
    dist_sq += u * u;
    const double f = inv_bw[j] * inv_scale_[j];
    factor_hi = std::max(factor_hi, f);
    factor_lo = std::min(factor_lo, f);
  }
  *dc = std::sqrt(dist_sq);
  *radius_hi = radii_[node_index] * factor_hi;
  *radius_lo = radii_min_[node_index] * factor_lo;
}

double BallTree::NodeMinScaledSquaredDistance(
    size_t node_index, std::span<const double> x,
    std::span<const double> inv_bw) const {
  double dc = 0.0, r_hi = 0.0, r_lo = 0.0;
  CentroidDistanceAndRadii(node_index, x, inv_bw, &dc, &r_hi, &r_lo);
  const double lo = std::max({0.0, dc - r_hi, r_lo - dc});
  return lo * lo;
}

void BallTree::NodeScaledSquaredDistanceBounds(size_t node_index,
                                               std::span<const double> x,
                                               std::span<const double> inv_bw,
                                               double* z_min,
                                               double* z_max) const {
  double dc = 0.0, r_hi = 0.0, r_lo = 0.0;
  CentroidDistanceAndRadii(node_index, x, inv_bw, &dc, &r_hi, &r_lo);
  const double lo = std::max({0.0, dc - r_hi, r_lo - dc});
  const double hi = dc + r_hi;
  *z_min = lo * lo;
  *z_max = hi * hi;
}

void BallTree::NodeChildrenScaledSquaredDistanceBounds(
    size_t node_index, std::span<const double> x,
    std::span<const double> inv_bw, double out[4]) const {
  const IndexNode& node = nodes_[node_index];
  const size_t left = static_cast<size_t>(node.left);
  const size_t right = static_cast<size_t>(node.right);
  double dist_sq[2] = {0.0, 0.0};
  double factor_hi = 0.0;
  double factor_lo = 0.0;
  simd::CentroidPairScaledSquaredDistances(
      centroids_.data() + left * dims_, centroids_.data() + right * dims_,
      x.data(), inv_bw.data(), inv_scale_.data(), dims_, dist_sq, &factor_hi,
      &factor_lo);
  for (int c = 0; c < 2; ++c) {
    const size_t child = c == 0 ? left : right;
    const double dc = std::sqrt(dist_sq[c]);
    const double r_hi = radii_[child] * factor_hi;
    const double r_lo = radii_min_[child] * factor_lo;
    const double lo = std::max({0.0, dc - r_hi, r_lo - dc});
    const double hi = dc + r_hi;
    out[2 * c] = lo * lo;
    out[2 * c + 1] = hi * hi;
  }
}

}  // namespace tkdc
