#include "index/bounding_box.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace tkdc {

BoundingBox::BoundingBox(size_t dims)
    : min_(dims, std::numeric_limits<double>::infinity()),
      max_(dims, -std::numeric_limits<double>::infinity()) {
  TKDC_CHECK(dims >= 1);
}

BoundingBox BoundingBox::FromPoints(const double* points, size_t dims,
                                    size_t begin, size_t end) {
  TKDC_CHECK(begin < end);
  BoundingBox box(dims);
  for (size_t i = begin; i < end; ++i) {
    box.Extend({points + i * dims, dims});
  }
  return box;
}

void BoundingBox::Extend(std::span<const double> point) {
  TKDC_DCHECK(point.size() == dims());
  for (size_t j = 0; j < point.size(); ++j) {
    min_[j] = std::min(min_[j], point[j]);
    max_[j] = std::max(max_[j], point[j]);
  }
}

bool BoundingBox::Contains(std::span<const double> point) const {
  TKDC_DCHECK(point.size() == dims());
  for (size_t j = 0; j < point.size(); ++j) {
    if (point[j] < min_[j] || point[j] > max_[j]) return false;
  }
  return true;
}

double BoundingBox::MinScaledSquaredDistance(
    std::span<const double> x, std::span<const double> inv_bw) const {
  TKDC_DCHECK(x.size() == dims());
  double z = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    double gap = 0.0;
    if (x[j] < min_[j]) {
      gap = min_[j] - x[j];
    } else if (x[j] > max_[j]) {
      gap = x[j] - max_[j];
    }
    const double u = gap * inv_bw[j];
    z += u * u;
  }
  return z;
}

double BoundingBox::MaxScaledSquaredDistance(
    std::span<const double> x, std::span<const double> inv_bw) const {
  TKDC_DCHECK(x.size() == dims());
  double z = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    const double gap = std::max(x[j] - min_[j], max_[j] - x[j]);
    const double u = gap * inv_bw[j];
    z += u * u;
  }
  return z;
}

size_t BoundingBox::WidestAxis() const {
  size_t best = 0;
  double best_extent = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < dims(); ++j) {
    const double extent = Extent(j);
    if (extent > best_extent) {
      best_extent = extent;
      best = j;
    }
  }
  return best;
}

}  // namespace tkdc
