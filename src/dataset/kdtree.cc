#include "dataset/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ddp {

Result<KdTree> KdTree::Build(const Dataset& dataset, size_t leaf_size) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  std::vector<const double*> rows(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    rows[i] = dataset.point(static_cast<PointId>(i)).data();
  }
  // The row pointers index into the dataset's contiguous storage, which the
  // caller guarantees outlives the tree; the vector itself is moved into it.
  KdTree tree;
  tree.dim_ = dataset.dim();
  tree.rows_ = std::move(rows);
  return tree.FinishBuild(leaf_size);
}

Result<KdTree> KdTree::BuildFromRows(std::span<const double* const> rows,
                                     size_t dim, size_t leaf_size) {
  if (rows.empty()) return Status::InvalidArgument("empty row set");
  if (dim == 0) return Status::InvalidArgument("dim must be >= 1");
  KdTree tree;
  tree.dim_ = dim;
  tree.rows_.assign(rows.begin(), rows.end());
  return tree.FinishBuild(leaf_size);
}

int32_t KdTree::BuildNode(uint32_t begin, uint32_t end, size_t leaf_size) {
  Node node;
  node.begin = begin;
  node.end = end;
  // Bounding box of the position range.
  node.lo.assign(dim_, std::numeric_limits<double>::infinity());
  node.hi.assign(dim_, -std::numeric_limits<double>::infinity());
  for (uint32_t k = begin; k < end; ++k) {
    std::span<const double> p = row(positions_[k]);
    for (size_t d = 0; d < dim_; ++d) {
      node.lo[d] = std::min(node.lo[d], p[d]);
      node.hi[d] = std::max(node.hi[d], p[d]);
    }
  }
  if (end - begin <= leaf_size) {
    nodes_.push_back(std::move(node));
    return static_cast<int32_t>(nodes_.size() - 1);
  }
  // Split the widest dimension at the median.
  uint32_t split_dim = 0;
  double widest = -1.0;
  for (size_t d = 0; d < dim_; ++d) {
    double extent = node.hi[d] - node.lo[d];
    if (extent > widest) {
      widest = extent;
      split_dim = static_cast<uint32_t>(d);
    }
  }
  // Degenerate spread (all coordinates equal): keep as a leaf.
  if (widest <= 0.0) {
    nodes_.push_back(std::move(node));
    return static_cast<int32_t>(nodes_.size() - 1);
  }
  uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(positions_.begin() + begin, positions_.begin() + mid,
                   positions_.begin() + end, [&](PointId a, PointId b) {
                     return row(a)[split_dim] < row(b)[split_dim];
                   });
  int32_t left = BuildNode(begin, mid, leaf_size);
  int32_t right = BuildNode(mid, end, leaf_size);
  node.left = left;
  node.right = right;
  nodes_.push_back(std::move(node));
  return static_cast<int32_t>(nodes_.size() - 1);
}

Result<KdTree> KdTree::FinishBuild(size_t leaf_size) {
  if (leaf_size == 0) return Status::InvalidArgument("leaf_size must be >= 1");
  positions_.resize(rows_.size());
  std::iota(positions_.begin(), positions_.end(), 0);
  nodes_.reserve(2 * rows_.size() / leaf_size + 2);
  root_ = BuildNode(0, static_cast<uint32_t>(rows_.size()), leaf_size);
  return std::move(*this);
}

double KdTree::MinSquaredDistanceToBox(std::span<const double> query,
                                       const Node& node) {
  double s = 0.0;
  for (size_t d = 0; d < query.size(); ++d) {
    double v = query[d];
    if (v < node.lo[d]) {
      double diff = node.lo[d] - v;
      s += diff * diff;
    } else if (v > node.hi[d]) {
      double diff = v - node.hi[d];
      s += diff * diff;
    }
  }
  return s;
}

template <typename Visitor>
void KdTree::Visit(std::span<const double> query, double radius_sq,
                   PointId exclude, const CountingMetric& metric,
                   const Visitor& visit) const {
  uint64_t evals = 0;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (MinSquaredDistanceToBox(query, node) >= radius_sq) continue;
    if (node.is_leaf()) {
      for (uint32_t k = node.begin; k < node.end; ++k) {
        PointId position = positions_[k];
        if (position == exclude) continue;
        // Compare in squared space — the LocalDpEngine convention shared by
        // every pairwise-scan code path, so boundary rounding agrees exactly.
        ++evals;
        double d_sq = SquaredEuclidean(query, row(position));
        if (d_sq < radius_sq) visit(position, d_sq);
      }
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
  metric.AddEvaluations(evals);
}

size_t KdTree::CountWithin(std::span<const double> query, double radius,
                           PointId exclude,
                           const CountingMetric& metric) const {
  size_t count = 0;
  Visit(query, radius * radius, exclude, metric,
        [&](PointId, double) { ++count; });
  return count;
}

std::vector<PointId> KdTree::FindWithin(std::span<const double> query,
                                        double radius, PointId exclude,
                                        const CountingMetric& metric) const {
  std::vector<PointId> out;
  Visit(query, radius * radius, exclude, metric,
        [&](PointId position, double) { out.push_back(position); });
  return out;
}

void KdTree::FindWithinSq(std::span<const double> query, double radius_sq,
                          PointId exclude, const CountingMetric& metric,
                          std::vector<std::pair<PointId, double>>* out) const {
  Visit(query, radius_sq, exclude, metric, [&](PointId position, double d_sq) {
    out->push_back({position, d_sq});
  });
}

KdTree::Nearest KdTree::FindNearestAccepted(
    std::span<const double> query, const CountingMetric& metric,
    std::span<const PointId> tie_ids,
    const std::function<bool(PointId)>& accept_fn, Nearest seed) const {
  Nearest best = seed;
  bool improved = false;
  uint64_t evals = 0;
  // Depth-first with nearer-child-first ordering; strict pruning
  // (min_box_sq > best_sq) keeps equal-distance boxes alive so the
  // (d^2, tie_id) lexicographic minimum matches a full scan exactly.
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (MinSquaredDistanceToBox(query, node) > best.distance_sq) continue;
    if (node.is_leaf()) {
      for (uint32_t k = node.begin; k < node.end; ++k) {
        PointId position = positions_[k];
        if (!accept_fn(position)) continue;
        ++evals;
        double d_sq = SquaredEuclidean(query, row(position));
        if (d_sq < best.distance_sq ||
            (d_sq == best.distance_sq && tie_ids[position] < best.tie_id)) {
          best.index = position;
          best.distance_sq = d_sq;
          best.tie_id = tie_ids[position];
          improved = true;
        }
      }
      continue;
    }
    // Visit the nearer child first (popped last-in-first-out) to tighten the
    // bound early.
    const Node& left = nodes_[static_cast<size_t>(node.left)];
    const Node& right = nodes_[static_cast<size_t>(node.right)];
    if (MinSquaredDistanceToBox(query, left) <=
        MinSquaredDistanceToBox(query, right)) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  metric.AddEvaluations(evals);
  if (!improved) best.index = kInvalidPointId;
  return best;
}

}  // namespace ddp
