// k-nearest-neighbours (WEKA's IBk) over standardized Euclidean distance.
// Lazy learner: training stores the data plus an exact KD-tree index, so
// prediction is sublinear on big stores instead of a full linear scan.
// The tree is IBk's one scoring path for a finite query against a finite
// store of any size (a small store is a single leaf). It is exact, not an
// approximation: each leaf is screened with an exact-integer lower bound
// on an int16 grid, the survivors are scanned in doubles, and every
// prediction (ties included) is bit-identical to a plain scan of the
// store in order. That plain scan is kept only for a non-finite query or
// a store holding a non-finite value, where box bounds and the grid
// cannot order the distances.
#pragma once

#include <cstdint>
#include <utility>

#include "ml/classifier.hpp"
#include "ml/preprocess.hpp"

namespace hmd::ml {

class Knn final : public Classifier {
 public:
  explicit Knn(std::size_t k = 5) : requested_k_(k) {}

  /// Stores the standardized rows and builds the index. k is clamped to
  /// the store size (a heap over n points never holds more than n, so the
  /// distributions are unchanged); retraining starts again from the k
  /// given to the constructor.
  void train(const DatasetView& data) override;
  std::size_t predict(std::span<const double> features) const override;
  std::vector<double> distribution(
      std::span<const double> features) const override;
  /// Buffer-reusing batch path: one scratch block (standardized row,
  /// quantized query, heaps, candidate list, traversal stack) reused
  /// across the whole chunk.
  void distribution_batch(std::span<const double> flat,
                          std::size_t window_size,
                          std::span<double> out) const override;
  std::string name() const override { return "IBk"; }
  std::size_t num_classes() const override { return num_classes_; }

  /// Whether the KD-tree index was built: false only for a store holding
  /// a non-finite value, which every query scores by the plain scan.
  bool has_index() const { return !nodes_.empty(); }

 private:
  friend struct ModelIo;
  /// (distance², label) — heap entries for the k-closest scan.
  using Entry = std::pair<double, std::size_t>;

  /// KD-tree node over positions [begin, end) of the permuted store.
  /// left == 0 marks a leaf (node 0 is the root, so 0 is never a child).
  struct KdNode {
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t qoff = 0;  ///< leaf: offset of its int16 block in qtree_
  };

  /// Per-query scratch reused across batch rows.
  struct Scratch {
    std::vector<double> x;           ///< standardized query
    std::vector<std::int16_t> qx;    ///< quantized query
    std::vector<Entry> heap;         ///< exact k-closest (d2, label) heap
    std::vector<double> dheap;       ///< traversal pure-d2 k-smallest heap
    std::vector<Entry> cand;         ///< (d2, original index) candidates
    /// Near-child-first DFS stack of (box bound, node id).
    std::vector<std::pair<double, std::uint32_t>> frontier;
    /// Batch processing order (locality-sorted row indices).
    std::vector<std::uint32_t> order;
  };

  std::size_t dim() const { return standardizer_.means().size(); }
  void score_into(std::span<const double> x, Scratch& s,
                  std::span<double> dist) const;
  void score_scan(std::span<const double> x, Scratch& s) const;
  void score_indexed(std::span<const double> x, Scratch& s) const;
  /// Quantizes a query onto the training grid; returns the rigorous
  /// reconstruction-error norm used by the integer screen threshold.
  double quantize_query(std::span<const double> x,
                        std::vector<std::int16_t>& qx) const;
  /// Rebuilds the KD-tree index and its leaf screen blocks from points_
  /// (train and model load).
  void build_index();

  std::size_t requested_k_;  ///< the constructor's k
  std::size_t k_ = 0;        ///< k in use: requested_k_ clamped to the store
  std::size_t num_classes_ = 0;
  Standardizer standardizer_;
  /// Standardized training points, row-major n x dim() (contiguous so the
  /// distance scan streams memory).
  std::vector<double> points_;
  std::vector<std::size_t> labels_;

  // --- KD-tree index (exact; see score_indexed) --------------------------
  std::vector<KdNode> nodes_;        ///< nodes_[0] is the root
  std::vector<double> box_lo_;       ///< per-node bounding box, nodes x dim
  std::vector<double> box_hi_;
  std::vector<std::uint32_t> perm_;  ///< tree position -> original index
  /// points_ rows permuted into tree order, so leaf scans are contiguous.
  std::vector<double> tree_points_;
  /// One int16 screen block per leaf: the leaf's rows quantized onto the
  /// store's grid in the dim-pair-interleaved screen layout
  /// (kernels::screen_block_index), 4x fewer bytes than the double rows.
  /// The leaf scan is memory-bound, so most rows are rejected from this
  /// mirror via an exact-integer lower bound on their distance; only rows
  /// the bound cannot rule out touch tree_points_. Empty past 128
  /// dimensions, or when the stored values span more than a double can
  /// hold; the leaves are then scanned in doubles alone.
  std::vector<std::int16_t> qtree_;
  double qlo_ = 0.0;     ///< value mapped to grid index 0 (stored -qspan_/2)
  double qscale_ = 1.0;  ///< quantization step
  /// Even grid span: indices run [0, qspan_], stored centred at
  /// qspan_/2. The finest span with dim * qspan_² <= INT32_MAX (exact
  /// screen sums) and int16 diffs — 4094 at 128 dims, finer below.
  std::int64_t qspan_ = 4094;
};

}  // namespace hmd::ml
