// k-fold cross-validation splitting with random indexing (paper Section IV-B:
// "trained and validated using 10-fold cross validation with random
// indexing").
#pragma once

#include <cstdint>
#include <vector>

namespace pwx::stats {

/// One train/validation split.
struct Fold {
  std::vector<std::size_t> train;
  std::vector<std::size_t> validate;
};

/// Partition [0, n) into k folds after a seeded shuffle. Fold sizes differ by
/// at most one; every index appears in exactly one validation set.
std::vector<Fold> k_fold_splits(std::size_t n, std::size_t k, std::uint64_t seed);

}  // namespace pwx::stats
