#include "stats/kfold.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace pwx::stats {

namespace {

// The validate sets partition [0, n), so each fold's train set is the sorted
// complement of its (sorted) validate set: one linear skip pass instead of
// concatenating the other k-1 validate sets and re-sorting.
void fill_train_as_complement(Fold& fold, std::size_t n) {
  fold.train.clear();
  fold.train.reserve(n - fold.validate.size());
  std::size_t next_skip = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (next_skip < fold.validate.size() && fold.validate[next_skip] == i) {
      ++next_skip;
      continue;
    }
    fold.train.push_back(i);
  }
}

}  // namespace

std::vector<Fold> k_fold_splits(std::size_t n, std::size_t k, std::uint64_t seed) {
  static obs::Counter& c_splits =
      obs::registry().counter("kfold.splits", "k-fold split computations");
  c_splits.add(1);
  PWX_REQUIRE(k >= 2 && k <= n, "k-fold needs 2 <= k <= n, got k=", k, " n=", n);
  Rng rng(seed);
  const std::vector<std::size_t> perm = rng.permutation(n);

  std::vector<Fold> folds(k);
  // Assign shuffled indices round-robin so fold sizes differ by at most one.
  for (std::size_t i = 0; i < n; ++i) {
    folds[i % k].validate.push_back(perm[i]);
  }
  for (std::size_t f = 0; f < k; ++f) {
    std::sort(folds[f].validate.begin(), folds[f].validate.end());
    fill_train_as_complement(folds[f], n);
  }
  return folds;
}

}  // namespace pwx::stats
