// Deterministic random number generation (xoshiro256** seeded via SplitMix64).
//
// Every stochastic component in the library takes an explicit seed or an Rng
// so that experiments are reproducible run-to-run.
#ifndef AUTOCTS_COMMON_RANDOM_H_
#define AUTOCTS_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

namespace autocts {

// The complete mutable state of an Rng: the four xoshiro256** words plus
// the Box-Muller spare. Serializing it (see core/search_checkpoint.h)
// allows a generator to be resumed bit-identically across process restarts.
struct RngState {
  uint64_t words[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

// Deterministic pseudo-random generator. Not thread-safe; use one per thread.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Snapshot / restore of the full generator state; a restored generator
  // produces the exact draw sequence the snapshotted one would have.
  RngState GetState() const;
  void SetState(const RngState& state);

  // Returns the next raw 64-bit value.
  uint64_t Next();

  // Uniform double in [0, 1).
  double Uniform();
  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);
  // Standard normal via Box-Muller.
  double Normal();
  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);
  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);
  // Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  // Fisher-Yates shuffle of `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (int64_t i = static_cast<int64_t>(values->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*values)[i], (*values)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace autocts

#endif  // AUTOCTS_COMMON_RANDOM_H_
