// Seeded per-call randomness without a shared generator: the splitmix64
// step and its mapping to a uniform double. Market calls draw backoff
// jitter from it, and federation endpoints derive their sub-seeds from it.
#ifndef PAYLESS_COMMON_SNAPSHOT_H_
#define PAYLESS_COMMON_SNAPSHOT_H_

#include <cstdint>

namespace payless::common {

/// Stateless splitmix64 step — the per-call jitter generator. Feeding the
/// output back in as the next input yields a full-period 64-bit sequence;
/// distinct seeds give statistically independent streams, so every
/// in-flight market call can draw backoff jitter without sharing a mutex.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Maps `x` to a uniform double in [lo, hi).
inline double ToUnitRange(uint64_t x, double lo, double hi) {
  const double unit =
      static_cast<double>(x >> 11) * 0x1.0p-53;  // 53 mantissa bits
  return lo + (hi - lo) * unit;
}

}  // namespace payless::common

#endif  // PAYLESS_COMMON_SNAPSHOT_H_
