#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr int64_t kTailBeyond = 10;
/// Highest tail percentile reported. Above it, a 25-second run on a shared
/// host measures the host's stalls rather than the program.
inline constexpr double kTailMaxPercentile = 99.0;
/// Samples per block of the blocked tail (see TailOf).
inline constexpr int64_t kTailBlock = 1000;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// Latency at the highest percentile, up to kTailMaxPercentile, that leaves
/// at least kTailBeyond samples beyond it.
struct Tail {
  bool defined = false;   ///< false when a block has <= kTailBeyond values
  double value = 0;
  double percentile = 0;  ///< share of a block's samples <= value, in percent
  int64_t samples = 0;    ///< samples per block
  int64_t blocks = 0;     ///< blocks the value is the median over
};

/// The tail rule over one block: with n samples sorted ascending, the value
/// at rank min(n - kTailBeyond, floor(n * kTailMaxPercentile / 100))
/// (1-based); its percentile is 100 * rank / n.
Tail TailRule(std::vector<double> values);

/// Tail of samples in completion order. Up to 2 * kTailBlock samples form
/// one block. Larger samples are cut into consecutive blocks of kTailBlock
/// (a partial last block is dropped) and the tail is the median of the
/// blocks' TailRule values, so a few seconds of host stalls move a few
/// blocks, not the result.
Tail TailOf(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
