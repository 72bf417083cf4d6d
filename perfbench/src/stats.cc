#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailRule(std::vector<double> values) {
  Tail tail;
  const int64_t n = static_cast<int64_t>(values.size());
  tail.samples = n;
  if (n <= kTailBeyond) return tail;
  std::sort(values.begin(), values.end());
  const int64_t rank =  // 1-based
      std::min(n - kTailBeyond,
               static_cast<int64_t>(static_cast<double>(n) * kTailMaxPercentile / 100.0));
  tail.defined = true;
  tail.value = values[static_cast<size_t>(rank - 1)];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.blocks = 1;
  return tail;
}

Tail TailOf(const std::vector<double>& samples) {
  if (static_cast<int64_t>(samples.size()) < 2 * kTailBlock) return TailRule(samples);
  Tail tail;
  std::vector<double> block_tails;
  for (size_t end = kTailBlock; end <= samples.size(); end += kTailBlock) {
    tail = TailRule(std::vector<double>(samples.begin() + (end - kTailBlock),
                                        samples.begin() + end));
    block_tails.push_back(tail.value);
  }
  tail.value = Median(block_tails);
  tail.blocks = static_cast<int64_t>(block_tails.size());
  return tail;
}

}  // namespace perfbench
