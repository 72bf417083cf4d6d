#ifndef INDBML_COMMON_CONFIG_H_
#define INDBML_COMMON_CONFIG_H_

#include <cstdint>

namespace indbml {

/// Engine-wide constants chosen to match the paper's evaluation setup (§6.1).

/// Number of values processed per vector / DataChunk. "For all experiments the
/// batch size is equal to the database engine's vector size of 1024."
inline constexpr int kDefaultVectorSize = 1024;

/// Rows per storage block; each block keeps MinMax (zone map) statistics used
/// for block pruning (paper §4.4, Small Materialized Aggregates).
inline constexpr int64_t kRowsPerBlock = 4096;

/// Rows per scheduling morsel of the work-stealing pipeline executor
/// (exec/morsel.h). A multiple of kRowsPerBlock so morsel boundaries stay
/// aligned with zone-map blocks; overridable per engine via
/// QueryEngine::Options::morsel_rows.
inline constexpr int64_t kDefaultMorselRows = 16 * 1024;

}  // namespace indbml

#endif  // INDBML_COMMON_CONFIG_H_
