// Spliterator characteristics flags (mirrors java.util.Spliterator).
//
// Characteristics let the pipeline evaluator pick strategies: SIZED sources
// can be partitioned by exact size, SUBSIZED guarantees splits stay sized,
// and the POWER2 extension — introduced by the paper — marks sources whose
// element count is a power of two, the admission condition for PowerList
// functions. INTERLEAVED marks sources whose splits stride through the
// same memory (zip), which changes the cheapest split grain.
#pragma once

#include <cstdint>

namespace pls::streams {

using Characteristics = std::uint32_t;

/// Encounter order is defined and meaningful.
inline constexpr Characteristics kOrdered = 0x0001;
/// All elements are distinct.
inline constexpr Characteristics kDistinct = 0x0002;
/// Elements appear in sorted order.
inline constexpr Characteristics kSorted = 0x0004;
/// estimate_size() is the exact element count.
inline constexpr Characteristics kSized = 0x0008;
/// The source cannot be structurally modified during traversal.
inline constexpr Characteristics kImmutable = 0x0010;
/// Splits of a SIZED spliterator are themselves SIZED.
inline constexpr Characteristics kSubsized = 0x0020;
/// Extension (Section IV-A of the paper): the element count is a power of
/// two, so tie/zip decompositions are well defined all the way down.
inline constexpr Characteristics kPower2 = 0x0100;
/// Extension: split products interleave — siblings share every cache line
/// of the source (the PowerList zip split). The planner gives such
/// sources one leaf per worker instead of the Java-style n/(4P) grain,
/// because each extra leaf streams the whole source's lines again.
inline constexpr Characteristics kInterleaved = 0x0200;

inline constexpr bool has_characteristics(Characteristics set,
                                          Characteristics wanted) {
  return (set & wanted) == wanted;
}

}  // namespace pls::streams
