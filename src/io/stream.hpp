#ifndef HATT_IO_STREAM_HPP
#define HATT_IO_STREAM_HPP

/**
 * @file
 * The preprocessor name e2ebench/probe.cpp spells. Streaming Majorana
 * preprocessing is StreamingMajoranaAccumulator (fermion/majorana.hpp):
 * the file loaders fold each term into it as it is read, and
 * MajoranaPolynomial::fromFermion runs the same kernel and dedup table,
 * so streamed and batch polynomials are bit-identical by construction.
 */

#include "fermion/majorana.hpp"

namespace hatt::io {

/** The former multi-worker preprocessor's name, kept as an alias
    because e2ebench/probe.cpp still spells it. */
using ShardedMajoranaPreprocessor = StreamingMajoranaAccumulator;

} // namespace hatt::io

#endif // HATT_IO_STREAM_HPP
