#ifndef HATT_IO_STREAM_HPP
#define HATT_IO_STREAM_HPP

/**
 * @file
 * The preprocessor name e2ebench/probe.cpp spells. Streaming Majorana
 * preprocessing is StreamingMajoranaAccumulator (fermion/majorana.hpp):
 * the .ops loader folds each term into it as it is read, the FCIDUMP
 * loader adds closed-form monomials to it, and
 * MajoranaPolynomial::fromFermion runs the same kernel and dedup table,
 * so streamed and batch .ops polynomials are bit-identical by
 * construction.
 */

#include "fermion/majorana.hpp"

namespace hatt::io {

/** The former multi-worker preprocessor's name, kept as an alias
    because e2ebench/probe.cpp still spells it. */
using ShardedMajoranaPreprocessor = StreamingMajoranaAccumulator;

} // namespace hatt::io

#endif // HATT_IO_STREAM_HPP
