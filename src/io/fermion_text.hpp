#ifndef HATT_IO_FERMION_TEXT_HPP
#define HATT_IO_FERMION_TEXT_HPP

/**
 * @file
 * OpenFermion-style fermion-operator text format (".ops"), the interchange
 * format `hattc` and the examples consume. One term per line:
 *
 *     # H2 sto3g (comment)
 *     modes 4                  # optional; otherwise inferred
 *     0.713753 []              # constant (identity) term
 *     -1.252477 [0^ 0]
 *     (0.5+0.25j) [1^ 2^ 1 2]  # complex coefficient, OpenFermion style
 *     0.482500 [1^ 1] +        # a trailing '+' continuation is allowed
 *
 * `p^` is the creation operator a†_p, bare `p` the annihilation operator
 * a_p; operators apply right-to-left as in the rest of the library.
 *
 * The reader is streaming: terms are handed to a callback one at a time,
 * so arbitrarily large Hamiltonians are never materialized as a term
 * list (see StreamingMajoranaAccumulator in fermion/majorana.hpp for
 * the matching Majorana accumulator).
 */

#include <cstdint>
#include <functional>
#include <istream>
#include <string>

#include "fermion/fermion_op.hpp"
#include "io/json.hpp"
#include "io/limits.hpp"

namespace hatt::io {

/** Summary returned by the streaming reader after a full pass. */
struct FermionTextInfo
{
    uint32_t numModes = 0;   //!< declared via `modes N`, else max mode + 1
    bool declaredModes = false;
    size_t numTerms = 0;     //!< terms handed to the callback
};

/** Receives each parsed term; return false to stop reading early. */
using FermionTermCallback = std::function<bool(FermionTerm &&)>;

/**
 * Stream-parse fermion-operator text, invoking @p callback per term.
 * @throws ParseError on malformed input (bad coefficient, unterminated
 * bracket, non-numeric or out-of-range mode index, garbage after a
 * term) and on any @p limits cap being exceeded (over-long line, too
 * many terms, too many modes) — each with the offending line number.
 */
FermionTextInfo streamFermionText(std::istream &in,
                                  const FermionTermCallback &callback,
                                  const ParseLimits &limits = {});

/** Parse a whole document into a FermionHamiltonian. */
FermionHamiltonian parseFermionText(std::istream &in);

/** Load a file (throws ParseError, with the path, when unreadable). */
FermionHamiltonian loadFermionTextFile(const std::string &path);

/** Write @p hf in the .ops format (with a `modes N` header). */
void writeFermionText(std::ostream &out, const FermionHamiltonian &hf,
                      const std::string &comment = "");

} // namespace hatt::io

#endif // HATT_IO_FERMION_TEXT_HPP
