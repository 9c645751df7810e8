#ifndef HATT_IO_SERIALIZE_HPP
#define HATT_IO_SERIALIZE_HPP

/**
 * @file
 * Versioned JSON round-trip formats for the library's core artifacts:
 *
 *  - TernaryTree        ("hatt-tree", v1): internal nodes in creation
 *    order with qubit index and child node ids — reconstruction replays
 *    addInternal() so node ids round-trip exactly;
 *  - FermionQubitMapping ("hatt-mapping", v1): 2N Majorana Pauli terms
 *    with bit-exact coefficients;
 *  - PauliSum            ("hatt-pauli-sum", v1).
 *
 * Every document carries {"format": ..., "version": n}; loaders reject
 * unknown formats and newer-than-supported versions up front, so older
 * binaries fail loudly instead of misreading future files.
 *
 * The xxxToJson() builders return a JsonValue document; the writeXxxJson()
 * encoders stream the same bytes straight from the object through a
 * JsonWriter, with no intermediate document. Artifacts and cache entries
 * use the streaming encoders; the builders are their reference.
 *
 * majoranaContentHash() fingerprints a Hamiltonian (splitmix64 chained
 * over the canonical, sorted Majorana terms with bit-pattern-exact
 * coefficients); the mapping cache keys on it.
 */

#include <cstdint>
#include <functional>
#include <string>

#include "common/json_writer.hpp"
#include "fermion/majorana.hpp"
#include "io/json.hpp"
#include "mapping/mapping.hpp"
#include "pauli/pauli_sum.hpp"
#include "tree/ternary_tree.hpp"

namespace hatt::io {

JsonValue treeToJson(const TernaryTree &tree);
TernaryTree treeFromJson(const JsonValue &doc);

JsonValue mappingToJson(const FermionQubitMapping &map);
FermionQubitMapping mappingFromJson(const JsonValue &doc);

JsonValue pauliSumToJson(const PauliSum &sum);
PauliSum pauliSumFromJson(const JsonValue &doc);

/** Stream treeToJson(tree) through @p w. */
void writeTreeJson(JsonWriter &w, const TernaryTree &tree);
/** Stream mappingToJson(map) through @p w. */
void writeMappingJson(JsonWriter &w, const FermionQubitMapping &map);
/** Stream pauliSumToJson(sum) through @p w. */
void writePauliSumJson(JsonWriter &w, const PauliSum &sum);

/**
 * Order-independent content hash of the canonical Majorana form:
 * terms are sorted by index list, each term contributes its indices and
 * the raw IEEE bit patterns of its coefficient through a chained
 * splitmix64 mix. Equal Hamiltonians (up to term order) hash equally.
 */
uint64_t majoranaContentHash(const MajoranaPolynomial &poly);

/** Render a hash as fixed-width lowercase hex (cache file names). */
std::string hashToHex(uint64_t hash);

/** A writer-unique temp name beside @p path: <path>.tmp.<pid>.<n>. */
std::string tmpPathFor(const std::string &path);

/**
 * Publish the pretty-printed document @p body writes at @p path
 * atomically: stream it into tmpPathFor(path), then rename that over
 * @p path, so readers see the old file or the whole new one, never a
 * torn one. There is no fsync: artifacts are outputs, not the durable
 * store. On any failure the temp file is removed and @p path is left as
 * it was. Fault point `emit.write`: throw fails before the temp file is
 * created, fail after it is written but before the rename.
 * @throws ParseError
 */
void publishJsonFile(const std::string &path,
                     const std::function<void(JsonWriter &)> &body);

/** Publish @p doc pretty-printed at @p path (see publishJsonFile). */
void saveJsonFile(const std::string &path, const JsonValue &doc);

/**
 * Parse the JSON document at @p path. @throws ParseError — including
 * when the file exceeds @p max_bytes (0 = unlimited), checked before
 * the file is slurped so a hostile path cannot force an unbounded
 * allocation. The default ceiling is far above any legitimate artifact.
 */
JsonValue loadJsonFile(const std::string &path,
                       uint64_t max_bytes = 1ull << 28);

/**
 * Check a document's {"format", "version"} envelope.
 * @throws ParseError when the format differs or the version is newer
 * than @p max_version. @return the document's version.
 */
int checkEnvelope(const JsonValue &doc, const std::string &format,
                  int max_version);

} // namespace hatt::io

#endif // HATT_IO_SERIALIZE_HPP
