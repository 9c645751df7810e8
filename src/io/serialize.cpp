#include "io/serialize.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <numeric>

#include "common/fault.hpp"
#include "mapping/hatt_counts.hpp" // detail::splitmix64

namespace hatt::io {

namespace fs = std::filesystem;

namespace {

constexpr int kTreeVersion = 1;
constexpr int kMappingVersion = 1;
constexpr int kPauliSumVersion = 1;

JsonValue
envelope(const std::string &format, int version)
{
    JsonValue doc = JsonValue::object();
    doc.add("format", format);
    doc.add("version", version);
    return doc;
}

JsonValue
complexToJson(cplx c)
{
    JsonValue v = JsonValue::array();
    v.push(c.real());
    v.push(c.imag());
    return v;
}

cplx
complexFromJson(const JsonValue &v)
{
    if (!v.isArray() || v.size() != 2)
        throw ParseError("coefficient must be a [re, im] pair");
    return {v.at(size_t{0}).asNumber(), v.at(size_t{1}).asNumber()};
}

/** Shared shape of mapping / pauli-sum term lists. */
JsonValue
termToJson(const PauliTerm &term)
{
    JsonValue t = JsonValue::object();
    t.add("coeff", complexToJson(term.coeff));
    t.add("pauli", term.string.toString());
    return t;
}

/** Open the document object with its envelope; the caller closes it. */
void
writeEnvelope(JsonWriter &w, const char *format, int version)
{
    w.beginObject();
    w.key("format");
    w.string(format);
    w.key("version");
    w.number(version);
}

void
writeTermJson(JsonWriter &w, const PauliTerm &term)
{
    w.beginObject();
    w.key("coeff");
    w.beginArray();
    w.number(term.coeff.real());
    w.number(term.coeff.imag());
    w.endArray();
    w.key("pauli");
    term.string.writeLabel(w.stringSlot(term.string.numQubits()));
    w.endObject();
}

PauliTerm
termFromJson(const JsonValue &t, uint32_t num_qubits)
{
    PauliTerm out;
    out.coeff = complexFromJson(t.at("coeff"));
    out.string = PauliString::fromLabel(t.at("pauli").asString());
    if (out.string.numQubits() != num_qubits)
        throw ParseError("pauli label length " +
                         std::to_string(out.string.numQubits()) +
                         " does not match num_qubits " +
                         std::to_string(num_qubits));
    return out;
}

} // namespace

int
checkEnvelope(const JsonValue &doc, const std::string &format,
              int max_version)
{
    if (!doc.isObject())
        throw ParseError("document is not a JSON object");
    const std::string &fmt = doc.at("format").asString();
    if (fmt != format)
        throw ParseError("unexpected format \"" + fmt + "\" (wanted \"" +
                         format + "\")");
    int version = static_cast<int>(doc.at("version").asInt(1, 1 << 20));
    if (version > max_version)
        throw ParseError("unsupported " + format + " version " +
                         std::to_string(version) + " (max supported " +
                         std::to_string(max_version) + ")");
    return version;
}

JsonValue
treeToJson(const TernaryTree &tree)
{
    JsonValue doc = envelope("hatt-tree", kTreeVersion);
    doc.add("num_modes", tree.numModes());
    // Internal nodes in creation (node id) order: replaying addInternal
    // in this order reproduces identical node ids.
    JsonValue internal = JsonValue::array();
    for (size_t id = tree.numLeaves(); id < tree.numNodes(); ++id) {
        const TreeNode &n = tree.node(static_cast<int>(id));
        JsonValue e = JsonValue::array();
        e.push(n.qubit);
        e.push(n.child[BranchX]);
        e.push(n.child[BranchY]);
        e.push(n.child[BranchZ]);
        internal.push(std::move(e));
    }
    doc.add("internal", std::move(internal));
    return doc;
}

void
writeTreeJson(JsonWriter &w, const TernaryTree &tree)
{
    writeEnvelope(w, "hatt-tree", kTreeVersion);
    w.key("num_modes");
    w.number(tree.numModes());
    w.key("internal");
    w.beginArray();
    for (size_t id = tree.numLeaves(); id < tree.numNodes(); ++id) {
        const TreeNode &n = tree.node(static_cast<int>(id));
        w.beginArray();
        w.number(n.qubit);
        w.number(n.child[BranchX]);
        w.number(n.child[BranchY]);
        w.number(n.child[BranchZ]);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

TernaryTree
treeFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-tree", kTreeVersion);
    const uint32_t n =
        static_cast<uint32_t>(doc.at("num_modes").asInt(1, 1 << 24));
    const JsonValue &internal = doc.at("internal");
    if (!internal.isArray() || internal.size() != n)
        throw ParseError("hatt-tree: expected " + std::to_string(n) +
                         " internal nodes");
    TernaryTree tree(n);
    const int max_id = static_cast<int>(3 * n);
    std::vector<bool> qubit_used(n, false);
    for (size_t i = 0; i < n; ++i) {
        const JsonValue &e = internal.at(i);
        if (!e.isArray() || e.size() != 4)
            throw ParseError("hatt-tree: internal node entry must be "
                             "[qubit, x, y, z]");
        int qubit = static_cast<int>(e.at(size_t{0}).asInt(0, n - 1));
        if (qubit_used[static_cast<size_t>(qubit)])
            throw ParseError("hatt-tree: duplicate qubit index " +
                             std::to_string(qubit));
        qubit_used[static_cast<size_t>(qubit)] = true;
        int x = static_cast<int>(e.at(size_t{1}).asInt(0, max_id));
        int y = static_cast<int>(e.at(size_t{2}).asInt(0, max_id));
        int z = static_cast<int>(e.at(size_t{3}).asInt(0, max_id));
        int limit = static_cast<int>(tree.numNodes());
        if (x >= limit || y >= limit || z >= limit)
            throw ParseError("hatt-tree: child id references a node that "
                             "does not exist yet");
        if (x == y || x == z || y == z)
            throw ParseError("hatt-tree: duplicate child ids");
        if (tree.node(x).parent >= 0 || tree.node(y).parent >= 0 ||
            tree.node(z).parent >= 0)
            throw ParseError("hatt-tree: child already has a parent");
        tree.addInternal(qubit, x, y, z);
    }
    if (!tree.isCompleteTree())
        throw ParseError("hatt-tree: nodes do not form a complete tree");
    return tree;
}

JsonValue
mappingToJson(const FermionQubitMapping &map)
{
    JsonValue doc = envelope("hatt-mapping", kMappingVersion);
    doc.add("name", map.name);
    doc.add("num_modes", map.numModes);
    doc.add("num_qubits", map.numQubits);
    JsonValue majorana = JsonValue::array();
    for (const PauliTerm &t : map.majorana)
        majorana.push(termToJson(t));
    doc.add("majorana", std::move(majorana));
    return doc;
}

void
writeMappingJson(JsonWriter &w, const FermionQubitMapping &map)
{
    writeEnvelope(w, "hatt-mapping", kMappingVersion);
    w.key("name");
    w.string(map.name);
    w.key("num_modes");
    w.number(map.numModes);
    w.key("num_qubits");
    w.number(map.numQubits);
    w.key("majorana");
    w.beginArray();
    for (const PauliTerm &t : map.majorana)
        writeTermJson(w, t);
    w.endArray();
    w.endObject();
}

FermionQubitMapping
mappingFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-mapping", kMappingVersion);
    FermionQubitMapping map;
    map.name = doc.at("name").asString();
    map.numModes =
        static_cast<uint32_t>(doc.at("num_modes").asInt(0, 1 << 24));
    map.numQubits =
        static_cast<uint32_t>(doc.at("num_qubits").asInt(0, 1 << 24));
    const JsonValue &majorana = doc.at("majorana");
    if (!majorana.isArray() ||
        majorana.size() != size_t{2} * map.numModes)
        throw ParseError("hatt-mapping: expected " +
                         std::to_string(2 * map.numModes) +
                         " majorana terms");
    map.majorana.reserve(majorana.size());
    for (size_t i = 0; i < majorana.size(); ++i)
        map.majorana.push_back(termFromJson(majorana.at(i),
                                            map.numQubits));
    return map;
}

JsonValue
pauliSumToJson(const PauliSum &sum)
{
    JsonValue doc = envelope("hatt-pauli-sum", kPauliSumVersion);
    doc.add("num_qubits", sum.numQubits());
    JsonValue terms = JsonValue::array();
    for (const PauliTerm &t : sum.terms())
        terms.push(termToJson(t));
    doc.add("terms", std::move(terms));
    return doc;
}

void
writePauliSumJson(JsonWriter &w, const PauliSum &sum)
{
    writeEnvelope(w, "hatt-pauli-sum", kPauliSumVersion);
    w.key("num_qubits");
    w.number(sum.numQubits());
    w.key("terms");
    w.beginArray();
    for (const PauliTerm &t : sum.terms())
        writeTermJson(w, t);
    w.endArray();
    w.endObject();
}

PauliSum
pauliSumFromJson(const JsonValue &doc)
{
    checkEnvelope(doc, "hatt-pauli-sum", kPauliSumVersion);
    const uint32_t nq =
        static_cast<uint32_t>(doc.at("num_qubits").asInt(0, 1 << 24));
    PauliSum sum(nq);
    const JsonValue &terms = doc.at("terms");
    if (!terms.isArray())
        throw ParseError("hatt-pauli-sum: terms must be an array");
    for (size_t i = 0; i < terms.size(); ++i)
        sum.add(termFromJson(terms.at(i), nq));
    return sum;
}

uint64_t
majoranaContentHash(const MajoranaPolynomial &poly)
{
    // Canonical order: sort term ids by index list (terms are already
    // deduplicated/ascending in a compressed polynomial).
    std::vector<size_t> order(poly.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::ranges::lexicographical_compare(poly[a].indices,
                                                    poly[b].indices);
    });

    uint64_t h = detail::splitmix64(0x48415454ull ^ poly.numModes());
    auto mix = [&](uint64_t v) { h = detail::splitmix64(h ^ v); };
    for (size_t id : order) {
        const MajoranaMonomial t = poly[id];
        mix(t.indices.size());
        for (uint32_t i : t.indices)
            mix(i);
        uint64_t re_bits, im_bits;
        double re = t.coeff.real(), im = t.coeff.imag();
        std::memcpy(&re_bits, &re, sizeof(re_bits));
        std::memcpy(&im_bits, &im, sizeof(im_bits));
        mix(re_bits);
        mix(im_bits);
    }
    return h;
}

std::string
hashToHex(uint64_t hash)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<size_t>(i)] = digits[hash & 0xF];
        hash >>= 4;
    }
    return out;
}

std::string
tmpPathFor(const std::string &path)
{
    static std::atomic<uint64_t> counter{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1));
}

void
publishJsonFile(const std::string &path,
                const std::function<void(JsonWriter &)> &body)
{
    const fault::Action fault = fault::at("emit.write");
    if (fault == fault::Action::Throw)
        throw ParseError("cannot write " + path +
                         " (fault injected: emit.write)");
    const std::string tmp = tmpPathFor(path);
    std::error_code ec;
    try {
        writeJsonFile(tmp, 2, /*durable=*/false, body);
        if (fault == fault::Action::Fail)
            throw ParseError("cannot publish " + path +
                             " (fault injected: emit.write)");
        fs::rename(tmp, path, ec);
        if (ec)
            throw ParseError("cannot publish " + path + ": " +
                             ec.message());
    } catch (const ParseError &) {
        fs::remove(tmp, ec);
        throw;
    } catch (const std::bad_alloc &) {
        fs::remove(tmp, ec);
        throw;
    } catch (const std::exception &e) {
        // A failed write/close, or a non-finite number.
        fs::remove(tmp, ec);
        throw ParseError("cannot write " + path + ": " + e.what());
    }
}

void
saveJsonFile(const std::string &path, const JsonValue &doc)
{
    publishJsonFile(path, [&](JsonWriter &w) { doc.writeTo(w); });
}

JsonValue
loadJsonFile(const std::string &path, uint64_t max_bytes)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw ParseError("cannot open file: " + path);
    const auto size = in.tellg();
    if (max_bytes != 0 && size >= 0 &&
        static_cast<uint64_t>(size) > max_bytes)
        throw ParseError(path + ": file size " + std::to_string(size) +
                         " exceeds the JSON input cap (" +
                         std::to_string(max_bytes) + " bytes)");
    in.seekg(0, std::ios::beg);
    try {
        return JsonValue::parse(in);
    } catch (const ParseError &e) {
        throw ParseError(path + ": " + e.what());
    }
}

} // namespace hatt::io
