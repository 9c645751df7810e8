#ifndef HATT_COMMON_JSON_WRITER_HPP
#define HATT_COMMON_JSON_WRITER_HPP

/**
 * @file
 * The library's one JSON writer. It streams a document through a buffer
 * that is either flushed to a file descriptor whenever it fills (about
 * 256 KB, so the memory cost of a write does not grow with the document)
 * or kept whole as a string.
 *
 * The layout is io::JsonValue::dump()'s, byte for byte, which every
 * artifact pin relies on:
 *
 *  - indent >= 0 puts each container element on its own line, indented
 *    @p indent spaces per level, writes members as `"key": value`, and
 *    ends the document with a newline; indent < 0 writes no whitespace;
 *  - an empty container is `[]` / `{}` in both modes;
 *  - strings escape `"`, `\` and control characters (`\b \f \n \r \t`,
 *    otherwise `\u00xx`); other bytes pass through;
 *  - integral numbers with magnitude below 1e15 print without a fraction
 *    (`-0.0` as `-0`), every other finite number with 17 significant
 *    digits, which round-trips bit-exactly. Formatting uses to_chars, so
 *    the process locale never changes a byte. A non-finite number throws
 *    std::domain_error.
 *
 * Values written with no container open get no separator, so a caller
 * with its own layout (the trace file) can mix raw() with the value
 * calls at top level.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace hatt {

class JsonWriter
{
  public:
    /** Collect the document in memory; take() returns it. */
    explicit JsonWriter(int indent);
    /** Stream to @p fd (not owned) through a fixed-size buffer. */
    JsonWriter(int fd, int indent);

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    /** Member name; the next value call writes its value. */
    void key(std::string_view name);

    void string(std::string_view text);
    void number(double value);
    void boolean(bool value);
    void null();

    /**
     * A string value of exactly @p n characters that the caller writes
     * into the returned slot before the next call on this writer. The
     * characters must need no escaping.
     */
    char *stringSlot(size_t n);

    /** Bytes written verbatim, outside the layout. */
    void raw(std::string_view text);

    /**
     * End the document: the trailing newline when indenting, then the
     * final flush to the fd. @throws std::system_error when a write
     * fails.
     */
    void finish();

    /** The document collected by the in-memory writer. */
    std::string take();

  private:
    /** Separator and newline before a value or key. */
    void beginItem();
    void newline(size_t level);
    void close(char bracket);
    void escaped(std::string_view text);
    void put(char c);
    /** At least @p n writable bytes at the returned cursor. */
    char *room(size_t n);
    void makeRoom(size_t n);
    void flushBuffer();

    int fd_ = -1;
    int indent_;
    std::string buf_;
    size_t pos_ = 0;
    /** Per open container: has it had an element yet. */
    std::vector<uint8_t> open_;
    bool afterKey_ = false;
};

/** Longest output of formatJsonNumber(). */
inline constexpr size_t kMaxJsonNumberChars = 32;

/**
 * Render @p value as JsonWriter::number() does into @p out, which has
 * room for kMaxJsonNumberChars. @return one past the last character.
 * @throws std::domain_error for a non-finite value.
 */
char *formatJsonNumber(char *out, double value);

/**
 * Create or truncate @p path, stream @p body into it, fsync it when
 * @p durable, and close it. Publication (temp name, rename) is the
 * caller's. @throws std::system_error on an I/O failure; whatever was
 * written stays on disk for the caller to remove.
 */
void writeJsonFile(const std::string &path, int indent, bool durable,
                   const std::function<void(JsonWriter &)> &body);

} // namespace hatt

#endif // HATT_COMMON_JSON_WRITER_HPP
