#include "common/json_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace hatt {

namespace {

constexpr size_t kFileBufferBytes = size_t{256} << 10;
constexpr size_t kStringBufferBytes = 256;
constexpr std::string_view kSpaces = "                                ";

[[noreturn]] void
throwErrno(const std::string &what)
{
    throw std::system_error(errno, std::generic_category(), what);
}

} // namespace

char *
formatJsonNumber(char *out, double value)
{
    if (!std::isfinite(value))
        throw std::domain_error("cannot serialize non-finite number");
    char *const end = out + kMaxJsonNumberChars;
    if (value == std::floor(value) && std::abs(value) < 1e15) {
        if (value == 0.0 && std::signbit(value)) {
            std::memcpy(out, "-0", 2);
            return out + 2;
        }
        return std::to_chars(out, end, static_cast<int64_t>(value)).ptr;
    }
    return std::to_chars(out, end, value, std::chars_format::general, 17)
        .ptr;
}

JsonWriter::JsonWriter(int indent) : indent_(indent)
{
    buf_.resize(kStringBufferBytes);
}

JsonWriter::JsonWriter(int fd, int indent) : fd_(fd), indent_(indent)
{
    buf_.resize(kFileBufferBytes);
}

char *
JsonWriter::room(size_t n)
{
    if (buf_.size() - pos_ < n)
        makeRoom(n);
    return buf_.data() + pos_;
}

void
JsonWriter::makeRoom(size_t n)
{
    if (fd_ >= 0)
        flushBuffer();
    if (buf_.size() - pos_ < n)
        buf_.resize(std::max(buf_.size() * 2, pos_ + n));
}

void
JsonWriter::flushBuffer()
{
    size_t off = 0;
    while (off < pos_) {
        const ssize_t n = ::write(fd_, buf_.data() + off, pos_ - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno("write");
        }
        off += static_cast<size_t>(n);
    }
    pos_ = 0;
}

void
JsonWriter::put(char c)
{
    *room(1) = c;
    ++pos_;
}

void
JsonWriter::raw(std::string_view text)
{
    std::memcpy(room(text.size()), text.data(), text.size());
    pos_ += text.size();
}

void
JsonWriter::newline(size_t level)
{
    if (indent_ < 0)
        return;
    put('\n');
    for (size_t n = static_cast<size_t>(indent_) * level; n > 0;) {
        const size_t chunk = std::min(n, kSpaces.size());
        raw(kSpaces.substr(0, chunk));
        n -= chunk;
    }
}

void
JsonWriter::beginItem()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (open_.empty())
        return;
    if (open_.back())
        put(',');
    open_.back() = 1;
    newline(open_.size());
}

void
JsonWriter::close(char bracket)
{
    const bool had_items = open_.back() != 0;
    open_.pop_back();
    if (had_items)
        newline(open_.size());
    put(bracket);
}

void
JsonWriter::beginObject()
{
    beginItem();
    put('{');
    open_.push_back(0);
}

void
JsonWriter::endObject()
{
    close('}');
}

void
JsonWriter::beginArray()
{
    beginItem();
    put('[');
    open_.push_back(0);
}

void
JsonWriter::endArray()
{
    close(']');
}

void
JsonWriter::key(std::string_view name)
{
    beginItem();
    escaped(name);
    raw(indent_ < 0 ? ":" : ": ");
    afterKey_ = true;
}

void
JsonWriter::escaped(std::string_view text)
{
    put('"');
    size_t run = 0;
    for (size_t i = 0; i < text.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        raw(text.substr(run, i - run));
        run = i + 1;
        switch (c) {
          case '"': raw("\\\""); break;
          case '\\': raw("\\\\"); break;
          case '\b': raw("\\b"); break;
          case '\f': raw("\\f"); break;
          case '\n': raw("\\n"); break;
          case '\r': raw("\\r"); break;
          case '\t': raw("\\t"); break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
            raw(std::string_view(u, sizeof(u)));
          }
        }
    }
    raw(text.substr(run));
    put('"');
}

void
JsonWriter::string(std::string_view text)
{
    beginItem();
    escaped(text);
}

void
JsonWriter::number(double value)
{
    beginItem();
    char *cursor = room(kMaxJsonNumberChars);
    pos_ += static_cast<size_t>(formatJsonNumber(cursor, value) - cursor);
}

void
JsonWriter::boolean(bool value)
{
    beginItem();
    raw(value ? "true" : "false");
}

void
JsonWriter::null()
{
    beginItem();
    raw("null");
}

char *
JsonWriter::stringSlot(size_t n)
{
    beginItem();
    char *slot = room(n + 2);
    slot[0] = '"';
    slot[n + 1] = '"';
    pos_ += n + 2;
    return slot + 1;
}

void
JsonWriter::finish()
{
    if (indent_ >= 0)
        put('\n');
    if (fd_ >= 0)
        flushBuffer();
}

std::string
JsonWriter::take()
{
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
}

void
writeJsonFile(const std::string &path, int indent, bool durable,
              const std::function<void(JsonWriter &)> &body)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        throwErrno("cannot open " + path + " for writing");
    try {
        JsonWriter writer(fd, indent);
        body(writer);
        writer.finish();
        if (durable && ::fsync(fd) != 0)
            throwErrno("fsync " + path);
    } catch (...) {
        ::close(fd);
        throw;
    }
    if (::close(fd) != 0)
        throwErrno("close " + path);
}

} // namespace hatt
