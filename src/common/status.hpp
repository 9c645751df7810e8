#ifndef HATT_COMMON_STATUS_HPP
#define HATT_COMMON_STATUS_HPP

/**
 * @file
 * The library's one error channel: a Status code + message, and a
 * StatusOr<T> carrying either a value or a non-ok Status. The mapper
 * registry, the compile driver, the CompilationService and the wire all
 * speak it; the CLI maps codes to sysexits (io/cli exitCodeForStatus),
 * hattd to wire code strings.
 */

#include <optional>
#include <string>
#include <utility>

namespace hatt {

/** Expected-style error value (no exceptions across API boundaries). */
class Status
{
  public:
    enum class Code
    {
        Ok,
        InvalidArgument, //!< bad request field / option bag entry
        NotFound,        //!< unknown mapper kind
        AlreadyExists,   //!< duplicate registration / work item
        Internal,        //!< construction failed unexpectedly
        DeadlineExceeded,  //!< RunLimits time budget expired mid-build
        Cancelled,         //!< CancelToken fired mid-build
        ResourceExhausted, //!< allocation failed / a hard cap was hit
    };

    Status() = default;
    Status(Code code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status
    invalidArgument(std::string msg)
    {
        return {Code::InvalidArgument, std::move(msg)};
    }
    static Status
    notFound(std::string msg)
    {
        return {Code::NotFound, std::move(msg)};
    }
    static Status
    alreadyExists(std::string msg)
    {
        return {Code::AlreadyExists, std::move(msg)};
    }
    static Status
    internal(std::string msg)
    {
        return {Code::Internal, std::move(msg)};
    }
    static Status
    deadlineExceeded(std::string msg)
    {
        return {Code::DeadlineExceeded, std::move(msg)};
    }
    static Status
    cancelled(std::string msg)
    {
        return {Code::Cancelled, std::move(msg)};
    }
    static Status
    resourceExhausted(std::string msg)
    {
        return {Code::ResourceExhausted, std::move(msg)};
    }

    bool ok() const { return code_ == Code::Ok; }
    Code code() const { return code_; }
    const std::string &message() const { return message_; }

  private:
    Code code_ = Code::Ok;
    std::string message_;
};

/**
 * A Status or a value. Callers check ok() before value(); accessing the
 * value of a non-ok result (or the status of an ok one carrying no
 * message) is a programming error guarded by assertions in debug builds.
 */
template <typename T> class StatusOr
{
  public:
    StatusOr(Status status) : status_(std::move(status)) {}
    StatusOr(T value) : value_(std::move(value)) {}

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    const Status &status() const { return status_; }

    T &value() & { return *value_; }
    const T &value() const & { return *value_; }
    T &&value() && { return std::move(*value_); }

    T *operator->() { return &*value_; }
    const T *operator->() const { return &*value_; }

  private:
    Status status_ = Status();
    std::optional<T> value_;
};

} // namespace hatt

#endif // HATT_COMMON_STATUS_HPP
