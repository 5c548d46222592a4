/**
 * @file
 * Error handling for the BitSpec library.
 *
 * Two failure modes, mirroring the gem5 convention:
 *  - fatal(): user-visible error (bad input program, bad configuration).
 *  - panic(): internal invariant violation (a BitSpec bug).
 *
 * Both throw exceptions so library users can recover; the distinction is
 * carried in the exception type.
 */

#ifndef BITSPEC_SUPPORT_ERROR_H_
#define BITSPEC_SUPPORT_ERROR_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace bitspec
{

/** Error caused by user input: bad source program, bad configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/**
 * A FatalError at a known position of the input program's source:
 * "<stage> error at <line>:<col>: <msg>", with the position also
 * available as fields.
 */
class CompileError : public FatalError
{
  public:
    CompileError(const std::string &stage, int line, int col,
                 const std::string &msg)
        : FatalError(stage + " error at " + std::to_string(line) + ":" +
                     std::to_string(col) + ": " + msg),
          line_(line), col_(col)
    {}

    int line() const { return line_; }
    int col() const { return col_; }

  private:
    int line_;
    int col_;
};

/** Error caused by an internal invariant violation (a BitSpec bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

/** Throw a FatalError with the given message. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

/** Throw a PanicError with the given message. */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

/** Panic unless @p cond holds. Used for internal invariants. */
inline void
bsAssert(bool cond, const std::string &msg)
{
    if (!cond)
        panic(msg);
}

/** Literal-message overload: builds no std::string unless it fails. */
inline void
bsAssert(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace bitspec

#endif // BITSPEC_SUPPORT_ERROR_H_
