/**
 * @file
 * gem5-style status/error reporting helpers.
 *
 * Two error severities are distinguished, following the gem5 convention:
 *  - panic(): an internal invariant was violated (a library bug); aborts.
 *  - fatal(): the simulation cannot continue due to a user-level error
 *    (bad configuration, invalid arguments); flushes output and exits
 *    with code 1 without running static destructors.
 * inform() and warn() print status without stopping the program.
 */

#ifndef LT_UTIL_LOGGING_HH
#define LT_UTIL_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace lt {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Get/set the process-wide log level (defaults to Inform). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Minimal printf-free message formatting: concatenates all parts. */
template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/**
 * Report an unrecoverable internal error and abort. Use only for
 * conditions that indicate a bug in this library, never for user error.
 */
#define lt_panic(...) \
    ::lt::detail::panicImpl(__FILE__, __LINE__, \
                            ::lt::detail::formatParts(__VA_ARGS__))

/**
 * Report an unrecoverable user-level error (bad config, bad arguments)
 * and exit(1).
 */
#define lt_fatal(...) \
    ::lt::detail::fatalImpl(__FILE__, __LINE__, \
                            ::lt::detail::formatParts(__VA_ARGS__))

/** Warn about suspicious-but-survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::formatParts(std::forward<Args>(args)...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::formatParts(std::forward<Args>(args)...));
}

/** Print a debug-level message (suppressed unless LogLevel::Debug). */
template <typename... Args>
void
debugLog(Args &&...args)
{
    detail::debugImpl(detail::formatParts(std::forward<Args>(args)...));
}

} // namespace lt

#endif // LT_UTIL_LOGGING_HH
