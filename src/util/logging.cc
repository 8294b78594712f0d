#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace lt {

namespace {
LogLevel g_level = LogLevel::Inform;
} // namespace

LogLevel
logLevel()
{
    return g_level;
}

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    // Flush, then _Exit: std::exit would run static destructors —
    // among them the global ThreadPool's, which joins workers that do
    // not exist in a forked child (gtest death tests) and deadlocks or
    // faults when lt_fatal is raised from a pool task.
    std::cout.flush();
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Warn)
        std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Inform)
        std::cout << "info: " << msg << std::endl;
}

void
debugImpl(const std::string &msg)
{
    if (g_level >= LogLevel::Debug)
        std::cout << "debug: " << msg << std::endl;
}

} // namespace detail

} // namespace lt
