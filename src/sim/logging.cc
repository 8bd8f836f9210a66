#include "logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace cenju
{

namespace
{

/** vprintf-style formatting into a std::string. */
std::string
vcsprintf(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

void
emit(const char *tag, const char *fmt, std::va_list args)
{
    std::string msg = vcsprintf(fmt, args);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

} // namespace cenju
