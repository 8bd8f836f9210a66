/**
 * @file
 * Error and status reporting helpers.
 *
 * Follows the gem5 convention: panic() is for simulator bugs
 * (conditions that can never legally arise), fatal() is for user
 * errors (bad configuration), warn() reports a condition without
 * stopping the simulation.
 */

#ifndef CENJU_SIM_LOGGING_HH
#define CENJU_SIM_LOGGING_HH

namespace cenju
{

/**
 * Abort with a message: an internal simulator invariant was violated.
 * Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Exit with a message: the user asked for something impossible.
 * Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace cenju

#endif // CENJU_SIM_LOGGING_HH
