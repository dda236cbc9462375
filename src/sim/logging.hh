/**
 * @file
 * Error and status reporting in the gem5 style.
 *
 * panic() is for internal simulator bugs (conditions that should never
 * happen regardless of user input); it aborts. fatal() is for user error
 * (bad configuration); it exits with status 1. warn() and inform() print
 * to stderr and continue.
 */

#ifndef DSM_SIM_LOGGING_HH
#define DSM_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace dsm {

/** Formatted message sink used by the logging helpers below. */
void logMessage(const char *level, const std::string &msg);

/**
 * Suppress (or restore) info/warn output. Quiet mode keeps stderr clean
 * for scripted bench runs whose real product is BENCH_*.json; panic and
 * fatal always print. Also enabled by the DSM_QUIET environment
 * variable (envOn).
 */
void setLogQuiet(bool quiet);

/** Current quiet state (programmatic setting or DSM_QUIET). */
bool logQuiet();

/**
 * The on/off rule of every DSM_* switch: true unless $@p var is unset,
 * empty, or "0".
 */
bool envOn(const char *var);

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace dsm

/** Abort: an internal simulator invariant was violated. */
#define dsm_panic(...) \
    ::dsm::panicImpl(__FILE__, __LINE__, ::dsm::csprintf(__VA_ARGS__))

/** Exit: the simulation cannot continue due to a user/configuration error. */
#define dsm_fatal(...) \
    ::dsm::fatalImpl(__FILE__, __LINE__, ::dsm::csprintf(__VA_ARGS__))

/** Continue, but alert the user to questionable behaviour. */
#define dsm_warn(...) \
    ::dsm::logMessage("warn", ::dsm::csprintf(__VA_ARGS__))

/** Continue; purely informational status output. */
#define dsm_inform(...) \
    ::dsm::logMessage("info", ::dsm::csprintf(__VA_ARGS__))

/** panic() unless the stated invariant holds. */
#define dsm_assert(cond, ...)                                            \
    do {                                                                 \
        if (!(cond))                                                     \
            ::dsm::panicImpl(__FILE__, __LINE__,                         \
                             ::dsm::csprintf("assertion failed: %s: %s", \
                                             #cond,                      \
                                             ::dsm::csprintf(            \
                                                 __VA_ARGS__).c_str())); \
    } while (0)

#endif // DSM_SIM_LOGGING_HH
