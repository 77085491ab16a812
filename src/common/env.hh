/**
 * @file
 * Strict environment-knob parsing shared by every NVCK_* variable.
 *
 * Each knob either is unset (the caller applies its default), parses
 * cleanly, or is rejected with a one-line error on stderr and exit(2).
 * Silently falling back on garbage input is never acceptable: a typo in
 * NVCK_JOBS or NVCK_RAS_PATROL_ORDER must not quietly change what
 * runs. The parse functions are pure so tests can cover every malformed
 * shape without death tests; the env* wrappers add the getenv + exit
 * policy. The benches' numeric flags (--jobs, --points, --seed) go
 * through flagPositive, the same policy for a command-line value, and
 * the benches and examples that take no options call rejectArguments.
 */

#ifndef NVCK_COMMON_ENV_HH
#define NVCK_COMMON_ENV_HH

#include <cstdint>
#include <initializer_list>
#include <optional>

namespace nvck {

/**
 * Parse @p text as a positive decimal integer in [1, max]. Returns
 * nullopt on empty input, trailing junk, zero, or overflow.
 */
std::optional<std::uint64_t>
parsePositive(const char *text, std::uint64_t max = UINT64_MAX);

/**
 * Index of @p text in @p choices (exact match); nullopt when absent.
 */
std::optional<std::size_t>
parseChoice(const char *text,
            std::initializer_list<const char *> choices);

/**
 * Read the positive-integer knob @p name: nullopt when unset; the
 * value when well-formed; otherwise prints
 * "nvck: $NAME: expected ... got '...'" and exits with status 2.
 */
std::optional<std::uint64_t>
envPositive(const char *name, std::uint64_t max = UINT64_MAX);

/**
 * Parse the value @p text of command-line flag @p flag of program
 * @p prog as a positive integer in [1, max]; otherwise prints
 * "PROG: FLAG expects a positive integer [<= MAX], got '...'" and
 * exits with status 2.
 */
std::uint64_t flagPositive(const char *prog, const char *flag,
                           const char *text,
                           std::uint64_t max = UINT64_MAX);

/**
 * For a program that takes no arguments: any argument prints
 * "PROG: takes no options (got '...')" and exits with status 2.
 */
void rejectArguments(int argc, const char *const *argv);

/**
 * Read the enumerated knob @p name against @p choices: nullopt when
 * unset; the matching index when valid; exit(2) with a one-line error
 * listing the accepted values otherwise.
 */
std::optional<std::size_t>
envChoice(const char *name,
          std::initializer_list<const char *> choices);

} // namespace nvck

#endif // NVCK_COMMON_ENV_HH
