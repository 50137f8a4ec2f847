/**
 * @file
 * Strict environment-variable knob parsing, shared by every layer
 * that reads an ESPRESSO_* knob.
 */

#ifndef ESPRESSO_UTIL_ENV_HH
#define ESPRESSO_UTIL_ENV_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace espresso {

/**
 * Parse @p name as a positive unsigned; @p fallback when unset,
 * non-numeric, or non-positive. Strict: trailing garbage after the
 * digits ("4x", "16 shards") is rejected with a one-line warning
 * instead of being silently truncated to its numeric prefix —
 * a mistyped ESPRESSO_SHARDS should not quietly resize the fabric.
 * Trailing whitespace alone is tolerated.
 */
inline unsigned
envUnsigned(const char *name, unsigned fallback)
{
    const char *s = std::getenv(name);
    if (!s)
        return fallback;
    char *end = nullptr;
    long v = std::strtol(s, &end, 10);
    bool parsed = end != s;
    while (parsed && *end != '\0') {
        if (!std::isspace(static_cast<unsigned char>(*end))) {
            parsed = false;
            break;
        }
        ++end;
    }
    if (!parsed || v <= 0) {
        std::fprintf(stderr,
                     "espresso: ignoring %s=\"%s\" (want a positive "
                     "integer); using %u\n",
                     name, s, fallback);
        return fallback;
    }
    return static_cast<unsigned>(v);
}

/**
 * Parse @p name as an on/off flag: "1" is on, "0" is off, unset is
 * @p fallback. Anything else ("false", "off", "yes", "") is rejected
 * with a one-line warning rather than guessed at: a first-character
 * test would read "false" as on.
 */
inline bool
envFlag(const char *name, bool fallback)
{
    const char *s = std::getenv(name);
    if (!s)
        return fallback;
    if ((s[0] == '0' || s[0] == '1') && s[1] == '\0')
        return s[0] == '1';
    std::fprintf(stderr,
                 "espresso: ignoring %s=\"%s\" (want 0 or 1); using %d\n",
                 name, s, fallback ? 1 : 0);
    return fallback;
}

} // namespace espresso

#endif // ESPRESSO_UTIL_ENV_HH
