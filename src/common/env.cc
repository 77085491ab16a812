#include "env.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nvck {

std::optional<std::uint64_t>
parsePositive(const char *text, std::uint64_t max)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    // Reject shapes strtoull would accept: signs and leading spaces.
    if (text[0] == '-' || text[0] == '+' || std::isspace(
            static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    if (v == 0 || v > max)
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

std::optional<std::size_t>
parseChoice(const char *text,
            std::initializer_list<const char *> choices)
{
    if (text == nullptr)
        return std::nullopt;
    std::size_t idx = 0;
    for (const char *choice : choices) {
        if (std::strcmp(text, choice) == 0)
            return idx;
        ++idx;
    }
    return std::nullopt;
}

std::optional<std::uint64_t>
envPositive(const char *name, std::uint64_t max)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return std::nullopt;
    if (const auto v = parsePositive(text, max))
        return v;
    std::fprintf(stderr,
                 "nvck: %s: expected a positive integer <= %llu, got "
                 "'%s'\n",
                 name, static_cast<unsigned long long>(max), text);
    std::exit(2);
}

std::uint64_t
flagPositive(const char *prog, const char *flag, const char *text,
             std::uint64_t max)
{
    if (const auto v = parsePositive(text, max))
        return *v;
    std::fprintf(stderr, "%s: %s expects a positive integer", prog, flag);
    if (max != UINT64_MAX)
        std::fprintf(stderr, " <= %llu",
                     static_cast<unsigned long long>(max));
    std::fprintf(stderr, ", got '%s'\n", text);
    std::exit(2);
}

void
rejectArguments(int argc, const char *const *argv)
{
    if (argc <= 1)
        return;
    std::fprintf(stderr, "%s: takes no options (got '%s')\n", argv[0],
                 argv[1]);
    std::exit(2);
}

std::optional<std::size_t>
envChoice(const char *name,
          std::initializer_list<const char *> choices)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return std::nullopt;
    if (const auto idx = parseChoice(text, choices))
        return idx;
    std::fprintf(stderr, "nvck: %s: expected one of {", name);
    bool first = true;
    for (const char *choice : choices) {
        std::fprintf(stderr, "%s%s", first ? "" : ", ", choice);
        first = false;
    }
    std::fprintf(stderr, "}, got '%s'\n", text);
    std::exit(2);
}

} // namespace nvck
