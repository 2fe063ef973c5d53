#ifndef GROUPSA_COMMON_STRING_UTIL_H_
#define GROUPSA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace groupsa {

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Joins `parts` with `separator`.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& separator);

// Splits `text` on `delimiter`; keeps empty fields.
std::vector<std::string> StrSplit(const std::string& text, char delimiter);

// Removes leading/trailing whitespace.
std::string StrTrim(const std::string& text);

// Parses `text` as a whole decimal number in [min, max] into *out: an
// optional sign (no minus for the unsigned form), then digits to the end.
// Anything else (empty text, blanks, trailing characters, a value out of
// range) is malformed and leaves *out alone. The one reader of every
// integer flag and script number in the tools and benches.
bool ParseWholeInt(const std::string& text, int min, int max, int* out);
bool ParseWholeInt(const std::string& text, uint64_t min, uint64_t max,
                   uint64_t* out);

}  // namespace groupsa

#endif  // GROUPSA_COMMON_STRING_UTIL_H_
