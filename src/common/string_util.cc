#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace groupsa {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  if (size <= 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string result(static_cast<size_t>(size), '\0');
  std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  va_end(args_copy);
  return result;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& separator) {
  std::string result;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

std::vector<std::string> StrSplit(const std::string& text, char delimiter) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == delimiter) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

std::string StrTrim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
    ++begin;
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])))
    --end;
  return text.substr(begin, end - begin);
}

namespace {

// std::from_chars, unlike strtoll/strtoull, skips no blanks, reads no "" as
// 0 and wraps no "-1" into an unsigned value; it takes no '+', so a lone
// one ahead of a digit is stepped over here.
template <typename T>
bool ParseWhole(const std::string& text, T min, T max, T* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  if (end - begin > 1 && begin[0] == '+' && begin[1] != '-') ++begin;
  T value{};
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max)
    return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseWholeInt(const std::string& text, int min, int max, int* out) {
  return ParseWhole(text, min, max, out);
}

bool ParseWholeInt(const std::string& text, uint64_t min, uint64_t max,
                   uint64_t* out) {
  return ParseWhole(text, min, max, out);
}

}  // namespace groupsa
