// Byte-identity check for exported documents. EXPECT_EQ on two
// multi-megabyte strings makes gtest build a line diff of both, which can
// run out of memory before anything is reported; this reports only the
// first differing line, with its number and both document lengths.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

namespace fgpu::test {

inline void expect_same_document(std::string_view a, std::string_view b,
                                 const std::string& what) {
  if (a == b) return;
  const size_t n = std::min(a.size(), b.size());
  size_t line = 1, start = 0;
  for (size_t i = 0; i < n && a[i] == b[i]; ++i) {
    if (a[i] == '\n') {
      ++line;
      start = i + 1;
    }
  }
  const auto line_at = [start](std::string_view doc) {
    return doc.substr(start, doc.find('\n', start) - start);
  };
  ADD_FAILURE() << what << ": documents differ at line " << line << " (lengths " << a.size()
                << " and " << b.size() << ")\n  first:  " << line_at(a)
                << "\n  second: " << line_at(b);
}

}  // namespace fgpu::test
