// Byte-identity checks for exported documents. EXPECT_EQ on two
// multi-megabyte strings makes gtest build a line diff of both, which can
// run out of memory before anything is reported; these report only the
// first differing line, with its number and both document lengths.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "suite/runner.hpp"

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

// Switches on the collection of every schema-tagged suite::documents() row.
inline void capture_every_document(suite::RunnerOptions* options) {
  for (const auto& doc : suite::documents()) {
    if (doc.schema != nullptr && doc.capture != nullptr) options->*doc.capture = true;
  }
}

// Writes every schema-tagged suite::documents() row for two runs and
// expects each pair byte-identical. Returns run `a`'s documents by schema.
inline std::map<std::string, std::string> expect_same_documents(
    const suite::RunnerOptions& options, const suite::SuiteRunResult& a,
    const suite::SuiteRunResult& b, const std::string& what) {
  std::map<std::string, std::string> docs;
  for (const auto& doc : suite::documents()) {
    if (doc.schema == nullptr) continue;
    std::ostringstream first, second;
    doc.write(first, options, a);
    doc.write(second, options, b);
    expect_same_document(first.str(), second.str(), std::string(doc.schema) + " " + what);
    docs[doc.schema] = first.str();
  }
  return docs;
}

struct JobCountRuns {
  suite::SuiteRunResult serial;
  std::map<std::string, std::string> docs;  // the serial run's, by schema
};

// The determinism contract of every suite document: sharding the suite
// across worker threads must not change a byte. Runs `options` once
// serially and once with --jobs=4, and expects every schema-tagged row
// byte-identical and carrying the schema header OBSERVABILITY.md documents.
inline void expect_same_documents_across_job_counts(suite::RunnerOptions options,
                                                    size_t benchmarks, JobCountRuns* out) {
  options.jobs = 1;
  auto serial = suite::run_all(options);
  ASSERT_TRUE(serial.is_ok());
  ASSERT_EQ(serial->outcomes.size(), benchmarks);
  options.jobs = 4;
  auto parallel = suite::run_all(options);
  ASSERT_TRUE(parallel.is_ok());

  out->docs = expect_same_documents(options, *serial, *parallel,
                                    "--jobs=1 vs 4 -O" + std::to_string(options.opt_level));
  for (const auto& [schema, json] : out->docs) {
    EXPECT_NE(json.find("\"schema\": \"" + schema + "\""), std::string::npos) << schema;
  }
  out->serial = std::move(*serial);
}

}  // namespace fgpu::test
