// Corpus replay: every committed reproducer under tests/fuzz/corpus/ is
// parsed, grammar-checked, and replayed through the FULL stacked oracle,
// forever. A program lands here because it once broke (or was hand-built
// to stress) an oracle leg — this suite is the regression ratchet that
// keeps those scenarios green.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/oracle.h"
#include "fuzz/program.h"

namespace eandroid::fuzz {
namespace {

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EANDROID_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".prog") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(CorpusReplayTest, CorpusIsPresentAndGrammatical) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 5u) << "corpus went missing from "
                              << EANDROID_FUZZ_CORPUS_DIR;
  for (const auto& path : files) {
    ScenarioProgram program;
    std::string error;
    ASSERT_TRUE(ScenarioProgram::parse(slurp(path), &program, &error))
        << path << ": " << error;
    std::vector<std::string> problems;
    EXPECT_TRUE(validate(program, &problems))
        << path << ": " << problems.front();
    // The canonical-form contract: committed reproducers re-serialize to
    // the bytes on disk minus leading comment lines.
    std::string text = slurp(path);
    std::string body;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty() && line[0] == '#') continue;
      body += line + "\n";
    }
    EXPECT_EQ(program.serialize(), body) << path;
  }
}

TEST(CorpusReplayTest, EveryReproducerPassesTheFullOracle) {
  for (const auto& path : corpus_files()) {
    ScenarioProgram program;
    std::string error;
    ASSERT_TRUE(ScenarioProgram::parse(slurp(path), &program, &error))
        << path << ": " << error;
    const OracleVerdict verdict = run_oracle(program);
    EXPECT_TRUE(verdict.ok()) << path << ":\n" << verdict.to_string();
    EXPECT_EQ(verdict.steps_applied, program.steps.size()) << path;
  }
}

}  // namespace
}  // namespace eandroid::fuzz
