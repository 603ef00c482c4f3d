// End-to-end test of the proclus_cli tool: generate -> fit -> classify
// -> evaluate through the real binary (path injected by CMake).

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_temp.h"

#ifndef PROCLUS_CLI_PATH
#define PROCLUS_CLI_PATH ""
#endif

namespace proclus {
namespace {

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

int RunCli(const std::string& args, std::string* output = nullptr) {
  std::string command = std::string(PROCLUS_CLI_PATH) + " " + args;
  if (output) {
    command += " > " + Quoted(TestTempPath("cli_out.txt")) + " 2>&1";
  }
  int code = std::system(command.c_str());
  if (output) {
    std::ifstream in(TestTempPath("cli_out.txt"));
    output->assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  }
  return code;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(PROCLUS_CLI_PATH).empty())
      GTEST_SKIP() << "CLI path not configured";
    dir_ = TestTempDir();
  }
  std::string dir_;
};

TEST_F(CliTest, NoArgumentsShowsUsage) {
  std::string output;
  EXPECT_NE(RunCli("", &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_NE(RunCli("frobnicate 2>/dev/null"), 0);
}

TEST_F(CliTest, FullWorkflow) {
  std::string data = dir_ + "/wf_data.csv";
  std::string truth = dir_ + "/wf_truth.csv";
  std::string model = dir_ + "/wf.model";
  std::string labels = dir_ + "/wf_labels.csv";

  std::string output;
  ASSERT_EQ(RunCli("generate --out " + Quoted(data) + " --truth " +
                       Quoted(truth) +
                       " --n 3000 --d 10 --k 3 --cluster-dims 3 --seed 5",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("wrote 3000 x 10"), std::string::npos);

  ASSERT_EQ(RunCli("fit --input " + Quoted(data) +
                       " --k 3 --l 3 --model " + Quoted(model) +
                       " --labels " + Quoted(labels) + " --seed 2",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("model saved"), std::string::npos);

  ASSERT_EQ(RunCli("evaluate --labels " + Quoted(labels) + " --truth " +
                       Quoted(truth),
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("ARI"), std::string::npos);

  std::string relabels = dir_ + "/wf_labels2.csv";
  ASSERT_EQ(RunCli("classify --model " + Quoted(model) + " --input " +
                       Quoted(data) + " --labels " + Quoted(relabels),
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("outliers:"), std::string::npos);

  // Classifying the training data reproduces the fit labels exactly.
  std::ifstream a(labels), b(relabels);
  std::string line_a, line_b;
  size_t lines = 0;
  while (std::getline(a, line_a) && std::getline(b, line_b)) {
    ASSERT_EQ(line_a, line_b) << "line " << lines;
    ++lines;
  }
  EXPECT_EQ(lines, 3001u);  // Header + 3000 labels.
}

// Exit code of a finished RunCli command (std::system returns a wait
// status).
int ExitCode(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST_F(CliTest, MalformedNumericFlagsExitOneNamingTheFlag) {
  const std::string data = dir_ + "/num_data.csv";
  ASSERT_EQ(RunCli("generate --out " + Quoted(data) +
                   " --n 300 --d 6 --k 2 --cluster-dims 3 --seed 5 "
                   ">/dev/null"),
            0);
  struct Case {
    std::string args;
    std::string flag;
  };
  const Case cases[] = {
      // Negative counts once reached a vector size as 2^64 - 1 and
      // aborted with std::length_error.
      {"generate --out " + Quoted(dir_ + "/x.csv") + " --n -1", "--n"},
      {"generate --out " + Quoted(dir_ + "/x.csv") + " --d -1", "--d"},
      // Non-numeric values once parsed as 0: --threads silently ran
      // single-threaded, --k failed on num_clusters instead of the flag.
      {"fit --input " + Quoted(data) + " --k 2 --l 3 --threads two",
       "--threads"},
      {"fit --input " + Quoted(data) + " --k five --l 3", "--k"},
      // Trailing garbage.
      {"fit --input " + Quoted(data) + " --k 2 --l 3x", "--l"},
      {"fit --input " + Quoted(data) + " --k 2 --l 3 --seed 7abc", "--seed"},
      {"generate --out " + Quoted(dir_ + "/x.csv") + " --outliers 0.1.2",
       "--outliers"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args);
    std::string output;
    EXPECT_EQ(ExitCode(RunCli(c.args, &output)), 1) << output;
    EXPECT_NE(output.find("error: "), std::string::npos) << output;
    EXPECT_NE(output.find(c.flag + " expects"), std::string::npos) << output;
  }
  // Well-formed values still run.
  std::string output;
  EXPECT_EQ(ExitCode(RunCli("fit --input " + Quoted(data) +
                                " --k 2 --l 3 --threads 2 --seed 7",
                            &output)),
            0)
      << output;
}

TEST_F(CliTest, GenerateRejectsShapesTooLargeToAllocate) {
  // These shapes used to abort (exit 134) on an uncaught
  // std::length_error instead of reporting an error.
  const std::string out = Quoted(dir_ + "/huge.csv");
  for (const std::string& shape :
       {std::string("--n 4611686018427387904 --d 8"),
        std::string("--n 10 --d 2305843009213693952 --cluster-dims 2")}) {
    SCOPED_TRACE(shape);
    std::string output;
    EXPECT_EQ(ExitCode(RunCli("generate --out " + out + " " + shape, &output)),
              1)
        << output;
    EXPECT_NE(output.find("error: "), std::string::npos) << output;
  }
}

TEST_F(CliTest, MissingRequiredFlagsFail) {
  EXPECT_NE(RunCli("generate 2>/dev/null"), 0);
  EXPECT_NE(RunCli("fit --input /nonexistent.csv 2>/dev/null"), 0);
  EXPECT_NE(RunCli("classify --model /nonexistent.model 2>/dev/null"), 0);
  EXPECT_NE(RunCli("evaluate --labels /a 2>/dev/null"), 0);
}

}  // namespace
}  // namespace proclus
