// The logging contract: a CNV_LOG_* line below the current level evaluates
// nothing, an enabled line prints exactly "[LEVEL] <text>", and the macro
// is a single expression so it nests under an unbraced if/else.
#include "util/log.h"

#include <string>

#include "gtest/gtest.h"

namespace cnv {
namespace {

// Restores the process-wide level when a test ends, pass or fail.
class UtilLogTest : public ::testing::Test {
 protected:
  void TearDown() override { SetLogLevel(saved_); }

 private:
  LogLevel saved_ = GetLogLevel();
};

TEST_F(UtilLogTest, FilteredLineEvaluatesNoOperand) {
  ASSERT_EQ(GetLogLevel(), LogLevel::kWarn);  // the process default
  int calls = 0;
  const auto f = [&calls] {
    ++calls;
    return std::string("expensive");
  };
  testing::internal::CaptureStderr();
  CNV_LOG_DEBUG << f();
  CNV_LOG_INFO << f() << f();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(err, "");

  // An enabled level still evaluates its operands exactly once.
  testing::internal::CaptureStderr();
  CNV_LOG_WARN << f();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(calls, 1);

  SetLogLevel(LogLevel::kOff);
  CNV_LOG_ERROR << f();
  EXPECT_EQ(calls, 1);
}

TEST_F(UtilLogTest, EnabledDebugLineKeepsItsFormat) {
  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  CNV_LOG_DEBUG << "link " << 3 << " drops " << 1.5;
  CNV_LOG_ERROR << "bad";
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[DEBUG] link 3 drops 1.5\n[ERROR] bad\n");
}

TEST_F(UtilLogTest, ElseBindsToTheCallersIf) {
  SetLogLevel(LogLevel::kDebug);
  for (const bool c : {true, false}) {
    bool else_taken = false;
    testing::internal::CaptureStderr();
    if (c)
      CNV_LOG_WARN << "then";
    else
      else_taken = true;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(else_taken, !c);
    EXPECT_EQ(err, c ? "[WARN] then\n" : "");
  }
}

}  // namespace
}  // namespace cnv
