// Tests for the structured logger (common/log.h): level filtering, JSON
// line shape and concurrent writers.

#include "common/log.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pso {
namespace {

// Captures the sink (stderr) for the test's duration and restores the
// default level afterwards, so tests cannot leak logger state.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log::SetMinLevel(log::Level::kDebug);
    testing::internal::CaptureStderr();
  }
  void TearDown() override {
    if (capturing_) TakeCaptured();
    log::SetMinLevel(log::Level::kWarn);
  }

  // Ends the capture and returns what the sink wrote.
  std::string TakeCaptured() {
    capturing_ = false;
    return testing::internal::GetCapturedStderr();
  }

 private:
  bool capturing_ = true;
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST_F(LogTest, LevelFilteringDropsBelowMin) {
  log::SetMinLevel(log::Level::kWarn);
  PSO_LOG(DEBUG) << "dropped";
  PSO_LOG(INFO) << "dropped too";
  PSO_LOG(WARN) << "kept";
  PSO_LOG(ERROR) << "kept too";
  std::string out = TakeCaptured();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_NE(out.find("kept"), std::string::npos);
  EXPECT_NE(out.find("kept too"), std::string::npos);
  EXPECT_EQ(Lines(out).size(), 2u);
}

TEST_F(LogTest, ShouldLogMatchesMinLevel) {
  log::SetMinLevel(log::Level::kInfo);
  EXPECT_FALSE(log::ShouldLog(log::Level::kDebug));
  EXPECT_TRUE(log::ShouldLog(log::Level::kInfo));
  EXPECT_TRUE(log::ShouldLog(log::Level::kError));
}

TEST_F(LogTest, JsonLineShape) {
  PSO_LOG(WARN).Field("block", 17).Field("ratio", 0.5) << "sat exhausted";
  std::string out = TakeCaptured();
  std::vector<std::string> captured = Lines(out);
  ASSERT_EQ(captured.size(), 1u);
  const std::string& line = captured[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"src\":\"log_test.cc:"), std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"sat exhausted\""), std::string::npos);
  EXPECT_NE(line.find("\"block\":\"17\""), std::string::npos);
  EXPECT_NE(line.find("\"ratio\":\"0.5\""), std::string::npos);
  EXPECT_NE(line.find("\"ts_us\":"), std::string::npos);
  EXPECT_NE(line.find("\"thread\":"), std::string::npos);
}

TEST_F(LogTest, MessageEscapesJsonMetacharacters) {
  PSO_LOG(WARN).Field("path", "a\"b\\c") << "line\nbreak";
  std::string out = TakeCaptured();
  EXPECT_NE(out.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(out.find("a\\\"b\\\\c"), std::string::npos);
}

TEST_F(LogTest, ParseLevelRoundTrips) {
  log::Level level = log::Level::kError;
  EXPECT_TRUE(log::ParseLevel("debug", &level));
  EXPECT_EQ(level, log::Level::kDebug);
  EXPECT_TRUE(log::ParseLevel("warn", &level));
  EXPECT_EQ(level, log::Level::kWarn);
  EXPECT_FALSE(log::ParseLevel("loud", &level));
  EXPECT_EQ(level, log::Level::kWarn);  // untouched on failure
  EXPECT_STREQ(log::LevelName(log::Level::kInfo), "info");
}

TEST_F(LogTest, ConcurrentWritersEmitOneLineEach) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        PSO_LOG(INFO).Field("t", t).Field("i", i) << "concurrent";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::string> lines = Lines(TakeCaptured());
  EXPECT_EQ(lines.size(), kThreads * kPerThread);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST_F(LogTest, InitializedAfterConfiguration) {
  EXPECT_TRUE(log::Initialized());  // SetUp set the level
}

}  // namespace
}  // namespace pso
