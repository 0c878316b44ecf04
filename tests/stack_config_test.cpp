// api::StackConfig knob registry: which flags and environment variables
// tune the stack. Parameters that only one bench sets (mirror legs, fault
// plans, rebuild rate, fleet tenants) are not stack knobs, so the CLI
// rejects them instead of accepting and ignoring them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/stack_config.hpp"

using namespace mobiceal;
using api::StackConfig;

namespace {

struct Retired {
  const char* flag;
  const char* env;
};

constexpr Retired kRetired[] = {
    {"--fleet-tenants", "MOBICEAL_FLEET_TENANTS"},
    {"--mirror", "MOBICEAL_MIRROR"},
    {"--fault-seed", "MOBICEAL_FAULT_SEED"},
    {"--fault-read-ppm", "MOBICEAL_FAULT_READ_PPM"},
    {"--fault-drop-member", "MOBICEAL_FAULT_DROP_MEMBER"},
    {"--rebuild-rate", "MOBICEAL_REBUILD_RATE"},
};

/// apply_knobs over a default config with `args` after a program name.
StackConfig applied(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  StackConfig c;
  c.apply_knobs(static_cast<int>(argv.size()), argv.data());
  return c;
}

}  // namespace

TEST(StackConfig, RegisteredKnobsApplyFromFlagsAndEnvironment) {
  EXPECT_TRUE(StackConfig::is_knob_flag("--stripes"));
  EXPECT_TRUE(StackConfig::is_knob_flag("--stripes=4"));
  EXPECT_FALSE(StackConfig::is_knob_flag("--stripesx"));
  ASSERT_EQ(setenv("MOBICEAL_QUEUE_DEPTH", "8", 1), 0);
  const StackConfig c = applied({"--stripes", "4", "--ftl=1"});
  unsetenv("MOBICEAL_QUEUE_DEPTH");
  EXPECT_EQ(c.stripe_count, 4u);
  EXPECT_EQ(c.ftl_mode, 1u);
  EXPECT_EQ(c.queue_depth, 8u);
  EXPECT_FALSE(c == StackConfig{});
}

TEST(StackConfig, RetiredBenchParametersAreNotKnobs) {
  std::vector<std::string> args;
  for (const Retired& r : kRetired) {
    const std::string with_value = std::string(r.flag) + "=3";
    EXPECT_FALSE(StackConfig::is_knob_flag(r.flag)) << r.flag;
    EXPECT_FALSE(StackConfig::is_knob_flag(with_value.c_str())) << r.flag;
    ASSERT_EQ(setenv(r.env, "3", 1), 0);
    args.emplace_back(r.flag);
    args.emplace_back("3");
  }
  const StackConfig c = applied(args);
  for (const Retired& r : kRetired) unsetenv(r.env);
  EXPECT_TRUE(c == StackConfig{});
}
