// Unit tests for the failpoint layer (common/failpoint.h): spec parsing,
// trigger semantics, and the deterministic backoff helper that the campaign
// supervisor builds on. The kill/torn/stall actions that terminate or block
// the process are exercised end-to-end in test_supervisor.cc, where they
// fire inside forked worker processes.
#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/failpoint.h"

namespace gfi {
namespace {

/// Every test must leave the process with no spec installed: other suites
/// in this binary (campaign, journal) run the same instrumented sites.
struct SpecGuard {
  ~SpecGuard() { (void)fp::set_spec(""); }
};

TEST(Failpoint, DisabledByDefaultAndAfterClearing) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("").is_ok());
  EXPECT_FALSE(fp::enabled());
  EXPECT_EQ(fp::spec(), "");
  EXPECT_FALSE(fp::hit("journal.append"));

  ASSERT_TRUE(fp::set_spec("journal.append=err").is_ok());
  EXPECT_TRUE(fp::enabled());
  ASSERT_TRUE(fp::set_spec("").is_ok());
  EXPECT_FALSE(fp::enabled());
  EXPECT_FALSE(fp::hit("journal.append"));
}

TEST(Failpoint, UnconditionalErrFiresEveryTimeOnItsSiteOnly) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("journal.append=err").is_ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fp::hit("journal.append").action, fp::Action::kErr);
  }
  EXPECT_FALSE(fp::hit("journal.flush"));
  EXPECT_FALSE(fp::hit("heartbeat.write"));
}

TEST(Failpoint, HitTriggerFiresExactlyOnce) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("site=err@hit=3").is_ok());
  EXPECT_FALSE(fp::hit("site"));
  EXPECT_FALSE(fp::hit("site"));
  EXPECT_EQ(fp::hit("site").action, fp::Action::kErr);  // 3rd evaluation
  EXPECT_FALSE(fp::hit("site"));
  EXPECT_FALSE(fp::hit("site"));
}

TEST(Failpoint, EveryTriggerFiresPeriodically) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("site=err@every=3").is_ok());
  int fired = 0;
  for (int i = 1; i <= 9; ++i) {
    if (fp::hit("site")) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired on evaluation " << i;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST(Failpoint, KeyTriggerMatchesTheCoordinateNotTheCount) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("inject.execute=err@key=7").is_ok());
  EXPECT_FALSE(fp::hit("inject.execute", 5));
  EXPECT_EQ(fp::hit("inject.execute", 7).action, fp::Action::kErr);
  // key= keeps matching (a poison injection is poisonous on every attempt).
  EXPECT_EQ(fp::hit("inject.execute", 7).action, fp::Action::kErr);
  // A site evaluated without a coordinate can never match key=.
  EXPECT_FALSE(fp::hit("inject.execute"));
  EXPECT_FALSE(fp::hit("inject.execute", fp::kAnyKey));
}

TEST(Failpoint, MultipleClausesAndArgumentsParse) {
  SpecGuard guard;
  ASSERT_TRUE(
      fp::set_spec("journal.append=err@every=50;heartbeat.write=err;"
                   "campaign.injection=kill:9@hit=100")
          .is_ok());
  EXPECT_TRUE(fp::enabled());
  EXPECT_EQ(fp::hit("heartbeat.write").action, fp::Action::kErr);
  EXPECT_FALSE(fp::hit("journal.append"));  // every=50: not the 50th yet
  EXPECT_FALSE(fp::hit("campaign.injection"));  // hit=100: not yet
  EXPECT_NE(fp::spec().find("kill:9"), std::string::npos);
}

TEST(Failpoint, OffClausesAreInertAndSetSpecReplacesThePrevious) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("journal.append=off").is_ok());
  EXPECT_FALSE(fp::enabled());
  EXPECT_FALSE(fp::hit("journal.append"));

  ASSERT_TRUE(fp::set_spec("journal.append=err").is_ok());
  EXPECT_EQ(fp::hit("journal.append").action, fp::Action::kErr);
  // Replacing the spec drops the old clause entirely.
  ASSERT_TRUE(fp::set_spec("journal.flush=err").is_ok());
  EXPECT_FALSE(fp::hit("journal.append"));
  EXPECT_EQ(fp::hit("journal.flush").action, fp::Action::kErr);
}

TEST(Failpoint, SetSpecResetsTriggerCounters) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("site=err@hit=2").is_ok());
  EXPECT_FALSE(fp::hit("site"));
  EXPECT_TRUE(fp::hit("site"));
  // Reinstalling the identical spec restarts the count — the property that
  // makes a relaunched worker replay the same failure schedule.
  ASSERT_TRUE(fp::set_spec("site=err@hit=2").is_ok());
  EXPECT_FALSE(fp::hit("site"));
  EXPECT_TRUE(fp::hit("site"));
}

TEST(Failpoint, MalformedSpecsAreRejectedAndLeaveTheOldSpecInstalled) {
  SpecGuard guard;
  ASSERT_TRUE(fp::set_spec("journal.append=err").is_ok());
  for (const char* bad : {
           "journal.append",           // no action
           "journal.append=",          // empty action
           "=err",                     // no site
           "journal.append=bogus",     // unknown action
           "journal.append=err@hit=0",    // hit is 1-based
           "journal.append=err@every=0",  // every must be positive
           "journal.append=err@hit=abc",  // non-numeric trigger
           "journal.append=err@when=3",   // unknown trigger
           "journal.append=stall",        // stall requires :ms
           "journal.append=err:junk",     // err takes no argument
       }) {
    EXPECT_FALSE(fp::set_spec(bad).is_ok()) << bad;
    // The previous good spec is still live.
    EXPECT_EQ(fp::spec(), "journal.append=err") << bad;
  }
  EXPECT_EQ(fp::hit("journal.append").action, fp::Action::kErr);
}

// ------------------------------------------------------------ backoff ----

TEST(Backoff, AttemptZeroAndZeroBaseAreImmediate) {
  EXPECT_EQ(backoff_delay_ms(0, 500, 10000, 42, 0), 0u);
  EXPECT_EQ(backoff_delay_ms(3, 0, 10000, 42, 0), 0u);
}

TEST(Backoff, DelaysAreDeterministicPerSeedAndStream) {
  for (u32 attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(backoff_delay_ms(attempt, 500, 10000, 42, 3),
              backoff_delay_ms(attempt, 500, 10000, 42, 3));
  }
  // Different streams (shards) decorrelate: at least one attempt differs.
  bool any_differ = false;
  for (u32 attempt = 1; attempt <= 8; ++attempt) {
    any_differ = any_differ || backoff_delay_ms(attempt, 500, 10000, 42, 0) !=
                                   backoff_delay_ms(attempt, 500, 10000, 42, 1);
  }
  EXPECT_TRUE(any_differ);
}

TEST(Backoff, EqualJitterStaysInsideTheExponentialWindow) {
  const u64 base = 100, cap = 5000;
  for (u32 attempt = 1; attempt <= 20; ++attempt) {
    for (u64 stream = 0; stream < 4; ++stream) {
      const u64 delay = backoff_delay_ms(attempt, base, cap, 7, stream);
      u64 window = cap;
      if (attempt - 1 < 63 && base <= (cap >> (attempt - 1))) {
        window = base << (attempt - 1);
      }
      EXPECT_GE(delay, window - window / 2) << attempt << "/" << stream;
      EXPECT_LE(delay, window) << attempt << "/" << stream;
      EXPECT_LE(delay, cap);
    }
  }
}

TEST(Backoff, HugeAttemptCountsSaturateAtTheCapWithoutOverflow) {
  for (const u32 attempt : {40u, 63u, 64u, 1000u, ~0u}) {
    const u64 delay = backoff_delay_ms(attempt, 500, 10000, 42, 0);
    EXPECT_GE(delay, 5000u);   // cap/2: jitter window floor
    EXPECT_LE(delay, 10000u);  // never above the cap
  }
}

}  // namespace
}  // namespace gfi
