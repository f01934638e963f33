// FaultInjectingEnv semantics: the deterministic in-memory filesystem the
// crash-recovery torture harness is built on. These tests pin down the
// oracle itself — op counting, fault kinds, short writes, crash behavior —
// so the torture tests can trust it.

#include <gtest/gtest.h>

#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;
using OpFilter = FaultInjectingEnv::OpFilter;

TEST(FaultEnvTest, InMemoryFileOpsRoundTrip) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.EnsureDirectory("/d").ok());
  EXPECT_TRUE(env.FileExists("/d"));
  EXPECT_FALSE(env.FileExists("/d/f"));
  ASSERT_TRUE(env.WriteFile("/d/f", "hello").ok());
  EXPECT_TRUE(env.FileExists("/d/f"));
  EXPECT_EQ(*env.ReadFile("/d/f"), "hello");
  ASSERT_TRUE(env.AppendFile("/d/f", " world").ok());
  EXPECT_EQ(*env.ReadFile("/d/f"), "hello world");
  EXPECT_EQ(*env.FileSize("/d/f"), 11u);
  ASSERT_TRUE(env.TruncateFile("/d/f", 5).ok());
  EXPECT_EQ(*env.ReadFile("/d/f"), "hello");
  ASSERT_TRUE(env.RenameFile("/d/f", "/d/g").ok());
  EXPECT_FALSE(env.FileExists("/d/f"));
  EXPECT_EQ(*env.ReadFile("/d/g"), "hello");
  ASSERT_TRUE(env.RemoveFile("/d/g").ok());
  EXPECT_FALSE(env.FileExists("/d/g"));
  // Posix parity: removing a missing file is not an error, reading one is.
  EXPECT_TRUE(env.RemoveFile("/d/g").ok());
  EXPECT_FALSE(env.ReadFile("/d/g").ok());
}

TEST(FaultEnvTest, WriteFileAtomicGoesThroughWriteAndRename) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.WriteFileAtomic("/f", "v1").ok());
  EXPECT_EQ(*env.ReadFile("/f"), "v1");
  // The two-step sequence is visible to the fault plan: crashing the
  // rename leaves the OLD contents in place (the atomicity being tested
  // by the checkpoint crash-window suite).
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kCrash;
  plan.filter = OpFilter::kRename;
  plan.partial_bytes = 0;  // the rename did not happen
  env.SetPlan(plan);
  EXPECT_FALSE(env.WriteFileAtomic("/f", "v2").ok());
  auto survivor = env.CloneSurvivingFiles();
  EXPECT_EQ(*survivor->ReadFile("/f"), "v1");
}

TEST(FaultEnvTest, FailsNthMutatingOpThenRecovers) {
  FaultInjectingEnv env;
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 1;  // the second mutating op
  plan.kind = FaultKind::kEio;
  env.SetPlan(plan);
  ASSERT_TRUE(env.WriteFile("/a", "x").ok());  // op 0
  Status s = env.WriteFile("/b", "y");         // op 1: injected
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(env.faults_hit(), 1u);
  EXPECT_FALSE(env.crashed());
  // One-shot plan (repeat = 1): the env works again afterwards.
  ASSERT_TRUE(env.WriteFile("/c", "z").ok());  // op 2
  EXPECT_EQ(env.mutating_ops(), 3u);
}

TEST(FaultEnvTest, TransientKindIsRetryableStatus) {
  FaultInjectingEnv env;
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kTransient;
  env.SetPlan(plan);
  Status s = env.AppendFile("/a", "x");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoTransient);
  ASSERT_TRUE(env.AppendFile("/a", "x").ok());
}

TEST(FaultEnvTest, RepeatFailsConsecutiveMatchingOps) {
  FaultInjectingEnv env;
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.repeat = 3;
  plan.kind = FaultKind::kTransient;
  plan.filter = OpFilter::kAppend;
  env.SetPlan(plan);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(env.AppendFile("/a", "x").ok()) << i;
    // Non-append ops do not consume the append budget (the storage
    // layer's rollback TruncateFile between retries relies on this).
    ASSERT_TRUE(env.WriteFile("/b", "y").ok()) << i;
  }
  EXPECT_TRUE(env.AppendFile("/a", "x").ok());
  EXPECT_EQ(env.faults_hit(), 3u);
}

TEST(FaultEnvTest, ShortWriteLandsPrefixThenFails) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.AppendFile("/wal", "AAAA").ok());
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kEio;
  plan.partial_bytes = 2;
  plan.filter = OpFilter::kAppend;
  env.SetPlan(plan);
  EXPECT_FALSE(env.AppendFile("/wal", "BBBB").ok());
  // The short write is visible: the old contents plus a prefix of the
  // failed payload — the torn-tail shape recovery must cope with.
  EXPECT_EQ(*env.ReadFile("/wal"), "AAAABB");
}

TEST(FaultEnvTest, CrashKillsEverythingAfterward) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "kept").ok());
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 1;
  plan.kind = FaultKind::kCrash;
  plan.partial_bytes = 1;
  env.SetPlan(plan);
  EXPECT_FALSE(env.WriteFile("/b", "lost").ok());
  EXPECT_TRUE(env.crashed());
  // The process is dead: reads, writes, everything fails now.
  EXPECT_FALSE(env.ReadFile("/a").ok());
  EXPECT_FALSE(env.WriteFile("/c", "x").ok());
  EXPECT_FALSE(env.FileSize("/a").ok());
  // The surviving disk image holds the pre-crash state plus the partial
  // payload of the crashing op, and is itself fully functional.
  auto survivor = env.CloneSurvivingFiles();
  EXPECT_FALSE(survivor->crashed());
  EXPECT_EQ(*survivor->ReadFile("/a"), "kept");
  EXPECT_EQ(*survivor->ReadFile("/b"), "l");
  ASSERT_TRUE(survivor->WriteFile("/c", "alive").ok());
}

TEST(FaultEnvTest, FilteredPlanSkipsNonMatchingOps) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "x").ok());
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kEio;
  plan.filter = OpFilter::kRemove;
  env.SetPlan(plan);
  // Writes, appends, renames sail through; the first REMOVE fails.
  ASSERT_TRUE(env.WriteFile("/b", "y").ok());
  ASSERT_TRUE(env.AppendFile("/b", "y").ok());
  ASSERT_TRUE(env.RenameFile("/b", "/c").ok());
  EXPECT_FALSE(env.RemoveFile("/a").ok());
  EXPECT_TRUE(env.FileExists("/a"));  // partial_bytes == 0: did not happen
  ASSERT_TRUE(env.RemoveFile("/a").ok());
}

TEST(FaultEnvTest, NonDataOpPartialBytesMeansItHappened) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.WriteFile("/a", "x").ok());
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kCrash;
  plan.filter = OpFilter::kRemove;
  plan.partial_bytes = 1;  // the remove completed, then the crash hit
  env.SetPlan(plan);
  EXPECT_FALSE(env.RemoveFile("/a").ok());
  auto survivor = env.CloneSurvivingFiles();
  EXPECT_FALSE(survivor->FileExists("/a"));
}

TEST(FaultEnvTest, SyncsAreMutatingOpsThatChangeNoFile) {
  FaultInjectingEnv env;
  ASSERT_TRUE(env.WriteFile("/d/f", "x").ok());
  ASSERT_TRUE(env.SyncFile("/d/f").ok());
  ASSERT_TRUE(env.SyncDir("/d").ok());
  EXPECT_EQ(env.mutating_ops(), 3u);
  EXPECT_EQ(*env.ReadFile("/d/f"), "x");
  // Posix parity: there is no file to sync.
  EXPECT_FALSE(env.SyncFile("/d/missing").ok());
  // A failed sync is a fault like any other and leaves the file alone.
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kEio;
  plan.filter = OpFilter::kSync;
  env.SetPlan(plan);
  ASSERT_TRUE(env.AppendFile("/d/f", "y").ok());
  EXPECT_FALSE(env.SyncFile("/d/f").ok());
  EXPECT_EQ(env.faults_hit(), 1u);
  EXPECT_EQ(*env.ReadFile("/d/f"), "xy");
  ASSERT_TRUE(env.SyncDir("/d").ok());
}

TEST(FaultEnvTest, WriteFileAtomicSyncsTheFileBeforeTheRenameAndTheDirAfter) {
  // Four steps: write the temp file, sync it, rename it, sync the
  // directory. A failed file sync installs nothing; a failed directory
  // sync comes after the rename, so the new contents are in place.
  FaultInjectingEnv env;
  ASSERT_TRUE(env.WriteFileAtomic("/d/f", "v1").ok());
  EXPECT_EQ(env.mutating_ops(), 4u);
  FaultInjectingEnv::FaultPlan plan;
  plan.fail_at = 0;
  plan.kind = FaultKind::kEio;
  plan.filter = OpFilter::kSync;
  env.SetPlan(plan);
  EXPECT_FALSE(env.WriteFileAtomic("/d/f", "v2").ok());
  EXPECT_EQ(*env.ReadFile("/d/f"), "v1");
  EXPECT_FALSE(env.FileExists("/d/f.tmp"));
  plan.fail_at = 1;
  env.SetPlan(plan);
  EXPECT_FALSE(env.WriteFileAtomic("/d/f", "v3").ok());
  EXPECT_EQ(*env.ReadFile("/d/f"), "v3");
  EXPECT_FALSE(env.FileExists("/d/f.tmp"));
}

}  // namespace
}  // namespace verso
