// Store component tests: transactional put/delete/scan and the meta
// table, abort-by-drop, persistence across reopen, atomicity under
// injected I/O failure, the image's strict CRC, and the image bytes
// themselves, pinned so a directory written by an earlier build opens
// unchanged.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "store/store.h"
#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;
using OpFilter = FaultInjectingEnv::OpFilter;

std::unique_ptr<Store> MustOpen(Env* env) {
  Result<std::unique_ptr<Store>> store = Store::Open("/store", env);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

using EntryMap = std::map<std::string, std::string>;

/// Every data entry of `store`, read the way the database reads it: one
/// full-range Scan.
EntryMap Entries(const Store& store) {
  EntryMap entries;
  Status scanned =
      store.Scan("", [&](std::string_view key, std::string_view value) {
        entries.emplace(key, value);
        return Status::Ok();
      });
  EXPECT_TRUE(scanned.ok()) << scanned.ToString();
  return entries;
}

TEST(StoreTest, PutGetDeleteScanAndMetaRoundTrip) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(&env);
  EXPECT_EQ(store->key_count(), 0u);

  WriteTransaction txn = store->BeginWrite();
  txn.Put("b/bob", "2");
  txn.Put("b/ann", "1");
  txn.Put("c/cfg", "x");
  txn.PutMeta("generation", 7);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(txn.committed());
  EXPECT_EQ(txn.Commit().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(store->key_count(), 3u);
  EXPECT_EQ(Entries(*store),
            (EntryMap{{"b/ann", "1"}, {"b/bob", "2"}, {"c/cfg", "x"}}));

  // Prefix scan: only "b/" keys, ascending.
  std::vector<std::string> keys;
  ASSERT_TRUE(store
                  ->Scan("b/",
                         [&](std::string_view key, std::string_view) {
                           keys.emplace_back(key);
                           return Status::Ok();
                         })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"b/ann", "b/bob"}));

  Result<uint64_t> generation = store->GetMeta("generation");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 7u);
  EXPECT_EQ(store->GetMeta("missing").status().code(), StatusCode::kNotFound);

  WriteTransaction del = store->BeginWrite();
  del.Delete("b/bob");
  del.Delete("never-existed");  // absent-key delete is a no-op
  ASSERT_TRUE(del.Commit().ok());
  EXPECT_EQ(Entries(*store), (EntryMap{{"b/ann", "1"}, {"c/cfg", "x"}}));
}

TEST(StoreTest, DroppedTransactionIsInvisibleAndStateSurvivesReopen) {
  FaultInjectingEnv env;
  {
    std::unique_ptr<Store> store = MustOpen(&env);
    WriteTransaction keep = store->BeginWrite();
    keep.Put("b/ann", "1");
    keep.PutMeta("generation", 1);
    ASSERT_TRUE(keep.Commit().ok());
    {
      // Staged but never committed: destroyed = aborted.
      WriteTransaction dropped = store->BeginWrite();
      dropped.Put("b/ghost", "boo");
      dropped.Delete("b/ann");
    }
    EXPECT_EQ(Entries(*store), (EntryMap{{"b/ann", "1"}}));
  }
  std::unique_ptr<Store> reopened = MustOpen(&env);
  EXPECT_EQ(Entries(*reopened), (EntryMap{{"b/ann", "1"}}));
  Result<uint64_t> generation = reopened->GetMeta("generation");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 1u);
}

TEST(StoreTest, FailedCommitLeavesStoreUnchangedOnDiskAndInMemory) {
  // A commit writes the temp image, syncs it and renames it into place:
  // fail the data write, and the sync that follows it.
  for (OpFilter filter : {OpFilter::kWrite, OpFilter::kSync}) {
    SCOPED_TRACE(filter == OpFilter::kSync ? "sync" : "write");
    FaultInjectingEnv env;
    std::unique_ptr<Store> store = MustOpen(&env);
    WriteTransaction first = store->BeginWrite();
    first.Put("b/ann", "1");
    ASSERT_TRUE(first.Commit().ok());

    FaultInjectingEnv::FaultPlan plan;
    plan.fail_at = 0;
    plan.kind = FaultKind::kEio;
    plan.partial_bytes = 5;  // writes: a torn partial write, the nastiest
    plan.filter = filter;
    env.SetPlan(plan);
    WriteTransaction failing = store->BeginWrite();
    failing.Put("b/bob", "2");
    failing.Delete("b/ann");
    EXPECT_FALSE(failing.Commit().ok());
    EXPECT_FALSE(failing.committed());
    env.Disarm();

    // In-memory state unchanged...
    EXPECT_EQ(Entries(*store), (EntryMap{{"b/ann", "1"}}));
    // ...no temp image left holding the space the next commit needs...
    EXPECT_FALSE(env.FileExists("/store/store.img.tmp"));
    // ...and the disk image recovers to the same committed state (the
    // image was replaced atomically or not at all).
    std::unique_ptr<Store> reopened = MustOpen(&env);
    EXPECT_EQ(Entries(*reopened), (EntryMap{{"b/ann", "1"}}));

    // The store stays usable: the next commit lands.
    WriteTransaction retry = store->BeginWrite();
    retry.Put("b/bob", "2");
    ASSERT_TRUE(retry.Commit().ok());
    EXPECT_EQ(Entries(*store), (EntryMap{{"b/ann", "1"}, {"b/bob", "2"}}));
  }
}

TEST(StoreTest, EmptyDirectoryIsRefused) {
  // A store always lives in a directory; ephemeral databases open none.
  FaultInjectingEnv env;
  Result<std::unique_ptr<Store>> store = Store::Open("", &env);
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(env.files().empty());  // nothing persisted
}

TEST(StoreTest, FutureFormatVersionRefusesToOpen) {
  FaultInjectingEnv env;
  {
    std::unique_ptr<Store> store = MustOpen(&env);
    WriteTransaction txn = store->BeginWrite();
    txn.Put("k", "v");
    txn.PutMeta("format", 999);  // "written by a newer build"
    ASSERT_TRUE(txn.Commit().ok());
  }
  Result<std::unique_ptr<Store>> reopened = Store::Open("/store", &env);
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
      << reopened.status().ToString();
}

TEST(StoreTest, MemImageDamageIsCorruptionNotAnEmptyStore) {
  FaultInjectingEnv env;
  {
    std::unique_ptr<Store> store = MustOpen(&env);
    WriteTransaction txn = store->BeginWrite();
    txn.Put("b/ann", "1");
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Flip a payload byte: the image's CRC must catch it and the open must
  // FAIL — the image is the checkpoint of record, so reading damage as
  // "empty store" would silently drop the base.
  std::string image = env.files().at("/store/store.img");
  image[image.size() - 1] ^= 0x40;
  env.SetFileContents("/store/store.img", image);
  Result<std::unique_ptr<Store>> reopened = Store::Open("/store", &env);
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(StoreTest, ImageBytesArePinned) {
  // store.img as the build that also shipped a page-log store wrote it,
  // at its default options, for these two commits: one CRC'd frame whose
  // payload lists every data entry in key order, then the meta table
  // (the format stamp and the generation). The writer must still produce
  // these bytes, and the reader must still read them.
  const std::string golden(
      "\x29\x00\x00\xc0\x18\xfd\x1a\x67\xfc\xe2\x7a\xeb\x04\x00\x05\x62"
      "\x2f\x61\x6e\x6e\x01\x31\x00\x05\x63\x2f\x63\x66\x67\x01\x78\x02"
      "\x06\x66\x6f\x72\x6d\x61\x74\x01\x02\x0a\x67\x65\x6e\x65\x72\x61"
      "\x74\x69\x6f\x6e\x07",
      53);
  FaultInjectingEnv env;
  {
    std::unique_ptr<Store> store = MustOpen(&env);
    WriteTransaction one = store->BeginWrite();
    one.Put("b/bob", "2");
    one.Put("b/ann", "1");
    one.PutMeta("generation", 7);
    ASSERT_TRUE(one.Commit().ok());
    WriteTransaction two = store->BeginWrite();
    two.Delete("b/bob");
    two.Put("c/cfg", "x");
    ASSERT_TRUE(two.Commit().ok());
  }
  EXPECT_EQ(env.files().at("/store/store.img"), golden);

  FaultInjectingEnv disk;
  disk.SetFileContents("/store/store.img", golden);
  std::unique_ptr<Store> reopened = MustOpen(&disk);
  EXPECT_EQ(Entries(*reopened), (EntryMap{{"b/ann", "1"}, {"c/cfg", "x"}}));
  Result<uint64_t> generation = reopened->GetMeta("generation");
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 7u);
}

}  // namespace
}  // namespace verso
