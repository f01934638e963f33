// Store component tests, run against BOTH backends wherever the contract
// is backend-independent: transactional put/delete/scan and the meta
// table, abort-by-drop, persistence across reopen, and atomicity under
// injected I/O failure. Backend-specific recovery shapes (the mem image's
// strict CRC, the page log's torn-tail chop and compaction) get their own
// tests below.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "store/page_log_store.h"
#include "store/store.h"
#include "util/fault_env.h"

namespace verso {
namespace {

using FaultKind = FaultInjectingEnv::FaultKind;
using OpFilter = FaultInjectingEnv::OpFilter;

constexpr StoreBackend kBackends[] = {StoreBackend::kMem,
                                      StoreBackend::kPageLog};

std::unique_ptr<Store> MustOpen(StoreBackend backend, Env* env) {
  Result<std::unique_ptr<Store>> store = OpenStore(backend, "/store", env);
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
  for (StoreBackend backend : kBackends) {
    SCOPED_TRACE(StoreBackendName(backend));
    FaultInjectingEnv env;
    std::unique_ptr<Store> store = MustOpen(backend, &env);
    EXPECT_STREQ(store->name(), StoreBackendName(backend));
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
    EXPECT_EQ(store->GetMeta("missing").status().code(),
              StatusCode::kNotFound);

    WriteTransaction del = store->BeginWrite();
    del.Delete("b/bob");
    del.Delete("never-existed");  // absent-key delete is a no-op
    ASSERT_TRUE(del.Commit().ok());
    EXPECT_EQ(Entries(*store), (EntryMap{{"b/ann", "1"}, {"c/cfg", "x"}}));
  }
}

TEST(StoreTest, DroppedTransactionIsInvisibleAndStateSurvivesReopen) {
  for (StoreBackend backend : kBackends) {
    SCOPED_TRACE(StoreBackendName(backend));
    FaultInjectingEnv env;
    {
      std::unique_ptr<Store> store = MustOpen(backend, &env);
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
    std::unique_ptr<Store> reopened = MustOpen(backend, &env);
    EXPECT_EQ(Entries(*reopened), (EntryMap{{"b/ann", "1"}}));
    Result<uint64_t> generation = reopened->GetMeta("generation");
    ASSERT_TRUE(generation.ok());
    EXPECT_EQ(*generation, 1u);
  }
}

TEST(StoreTest, FailedCommitLeavesStoreUnchangedOnDiskAndInMemory) {
  // The write path differs per backend (mem = WriteFile tmp + sync +
  // rename, pagelog = append + sync), so fail the first matching op of
  // each: the data write, and the sync that follows it.
  struct Case {
    StoreBackend backend;
    OpFilter filter;
  };
  for (const Case& c : {Case{StoreBackend::kMem, OpFilter::kWrite},
                        Case{StoreBackend::kMem, OpFilter::kSync},
                        Case{StoreBackend::kPageLog, OpFilter::kAppend},
                        Case{StoreBackend::kPageLog, OpFilter::kSync}}) {
    SCOPED_TRACE(std::string(StoreBackendName(c.backend)) +
                 (c.filter == OpFilter::kSync ? " sync" : " write"));
    FaultInjectingEnv env;
    std::unique_ptr<Store> store = MustOpen(c.backend, &env);
    WriteTransaction first = store->BeginWrite();
    first.Put("b/ann", "1");
    ASSERT_TRUE(first.Commit().ok());

    FaultInjectingEnv::FaultPlan plan;
    plan.fail_at = 0;
    plan.kind = FaultKind::kEio;
    plan.partial_bytes = 5;  // writes: a torn partial write, the nastiest
    plan.filter = c.filter;
    env.SetPlan(plan);
    WriteTransaction failing = store->BeginWrite();
    failing.Put("b/bob", "2");
    failing.Delete("b/ann");
    EXPECT_FALSE(failing.Commit().ok());
    EXPECT_FALSE(failing.committed());
    env.Disarm();

    // In-memory state unchanged...
    EXPECT_EQ(Entries(*store), (EntryMap{{"b/ann", "1"}}));
    // ...and the disk image recovers to the same committed state (the
    // pagelog rolled back its torn frame; the mem image was replaced
    // atomically or not at all).
    std::unique_ptr<Store> reopened = MustOpen(c.backend, &env);
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
  for (StoreBackend backend : kBackends) {
    SCOPED_TRACE(StoreBackendName(backend));
    Result<std::unique_ptr<Store>> store = OpenStore(backend, "", &env);
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(env.files().empty());  // nothing persisted
  }
}

TEST(StoreTest, FutureFormatVersionRefusesToOpen) {
  for (StoreBackend backend : kBackends) {
    SCOPED_TRACE(StoreBackendName(backend));
    FaultInjectingEnv env;
    {
      std::unique_ptr<Store> store = MustOpen(backend, &env);
      WriteTransaction txn = store->BeginWrite();
      txn.Put("k", "v");
      txn.PutMeta("format", 999);  // "written by a newer build"
      ASSERT_TRUE(txn.Commit().ok());
    }
    Result<std::unique_ptr<Store>> reopened =
        OpenStore(backend, "/store", &env);
    EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
        << reopened.status().ToString();
  }
}

TEST(StoreTest, MemImageDamageIsCorruptionNotAnEmptyStore) {
  FaultInjectingEnv env;
  {
    std::unique_ptr<Store> store = MustOpen(StoreBackend::kMem, &env);
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
  Result<std::unique_ptr<Store>> reopened =
      OpenStore(StoreBackend::kMem, "/store", &env);
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(StoreTest, PageLogTornTailIsChoppedToLastCommit) {
  FaultInjectingEnv env;
  size_t first_commit_bytes = 0;
  {
    std::unique_ptr<Store> store = MustOpen(StoreBackend::kPageLog, &env);
    WriteTransaction one = store->BeginWrite();
    one.Put("b/ann", "1");
    ASSERT_TRUE(one.Commit().ok());
    first_commit_bytes = env.files().at("/store/store.plog").size();
    WriteTransaction two = store->BeginWrite();
    two.Put("b/bob", "2");
    ASSERT_TRUE(two.Commit().ok());
  }
  const std::string log = env.files().at("/store/store.plog");
  // Crash mid-second-frame: keep a prefix that tears the last record.
  ASSERT_GT(log.size(), first_commit_bytes + 3);
  env.SetFileContents("/store/store.plog",
                      log.substr(0, first_commit_bytes + 3));
  Result<std::unique_ptr<Store>> reopened =
      OpenStore(StoreBackend::kPageLog, "/store", &env);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto* pagelog = static_cast<PageLogStore*>(reopened->get());
  EXPECT_TRUE(pagelog->recovered_torn_tail());
  EXPECT_EQ(env.files().at("/store/store.plog").size(), first_commit_bytes);
  EXPECT_EQ(Entries(**reopened), (EntryMap{{"b/ann", "1"}}));

  // A zero-filled tail — the file's length reached disk before its data —
  // is a torn tail too, not a run of empty records.
  env.SetFileContents("/store/store.plog", log + std::string(16, '\0'));
  reopened = OpenStore(StoreBackend::kPageLog, "/store", &env);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  pagelog = static_cast<PageLogStore*>(reopened->get());
  EXPECT_TRUE(pagelog->recovered_torn_tail());
  EXPECT_EQ(env.files().at("/store/store.plog"), log);
  EXPECT_EQ(Entries(**reopened), (EntryMap{{"b/ann", "1"}, {"b/bob", "2"}}));
}

TEST(StoreTest, PageLogCompactsOnceDeadBytesDominate) {
  FaultInjectingEnv env;
  std::unique_ptr<Store> store = MustOpen(StoreBackend::kPageLog, &env);
  auto* pagelog = static_cast<PageLogStore*>(store.get());
  // Overwrite a handful of keys until well past the compaction floor:
  // almost every logged byte is dead, so compaction must have fired and
  // kept the file near one live image, far below the bytes appended.
  const std::string value(512, 'v');
  size_t appended = 0;
  for (int round = 0; round < 400; ++round) {
    WriteTransaction txn = store->BeginWrite();
    for (int k = 0; k < 4; ++k) {
      txn.Put("b/key" + std::to_string(k),
              value + std::to_string(round));
    }
    ASSERT_TRUE(txn.Commit().ok());
    appended += 4 * (value.size() + 16);
  }
  ASSERT_GT(appended, PageLogStore::kCompactMinBytes * 4);
  EXPECT_LT(pagelog->log_bytes(), PageLogStore::kCompactMinBytes * 2);
  EXPECT_LT(env.files().at("/store/store.plog").size(),
            PageLogStore::kCompactMinBytes * 2);

  // Everything still there, on disk and after replaying the compacted log.
  std::unique_ptr<Store> reopened = MustOpen(StoreBackend::kPageLog, &env);
  EntryMap entries = Entries(*reopened);
  EXPECT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries["b/key3"], value + "399");
}

}  // namespace
}  // namespace verso
