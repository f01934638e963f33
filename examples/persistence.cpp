// Persistent object bases: update-programs as transactions.
//
// Opens a connection on a directory, imports an object base, commits two
// update-programs (each WAL-logged as a fact delta), checkpoints, then
// reopens the directory to demonstrate recovery — all through the
// client API.

#include <cstdio>
#include <iostream>

#include "api/api.h"
#include "core/pretty.h"

int main() {
  const std::string dir = "/tmp/verso_example_db";
  std::remove((dir + "/store.img").c_str());
  std::remove((dir + "/store.plog").c_str());
  std::remove((dir + "/wal.log").c_str());

  {
    verso::Result<std::unique_ptr<verso::Connection>> conn =
        verso::Connection::Open(dir);
    if (!conn.ok()) {
      std::cerr << conn.status().ToString() << "\n";
      return 1;
    }
    verso::Status loaded = (*conn)->ImportText(R"(
        phil.isa -> empl.  phil.pos -> mgr.   phil.sal -> 4000.
        bob.isa -> empl.   bob.boss -> phil.  bob.sal -> 4200.
    )");
    if (!loaded.ok()) {
      std::cerr << "import failed: " << loaded.ToString() << "\n";
      return 1;
    }

    std::unique_ptr<verso::Session> session = (*conn)->OpenSession();
    // Transaction 1: raises.
    verso::Result<verso::ResultSet> raised = session->Execute(R"(
        r1: mod[E].sal -> (S, S2) <- E.isa -> empl / pos -> mgr / sal -> S,
                                     S2 = S * 1.1 + 200.
        r2: mod[E].sal -> (S, S2) <- E.isa -> empl / sal -> S,
                                     not E.pos -> mgr, S2 = S * 1.1.
    )");
    // Transaction 2 runs on the *committed* base (raises already folded
    // into plain objects), so it addresses plain versions.
    verso::Result<verso::ResultSet> fired = session->Execute(R"(
        r3: del[E].* <- E.isa -> empl / boss -> B / sal -> SE,
                        B.isa -> empl / sal -> SB, SE > SB.
    )");
    if (!raised.ok() || !fired.ok()) {
      std::cerr << "execute failed\n";
      return 1;
    }
    std::cout << "committed " << (*conn)->epoch() << " transactions ("
              << (*conn)->wal_records_since_checkpoint()
              << " WAL records); checkpointing...\n";
    if (!(*conn)->Checkpoint().ok()) {
      std::cerr << "checkpoint failed\n";
      return 1;
    }
  }

  // Reopen in a fresh connection: state is recovered from the
  // checkpointed store image (plus any WAL suffix — none here).
  verso::Result<std::unique_ptr<verso::Connection>> reopened =
      verso::Connection::Open(dir);
  if (!reopened.ok()) {
    std::cerr << reopened.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n== recovered object base ==\n"
            << ObjectBaseToString((*reopened)->OpenSession()->base(),
                                  (*reopened)->symbols(),
                                  (*reopened)->versions());
  return 0;
}
