// Materialized views walk-through: create derived-method programs as
// named views over a persistent connection, run update-programs, and
// read the incrementally maintained results — no recomputation.
//
// Demonstrates: CREATE VIEW / QUERY statements, DRed maintenance of a
// non-recursive and a recursive stratum, view stats, and the
// OnViewMaintenance trace event, all through the client API.

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "api/api.h"
#include "core/trace.h"

namespace {

bool Holds(verso::Session& session, const char* view, const char* object,
           const char* method, const char* result) {
  verso::Result<verso::ResultSet> rs =
      session.Execute(std::string("QUERY ") + view);
  if (!rs.ok()) return false;
  while (rs->Next()) {
    if (rs->object() == object && rs->method() == method &&
        rs->result_text() == result) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  std::string dir = std::filesystem::temp_directory_path() / "verso_views";
  std::filesystem::remove_all(dir);

  verso::Result<std::unique_ptr<verso::Connection>> conn =
      verso::Connection::Open(dir);
  if (!conn.ok()) {
    std::cerr << conn.status().ToString() << "\n";
    return 1;
  }

  // A small org chart.
  verso::Status loaded = (*conn)->ImportText(R"(
      ann.isa -> empl.   ann.boss -> bob.   ann.sal -> 2000.
      bob.isa -> empl.   bob.boss -> eve.   bob.sal -> 6000.
      eve.isa -> empl.   eve.sal -> 9000.
  )");
  if (!loaded.ok()) {
    std::cerr << loaded.ToString() << "\n";
    return 1;
  }

  // Trace view maintenance to stdout.
  verso::StreamTrace trace(std::cout, (*conn)->engine().symbols(),
                           (*conn)->engine().versions());
  (*conn)->SetTrace(&trace);

  // Two views: `rich` is a single non-recursive stratum (built-in
  // comparison), `chain` a recursive one; both are maintained with
  // delete-and-rederive. From CREATE VIEW on, every committed
  // transaction maintains both.
  std::unique_ptr<verso::Session> session = (*conn)->OpenSession();
  verso::Result<verso::ResultSet> ddl = session->Execute(
      "CREATE VIEW rich AS "
      "q: derive X.rich -> yes <- X.sal -> S, S > 5000.");
  if (!ddl.ok()) {
    std::cerr << ddl.status().ToString() << "\n";
    return 1;
  }
  ddl = session->Execute(
      "CREATE VIEW chain AS "
      "q1: derive X.chain -> Y <- X.boss -> Y."
      "q2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.");
  if (!ddl.ok()) {
    std::cerr << ddl.status().ToString() << "\n";
    return 1;
  }

  std::printf("ann.chain -> eve initially: %s\n",
              Holds(*session, "chain", "ann", "chain", "eve") ? "yes"
                                                              : "no");

  // Transaction 1: ann is promoted to report directly to eve.
  verso::Result<verso::ResultSet> t1 =
      session->Execute("t: mod[ann].boss -> (bob, eve).");
  if (!t1.ok()) return 1;

  // Transaction 2: ann gets a big raise (crosses the `rich` bar).
  verso::Result<verso::ResultSet> t2 = session->Execute(
      "t: mod[ann].sal -> (S, S2) <- ann.sal -> S, S2 = S * 4.");
  if (!t2.ok()) return 1;

  std::printf("ann.chain -> bob after promotion: %s\n",
              Holds(*session, "chain", "ann", "chain", "bob") ? "yes"
                                                              : "no");
  std::printf("ann.rich after the raise: %s\n",
              Holds(*session, "rich", "ann", "rich", "yes") ? "yes" : "no");

  verso::Result<verso::ViewStats> stats = (*conn)->GetViewStats("chain");
  if (!stats.ok()) return 1;
  std::printf(
      "chain view: %llu maintenance runs, +%llu/-%llu facts, "
      "%llu overdeleted, %llu rederived\n",
      static_cast<unsigned long long>(stats->maintenance_runs),
      static_cast<unsigned long long>(stats->facts_added),
      static_cast<unsigned long long>(stats->facts_removed),
      static_cast<unsigned long long>(stats->overdeleted),
      static_cast<unsigned long long>(stats->rederived));
  return 0;
}
