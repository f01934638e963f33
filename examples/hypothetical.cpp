// Hypothetical reasoning (paper Section 2.3, Example 2): "would peter be
// the richest employee after a (non-linear) salary raise?"
//
// The raise is performed on version mod(e) and *revised right away* on
// mod(mod(e)); the answer is derived from the middle (hypothetical)
// versions while the committed object base keeps the original salaries.
// Demonstrates querying result(P) — the ResultSet's update_result() —
// for intermediate versions through the client API.

#include <iostream>

#include "api/api.h"
#include "core/pretty.h"

int main() {
  verso::Result<std::unique_ptr<verso::Connection>> conn =
      verso::Connection::OpenInMemory();
  if (!conn.ok()) {
    std::cerr << conn.status().ToString() << "\n";
    return 1;
  }
  verso::Status loaded = (*conn)->ImportText(R"(
      peter.isa -> empl.  peter.sal -> 100.  peter.factor -> 3.
      anna.isa -> empl.   anna.sal -> 200.   anna.factor -> 1.
      felix.isa -> empl.  felix.sal -> 120.  felix.factor -> 2.
  )");
  if (!loaded.ok()) {
    std::cerr << loaded.ToString() << "\n";
    return 1;
  }

  std::unique_ptr<verso::Session> session = (*conn)->OpenSession();
  verso::Result<verso::ResultSet> rs = session->Execute(R"(
      % r1: the hypothetical (non-linear) raise ...
      r1: mod[E].sal -> (S, S2) <- E.sal -> S / factor -> F, S2 = S * F.
      % r2: ... revised right away: mod(mod(e)) equals the e-version again.
      r2: mod[mod(E)].sal -> (S2, S) <- mod(E).sal -> S2, E.sal -> S.
      % r3/r4: answer `richest` from the middle version.
      r3: ins[mod(mod(peter))].richest -> no <-
          mod(E).sal -> SE, mod(peter).sal -> SP, SE > SP.
      r4: ins[ins(mod(mod(peter)))].richest -> yes <-
          not ins(mod(mod(peter))).richest -> no.
  )");
  if (!rs.ok()) {
    std::cerr << rs.status().ToString() << "\n";
    return 1;
  }

  // Inspect the hypothetical stage directly in result(P): mod(peter)
  // carries the raised salary, mod(mod(peter)) the restored one. The
  // engine accessor is the advanced path for handle-level lookups.
  const verso::ObjectBase& result = *rs->update_result();
  verso::SymbolTable& sym = (*conn)->engine().symbols();
  verso::VersionTable& ver = (*conn)->engine().versions();
  verso::Vid peter = ver.OfOid(sym.Symbol("peter"));
  verso::Vid mod_peter = ver.Child(peter, verso::UpdateKind::kModify);

  auto salary_of = [&](verso::Vid vid) -> std::string {
    const verso::VersionState* state = result.StateOf(vid);
    if (state == nullptr) return "<no version>";
    verso::VersionState::Run apps = state->Find(sym.FindMethod("sal"));
    if (apps.empty()) return "<no sal>";
    return sym.OidToString(apps[0].result);
  };

  std::cout << "peter's salary, hypothetically raised (mod(peter)):   "
            << salary_of(mod_peter) << "\n"
            << "peter's salary, revised (mod(mod(peter))):            "
            << salary_of(ver.Child(mod_peter, verso::UpdateKind::kModify))
            << "\n\n== committed object base (raises revised away) ==\n"
            << ObjectBaseToString(session->base(), sym, ver);
  return 0;
}
