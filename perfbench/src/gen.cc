#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char kRichView[] =
    "CREATE VIEW rich AS "
    "r: derive X.rich -> yes <- X.isa -> empl / sal -> S, S > 50000.";
const char kChainView[] =
    "CREATE VIEW chain AS "
    "c1: derive X.chain -> Y <- X.boss -> Y. "
    "c2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.";
const char kRichDerive[] =
    "r: derive X.rich -> yes <- X.isa -> empl / sal -> S, S > 50000.";
const char kChainDerive[] =
    "c1: derive X.chain -> Y <- X.boss -> Y. "
    "c2: derive X.chain -> Z <- X.chain -> Y, Y.boss -> Z.";
const char kPayDerive[] = "p: derive X.pay -> S <- X.isa -> empl / sal -> S.";

std::string Emp(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "e%04d", i);
  return buf;
}

std::string Dept(int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d%02d", d);
  return buf;
}

Enterprise MakeEnterprise(const EnterpriseParams& params, uint64_t seed) {
  const int n = params.employees;
  if (n < 2 || n > 10000 || params.fanout < 2 || params.departments < 1 ||
      params.departments > 100 || n % params.departments != 0) {
    throw std::invalid_argument("unsupported enterprise parameters");
  }
  Rng rng(seed);
  Enterprise e;
  e.n = n;
  e.level.assign(n, 0);
  e.boss.assign(n, -1);
  e.alt.assign(n, -1);
  e.dept.assign(n, 0);
  e.mgr.assign(n, false);
  e.low.assign(n, 0);
  e.high.assign(n, 0);
  e.starts_high.assign(n, false);

  // The tree is built over positions (level order) and is the same for
  // every seed: levels of 1, f, f^2, ... positions (the last takes the
  // rest), position p of level l reports to position p mod |l-1| of the
  // level above, and every k-th position on level >= 2 is a mover whose
  // alt boss is the next position on its boss's level. The seed only
  // decides which employee sits at which position, so every seed loads
  // the same amount of work.
  std::vector<int> at(n);  // position -> employee
  for (int i = 0; i < n; ++i) at[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(at[i], at[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  std::vector<std::pair<int, int>> levels;  // [first, end) positions
  for (int first = 0, size = 1; first < n;
       first += size, size *= params.fanout) {
    levels.emplace_back(first, std::min(n, first + size));
  }
  e.depth = static_cast<int>(levels.size()) - 1;
  int mover_count = 0;
  for (int l = 0; l <= e.depth; ++l) {
    for (int pos = levels[l].first; pos < levels[l].second; ++pos) {
      const int i = at[pos];
      e.level[i] = l;
      e.mgr[i] = l < e.depth;
      if (l == 0) continue;
      const auto [up_first, up_end] = levels[l - 1];
      const int up_size = up_end - up_first;
      const int boss_pos = (pos - levels[l].first) % up_size;
      e.boss[i] = at[up_first + boss_pos];
      if (l >= 2 && params.mover_every > 0 &&
          ++mover_count % params.mover_every == 0) {
        e.alt[i] = at[up_first + (boss_pos + 1) % up_size];
      }
    }
  }

  // Departments: a seeded permutation cut into equal slices.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  const int dept_size = n / params.departments;
  e.members.assign(params.departments, {});
  for (int pos = 0; pos < n; ++pos) {
    e.dept[order[pos]] = pos / dept_size;
    e.members[pos / dept_size].push_back(order[pos]);
  }
  for (std::vector<int>& m : e.members) std::sort(m.begin(), m.end());

  for (int i = 0; i < n; ++i) {
    e.low[i] = kLowMin + static_cast<int64_t>(rng.Below(kLowMax - kLowMin + 1 -
                                                         kBulkMgrRaise));
    e.high[i] = kHighMin + kBulkMgrRaise +
                static_cast<int64_t>(
                    rng.Below(kHighMax - kHighMin + 1 - kBulkMgrRaise));
  }
  // Exactly half the employees start above the rich threshold.
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Below(static_cast<uint64_t>(i) + 1)]);
  }
  for (int pos = 0; pos < n / 2; ++pos) e.starts_high[order[pos]] = true;
  return e;
}

std::string BaseText(const Enterprise& e) {
  std::string out;
  out.reserve(static_cast<size_t>(e.n) * 128);
  for (int i = 0; i < e.n; ++i) {
    const std::string name = Emp(i);
    out += name + ".exists -> " + name + ". " + name + ".isa -> empl. " +
           name + ".sal -> " +
           std::to_string(e.starts_high[i] ? e.high[i] : e.low[i]) + ". " +
           name + ".dept -> " + Dept(e.dept[i]) + ".";
    if (e.boss[i] >= 0) out += " " + name + ".boss -> " + Emp(e.boss[i]) + ".";
    if (e.mgr[i]) out += " " + name + ".pos -> mgr.";
    if (e.alt[i] >= 0) out += " " + name + ".alt -> " + Emp(e.alt[i]) + ".";
    out += '\n';
  }
  return out;
}

std::vector<int> Ancestors(const std::vector<int>& boss, int i) {
  std::vector<int> up;
  for (int b = boss[i]; b >= 0; b = boss[b]) up.push_back(b);
  std::sort(up.begin(), up.end());
  return up;
}

std::vector<std::pair<int, int>> BossClosure(const std::vector<int>& boss) {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < static_cast<int>(boss.size()); ++i) {
    for (int b = boss[i]; b >= 0; b = boss[b]) pairs.emplace_back(i, b);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::string SetSalaryText(int i, int64_t salary) {
  const std::string name = Emp(i);
  return "t: mod[" + name + "].sal -> (S, S2) <- " + name +
         ".sal -> S, S2 = " + std::to_string(salary) + ".";
}

std::string PayQueryText(int i) {
  const std::string name = Emp(i);
  return "q: derive " + name + ".pay -> S <- " + name +
         ".isa -> empl / sal -> S.";
}

std::string UpQueryText(int i) {
  const std::string name = Emp(i);
  return "u1: derive " + name + ".up -> B <- " + name + ".boss -> B. " +
         "u2: derive " + name + ".up -> C <- " + name +
         ".up -> B, B.boss -> C.";
}

std::string BulkText(int sign) {
  const char* op = sign < 0 ? " - " : " + ";
  return std::string(
             "b1: mod[E].sal -> (S, S2) <- "
             "E.isa -> empl / pos -> mgr / sal -> S, S2 = S") +
         op + std::to_string(kBulkMgrRaise) +
         ".\n"
         "b2: mod[E].sal -> (S, S2) <- "
         "E.isa -> empl / sal -> S, not E.pos -> mgr, S2 = S" +
         op + std::to_string(kBulkRaise) +
         ".\n"
         "b3: ins[mod(E)].boss -> B2 <- mod(E).alt -> B2.\n"
         "b4: ins[mod(E)].alt -> B1 <- mod(E).alt -> B2 / boss -> B1.\n"
         "b5: del[ins(mod(E))].boss -> B1 <- mod(E).boss -> B1 / alt -> B2.\n"
         "b6: del[ins(mod(E))].alt -> B2 <- mod(E).alt -> B2 / boss -> B1.\n";
}

}  // namespace perfbench
