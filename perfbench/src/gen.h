#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

// Seeded input generation for the end-to-end benchmark. Everything the
// program under test receives is text produced here: the .vob base and
// every statement. Names and numbers are fixed-width (e0000..e4095,
// d00..d63, salaries 20000..89999, which zigzag-encode to three bytes),
// so every commit of one shape logs exactly the same number of WAL bytes
// whichever employee or department the seed picks.
namespace perfbench {

/// splitmix64: tiny, seedable, and independent of std:: distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// Salaries below the `rich` threshold (50000, in kRichView) are "low",
/// above it "high". Raises move a salary by at most kBulkMgrRaise, never
/// across the gap (kLowMax, kHighMin), so only the point_txn toggles
/// change the `rich` view.
constexpr int64_t kLowMin = 20000;
constexpr int64_t kLowMax = 48999;
constexpr int64_t kHighMin = 51000;
constexpr int64_t kHighMax = 89999;
/// bulk_rules raises: managers get kBulkMgrRaise, everyone else
/// kBulkRaise; the mirror commit subtracts the same amounts.
constexpr int64_t kBulkMgrRaise = 20;
constexpr int64_t kBulkRaise = 10;

struct EnterpriseParams {
  int employees = 4096;
  /// Level sizes grow by this factor (1, f, f^2, ...) until the last
  /// level takes the rest; bosses are spread evenly over the level above.
  int fanout = 4;
  /// Equal-sized departments (employees must be a multiple).
  int departments = 64;
  /// Every k-th employee on level >= 2 gets an `alt` boss on its boss's
  /// level (0: nobody). bulk_rules swaps boss and alt of these movers.
  int mover_every = 0;
};

/// The enterprise in the shape of the paper's running example: every
/// employee has exists/isa/sal/dept facts, a boss (except the root), `pos -> mgr`
/// when on a non-last level, and movers an `alt` boss.
struct Enterprise {
  int n = 0;
  int depth = 0;                 // deepest level (root is level 0)
  std::vector<int> level;
  std::vector<int> boss;         // -1 for the root
  std::vector<int> alt;          // -1 unless a mover
  std::vector<int> dept;
  std::vector<bool> mgr;
  std::vector<int64_t> low;      // each employee's two salaries
  std::vector<int64_t> high;
  std::vector<bool> starts_high;
  /// Employees of each department, ascending.
  std::vector<std::vector<int>> members;
};

Enterprise MakeEnterprise(const EnterpriseParams& params, uint64_t seed);

std::string Emp(int i);   // "e0042"
std::string Dept(int d);  // "d07"

/// The .vob text of the base with every employee at its start salary.
/// It carries each object's `exists` fact, which the engine would
/// otherwise add (as a base-wide delta) on the first commit.
std::string BaseText(const Enterprise& e);

/// (employee, ancestor) pairs of the boss closure under `boss`, sorted.
std::vector<std::pair<int, int>> BossClosure(const std::vector<int>& boss);
/// The ancestors of `i` under `boss`, sorted.
std::vector<int> Ancestors(const std::vector<int>& boss, int i);

// -- statement texts ---------------------------------------------------
extern const char kRichView[];       // CREATE VIEW rich (counting)
extern const char kChainView[];      // CREATE VIEW chain (recursive, DRed)
extern const char kRichDerive[];     // rich's rule as an ad-hoc query
extern const char kChainDerive[];    // chain's rules as an ad-hoc query
extern const char kPayDerive[];      // every employee's salary

/// One-object commit: sets employee i's salary to `salary`.
std::string SetSalaryText(int i, int64_t salary);
/// Point query: employee i's salary as `pay`.
std::string PayQueryText(int i);
/// Recursive point query: employee i's ancestors as `up`.
std::string UpQueryText(int i);
/// The bulk_rules program (Example 1 shape, three strata): raise every
/// salary by sign * (kBulkMgrRaise | kBulkRaise) and swap boss/alt of
/// every mover. sign = +1 and sign = -1 are mirror images.
std::string BulkText(int sign);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
