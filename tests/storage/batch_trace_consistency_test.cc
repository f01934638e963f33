// Regression tests for commit-shape-independent trace emission: a
// TraceSink must hear the SAME event stream for a group of transactions
// whether they commit one by one through Execute or together through
// ExecuteBatch — including members that converge in round 0, naive-mode
// evaluation (which has no semi-naive rounds), and strata that never
// touch the index.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/trace.h"
#include "parser/parser.h"
#include "storage/database.h"

namespace verso {
namespace {

/// Records the evaluation-shaped events as comparable strings.
class EventLog : public TraceSink {
 public:
  void OnStratumBegin(uint32_t stratum, size_t rule_count) override {
    Add("begin s" + std::to_string(stratum) + " rules=" +
        std::to_string(rule_count));
  }
  void OnRoundBegin(uint32_t stratum, uint32_t round) override {
    Add("round s" + std::to_string(stratum) + " r" + std::to_string(round));
  }
  void OnDeltaRound(uint32_t stratum, uint32_t round, size_t delta_facts,
                    size_t seed_probes, size_t residual_rules) override {
    Add("delta s" + std::to_string(stratum) + " r" + std::to_string(round) +
        " facts=" + std::to_string(delta_facts) + " seeds=" +
        std::to_string(seed_probes) + " residual=" +
        std::to_string(residual_rules));
  }
  void OnIndexUse(uint32_t stratum, size_t probes, size_t hits,
                  size_t avoided_facts) override {
    Add("index s" + std::to_string(stratum) + " probes=" +
        std::to_string(probes) + " hits=" + std::to_string(hits) +
        " avoided=" + std::to_string(avoided_facts));
  }
  void OnStratumFixpoint(uint32_t stratum, uint32_t rounds) override {
    Add("fixpoint s" + std::to_string(stratum) + " rounds=" +
        std::to_string(rounds));
  }

  const std::vector<std::string>& lines() const { return lines_; }
  size_t Count(const std::string& prefix) const {
    size_t n = 0;
    for (const std::string& line : lines_) {
      if (line.compare(0, prefix.size(), prefix) == 0) ++n;
    }
    return n;
  }

 private:
  void Add(std::string line) { lines_.push_back(std::move(line)); }
  std::vector<std::string> lines_;
};

// The middle member's body never matches: it evaluates, converges in
// round 0, and commits nothing — the shape that used to be invisible to
// per-commit index accounting.
const char* const kMembers[] = {
    "t1: ins[ann].sal -> 1000.",
    "t2: ins[ann].bonus -> B <- ann.nosuch -> B.",  // no-op member
    "t3: mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S * 2.",
};

std::vector<std::string> RunSequential(const EvalOptions& options) {
  Engine engine;
  std::unique_ptr<Database> db =
      std::move(Database::OpenInMemory(engine)).value();
  EventLog log;
  for (const char* text : kMembers) {
    Result<Program> program = ParseProgram(text, engine);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_TRUE(db->Execute(*program, options, &log).ok()) << text;
  }
  return log.lines();
}

std::vector<std::string> RunBatched(const EvalOptions& options) {
  Engine engine;
  std::unique_ptr<Database> db =
      std::move(Database::OpenInMemory(engine)).value();
  EventLog log;
  std::vector<Program> programs;
  std::vector<Program*> pointers;
  for (const char* text : kMembers) {
    Result<Program> program = ParseProgram(text, engine);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    programs.push_back(std::move(*program));
  }
  for (Program& program : programs) pointers.push_back(&program);
  EXPECT_TRUE(db->ExecuteBatch(pointers, options, &log).ok());
  return log.lines();
}

TEST(BatchTraceConsistencyTest, BatchAndSequentialEmitIdenticalStreams) {
  EXPECT_EQ(RunSequential(EvalOptions()), RunBatched(EvalOptions()));
}

TEST(BatchTraceConsistencyTest,
     BatchAndSequentialEmitIdenticalStreamsInNaiveMode) {
  EvalOptions naive;
  naive.semi_naive = false;
  EXPECT_EQ(RunSequential(naive), RunBatched(naive));
}

TEST(BatchTraceConsistencyTest, RoundZeroConvergingCommitStillReportsIndex) {
  Engine engine;
  std::unique_ptr<Database> db =
      std::move(Database::OpenInMemory(engine)).value();
  Result<Program> first = ParseProgram("t: ins[ann].sal -> 1000.", engine);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(db->Execute(*first).ok());

  // A rule whose body never matches derives nothing: the fixpoint
  // converges in round 0, so no OnDeltaRound — but OnIndexUse must still
  // arrive, with zero probes, once per stratum, so per-commit coverage
  // is shape-independent.
  EventLog log;
  Result<Program> again =
      ParseProgram("t: ins[ann].bonus -> B <- ann.nosuch -> B.", engine);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(db->Execute(*again, EvalOptions(), &log).ok());
  EXPECT_EQ(log.Count("delta"), 0u);
  EXPECT_EQ(log.Count("index"), log.Count("fixpoint"));
  EXPECT_GE(log.Count("index"), 1u);
  EXPECT_EQ(log.Count("index s0 probes=0"), log.Count("index"));
}

TEST(BatchTraceConsistencyTest, NaiveModeEmitsDeltaRounds) {
  Engine engine;
  std::unique_ptr<Database> db =
      std::move(Database::OpenInMemory(engine)).value();
  Result<Program> seed = ParseProgram("t: ins[ann].sal -> 1000.", engine);
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(db->Execute(*seed).ok());

  // Naive evaluation has no semi-naive rounds, but every consumed round
  // still notifies: seed_probes reported as 0, and the full re-match of
  // the stratum's one rule as one residual run, as StratumStats counts
  // it.
  EvalOptions naive;
  naive.semi_naive = false;
  EventLog log;
  Result<Program> mod =
      ParseProgram("t: mod[E].sal -> (S, S2) <- E.sal -> S, S2 = S * 2.",
                   engine);
  ASSERT_TRUE(mod.ok());
  Result<RunOutcome> out = db->Execute(*mod, naive, &log);
  ASSERT_TRUE(out.ok());
  EXPECT_GE(log.Count("delta"), 1u);
  for (const std::string& line : log.lines()) {
    if (line.compare(0, 5, "delta") == 0) {
      EXPECT_NE(line.find("seeds=0"), std::string::npos) << line;
      EXPECT_NE(line.find("residual=1"), std::string::npos) << line;
    }
  }
  ASSERT_EQ(out->stats.strata.size(), 1u);
  EXPECT_EQ(out->stats.strata[0].residual_rule_runs, log.Count("delta"));
}

}  // namespace
}  // namespace verso
