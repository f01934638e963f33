#include <algorithm>
#include <cctype>

#include "api/api.h"
#include "parser/parser.h"

namespace verso {

namespace {

/// Keyword scanner for the statement-level grammar. Only the leading
/// command words are recognized here; rule syntax is handed verbatim to
/// the update-program / derived-method parsers.
class TextScanner {
 public:
  explicit TextScanner(std::string_view text) : text_(text) {}

  /// Next identifier-like word ([A-Za-z0-9_]+), lowercased; empty when
  /// the next character is not a word character.
  std::string Word() {
    SkipWs();
    std::string word;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        word.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
        ++pos_;
      } else {
        break;
      }
    }
    return word;
  }

  /// Like Word() but preserving case (view names are case-sensitive).
  std::string Identifier() {
    SkipWs();
    std::string word;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        word.push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    return word;
  }

  char Peek() {
    SkipWs();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Consume() { ++pos_; }
  size_t pos() const { return pos_; }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool IsIdentifier(const std::string& word) {
  if (word.empty()) return false;
  char c = word[0];
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

/// Case-insensitive match against a reserved all-lowercase word.
bool IsKeyword(const std::string& identifier, std::string_view word) {
  if (identifier.size() != word.size()) return false;
  for (size_t i = 0; i < identifier.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(identifier[i])) != word[i]) {
      return false;
    }
  }
  return true;
}

/// Statement-layer handles into the global registry, bound once.
/// `QUERY METRICS` execution deliberately bumps NONE of these (its
/// prepare does, before the snapshot is taken): reading the metrics must
/// not change them, so a QUERY METRICS result and a DumpMetrics call
/// with no events in between compare byte-equal.
struct StmtMetrics {
  Counter& prepared;
  Histogram& parse_us;
  Counter& queries;
  Histogram& query_eval_us;
  Counter& view_reads;

  static StmtMetrics& Get() {
    static StmtMetrics* metrics =
        new StmtMetrics(MetricsRegistry::Global());  // never dies
    return *metrics;
  }

  explicit StmtMetrics(MetricsRegistry& registry)
      : prepared(registry.GetCounter("statement.prepared")),
        parse_us(registry.GetHistogram("statement.parse_us")),
        queries(registry.GetCounter("query.count")),
        query_eval_us(registry.GetHistogram("query.eval_us")),
        view_reads(registry.GetCounter("query.view_reads")) {}
};

/// True iff the text's first clause is a derived-method rule: an optional
/// `label:` prefix followed by the `derive` keyword.
bool StartsWithDerive(std::string_view text) {
  TextScanner scan(text);
  std::string word = scan.Word();
  if (scan.Peek() == ':') {
    scan.Consume();
    word = scan.Word();
  }
  return word == "derive";
}

}  // namespace

Result<Statement> Session::Prepare(std::string_view text) {
  // Counts every Prepare call (parse failures included); the span times
  // the whole parse, whichever grammar branch it takes.
  StmtMetrics& metrics = StmtMetrics::Get();
  metrics.prepared.Add();
  ScopedTimer parse_timer(MetricsRegistry::Global(), metrics.parse_us);
  SymbolTable& symbols = conn_->engine().symbols();
  TextScanner scan(text);
  TextScanner probe(text);
  std::string first = probe.Word();
  // A leading `word:` is a rule label, never a command keyword.
  bool labeled = probe.Peek() == ':';

  if (!labeled && first == "create") {
    scan.Word();  // "create"
    if (scan.Word() != "view") {
      return Status::ParseError("expected VIEW after CREATE");
    }
    std::string name = scan.Identifier();
    if (!IsIdentifier(name)) {
      return Status::ParseError("CREATE VIEW expects a view name");
    }
    if (scan.Word() != "as") {
      return Status::ParseError("expected AS after CREATE VIEW " + name);
    }
    Statement stmt(this, Statement::Kind::kCreateView, std::string(text));
    stmt.view_name_ = std::move(name);
    VERSO_ASSIGN_OR_RETURN(
        stmt.query_, ParseQueryProgram(text.substr(scan.pos()), symbols));
    // Prepare-time analysis runs pure-static (no base schema): Prepare
    // results must not depend on committed data. Errors block here with
    // rule-level positions; Execute applies the same policy again over
    // the then-current catalog.
    if (conn_->options_.analysis.enabled) {
      auto report = std::make_shared<AnalysisReport>(
          AnalyzeDerivedProgram(stmt.query_, symbols));
      VERSO_RETURN_IF_ERROR(report->FirstBlocking(conn_->options_.analysis));
      stmt.analysis_ = std::move(report);
    }
    return stmt;
  }

  if (!labeled && first == "drop") {
    scan.Word();  // "drop"
    if (scan.Word() != "view") {
      return Status::ParseError("expected VIEW after DROP");
    }
    std::string name = scan.Identifier();
    if (!IsIdentifier(name)) {
      return Status::ParseError("DROP VIEW expects a view name");
    }
    if (scan.Peek() == '.') scan.Consume();
    if (!scan.AtEnd()) {
      return Status::ParseError("unexpected text after DROP VIEW " + name);
    }
    Statement stmt(this, Statement::Kind::kDropView, std::string(text));
    stmt.view_name_ = std::move(name);
    return stmt;
  }

  if (!labeled && first == "query") {
    scan.Word();  // "query"
    std::string name = scan.Identifier();
    if (!IsIdentifier(name)) {
      return Status::ParseError(
          "QUERY expects a view name, METRICS, or ANALYZE <program>");
    }
    // ANALYZE is reserved: the rest of the text is the program to
    // analyze, handed verbatim to the analyzer at Execute time (it is
    // parsed there — against the connection's live symbols — so the
    // report reflects the schema at execution, not at prepare).
    if (IsKeyword(name, "analyze")) {
      Statement stmt(this, Statement::Kind::kAnalyze, std::string(text));
      stmt.body_text_ = std::string(text.substr(scan.pos()));
      if (TextScanner(stmt.body_text_).AtEnd()) {
        return Status::ParseError("QUERY ANALYZE expects a program");
      }
      return stmt;
    }
    if (scan.Peek() == '.') scan.Consume();
    if (!scan.AtEnd()) {
      return Status::ParseError("unexpected text after QUERY " + name);
    }
    // METRICS is reserved: QUERY METRICS (any case) reads the metrics
    // registry, never a view of that name.
    if (IsKeyword(name, "metrics")) {
      return Statement(this, Statement::Kind::kMetrics, std::string(text));
    }
    Statement stmt(this, Statement::Kind::kQueryView, std::string(text));
    stmt.view_name_ = std::move(name);
    return stmt;
  }

  if (StartsWithDerive(text)) {
    Statement stmt(this, Statement::Kind::kQuery, std::string(text));
    VERSO_ASSIGN_OR_RETURN(stmt.query_, ParseQueryProgram(text, symbols));
    if (conn_->options_.analysis.enabled) {
      auto report = std::make_shared<AnalysisReport>(
          AnalyzeDerivedProgram(stmt.query_, symbols));
      VERSO_RETURN_IF_ERROR(report->FirstBlocking(conn_->options_.analysis));
      stmt.analysis_ = std::move(report);
    }
    return stmt;
  }

  Statement stmt(this, Statement::Kind::kUpdate, std::string(text));
  VERSO_ASSIGN_OR_RETURN(stmt.program_, ParseProgram(text, symbols));
  if (conn_->options_.analysis.enabled) {
    auto report = std::make_shared<AnalysisReport>(
        AnalyzeUpdateProgram(stmt.program_, symbols));
    VERSO_RETURN_IF_ERROR(report->FirstBlocking(conn_->options_.analysis));
    stmt.analysis_ = std::move(report);
  }
  return stmt;
}

Result<ResultSet> Statement::Execute() {
  Connection* conn = session_->conn_;
  switch (kind_) {
    case Kind::kUpdate:
      return conn->ExecuteWrite(*session_, program_);

    case Kind::kQuery: {
      const internal::Snapshot& snap = session_->snap();
      StmtMetrics& metrics = StmtMetrics::Get();
      metrics.queries.Add();
      auto qstats = std::make_shared<QueryStats>();
      ScopedTimer eval_timer(MetricsRegistry::Global(),
                             metrics.query_eval_us);
      Result<ObjectBase> full = EvaluateQueries(
          query_, snap.base, conn->engine().symbols(),
          conn->engine().versions(), qstats.get(), conn->options_.query);
      eval_timer.Stop();
      if (!full.ok()) return full.status();
      std::vector<MethodId> methods = query_.derived_methods;
      std::sort(methods.begin(), methods.end());
      ResultSet rs(ResultSet::Kind::kQuery, snap.epoch, std::move(*full),
                   methods, &conn->symbols(), &conn->versions());
      rs.qstats_ = std::move(qstats);
      return rs;
    }

    case Kind::kCreateView:
      return conn->CreateView(*session_, view_name_, query_);

    case Kind::kDropView:
      return conn->DropView(*session_, view_name_);

    case Kind::kQueryView: {
      const internal::Snapshot& snap = session_->snap();
      auto it = snap.views.find(view_name_);
      if (it == snap.views.end()) {
        return Status::NotFound(
            "view '" + view_name_ + "' is not in this session's snapshot "
            "(not registered, or poisoned, at pin time; Refresh() re-pins)");
      }
      StmtMetrics::Get().view_reads.Add();
      return ResultSet(ResultSet::Kind::kView, snap.epoch, it->second.result,
                       it->second.methods, &conn->symbols(),
                       &conn->versions());
    }

    case Kind::kMetrics:
      // Deliberately counter-silent (no bumps, no pin — the epoch read
      // touches nothing): the snapshot this returns is byte-for-byte the
      // one a DumpMetrics call right after would serialize.
      return ResultSet(conn->epoch(), MetricsRegistry::Global().Snapshot(),
                       &conn->symbols(), &conn->versions());

    case Kind::kAnalyze:
      return conn->AnalyzeProgram(body_text_);
  }
  return Status::Internal("unknown statement kind");
}

Result<ResultSet> Connection::AnalyzeProgram(std::string_view program_text) {
  SymbolTable& symbols = engine_->symbols();
  // Schema context: the methods carried by the current committed base,
  // so the dead-rule check can also flag reads nothing can satisfy.
  AnalysisContext context = ContextFromBase(db_->current());
  std::shared_ptr<const AnalysisReport> report;
  if (StartsWithDerive(program_text)) {
    VERSO_ASSIGN_OR_RETURN(QueryProgram program,
                           ParseQueryProgram(program_text, symbols));
    report = std::make_shared<AnalysisReport>(
        AnalyzeDerivedProgram(program, symbols, context));
  } else {
    VERSO_ASSIGN_OR_RETURN(Program program,
                           ParseProgram(program_text, symbols));
    report = std::make_shared<AnalysisReport>(
        AnalyzeUpdateProgram(program, symbols, context));
  }
  return ResultSet(db_->commit_epoch(), std::move(report),
                   &engine_->symbols(), &engine_->versions());
}

}  // namespace verso
