#include "schema/schema.h"

#include "parser/lexer.h"

namespace verso {

namespace {

const char* ResultKindName(ResultKind kind) {
  switch (kind) {
    case ResultKind::kAny:
      return "any";
    case ResultKind::kNumber:
      return "number";
    case ResultKind::kSymbol:
      return "symbol";
    case ResultKind::kString:
      return "string";
  }
  return "?";
}

bool KindMatches(ResultKind expected, Oid value, const SymbolTable& symbols) {
  switch (expected) {
    case ResultKind::kAny:
      return true;
    case ResultKind::kNumber:
      return symbols.kind(value) == OidKind::kNumber;
    case ResultKind::kSymbol:
      return symbols.kind(value) == OidKind::kSymbol;
    case ResultKind::kString:
      return symbols.kind(value) == OidKind::kString;
  }
  return false;
}

Status SigMismatch(std::string_view what, MethodId method,
                   const SymbolTable& symbols, const std::string& detail) {
  return Status::InvalidArgument("schema: method '" +
                                 std::string(symbols.MethodName(method)) +
                                 "' " + std::string(what) + ": " + detail);
}

}  // namespace

Status Schema::Declare(MethodId method, const MethodSig& sig,
                       const SymbolTable& symbols) {
  auto [it, inserted] = sigs_.emplace(method.value, sig);
  if (!inserted && (it->second.arity != sig.arity ||
                    it->second.result != sig.result ||
                    it->second.single_valued != sig.single_valued)) {
    return Status::InvalidArgument(
        "schema: conflicting re-declaration of method '" +
        std::string(symbols.MethodName(method)) + "'");
  }
  return Status::Ok();
}

Result<Schema> Schema::Parse(std::string_view text, SymbolTable& symbols) {
  VERSO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Schema schema;
  size_t pos = 0;
  auto peek = [&]() -> const Token& { return tokens[pos]; };
  auto next = [&]() -> const Token& { return tokens[pos++]; };
  auto expect = [&](TokenKind kind, const char* what) -> Status {
    if (peek().kind != kind) {
      return Status::ParseError("schema line " + std::to_string(peek().line) +
                                ": expected " + what);
    }
    ++pos;
    return Status::Ok();
  };
  while (peek().kind != TokenKind::kEof) {
    if (peek().kind != TokenKind::kIdent || peek().text != "method") {
      return Status::ParseError("schema line " + std::to_string(peek().line) +
                                ": expected 'method'");
    }
    next();
    if (peek().kind != TokenKind::kIdent) {
      return Status::ParseError("schema: expected a method name");
    }
    MethodId method = symbols.Method(next().text);
    VERSO_RETURN_IF_ERROR(expect(TokenKind::kSlash, "'/'"));
    if (peek().kind != TokenKind::kNumber) {
      return Status::ParseError("schema: expected an arity");
    }
    MethodSig sig;
    sig.arity = static_cast<uint32_t>(std::stoul(next().text));
    VERSO_RETURN_IF_ERROR(expect(TokenKind::kColon, "':'"));
    if (peek().kind != TokenKind::kIdent) {
      return Status::ParseError("schema: expected a result kind");
    }
    std::string kind = next().text;
    if (kind == "any") {
      sig.result = ResultKind::kAny;
    } else if (kind == "number") {
      sig.result = ResultKind::kNumber;
    } else if (kind == "symbol") {
      sig.result = ResultKind::kSymbol;
    } else if (kind == "string") {
      sig.result = ResultKind::kString;
    } else {
      return Status::ParseError("schema: unknown result kind '" + kind + "'");
    }
    VERSO_RETURN_IF_ERROR(expect(TokenKind::kComma, "','"));
    if (peek().kind != TokenKind::kIdent ||
        (peek().text != "single" && peek().text != "set")) {
      return Status::ParseError("schema: expected 'single' or 'set'");
    }
    sig.single_valued = next().text == "single";
    VERSO_RETURN_IF_ERROR(expect(TokenKind::kDot, "'.'"));
    VERSO_RETURN_IF_ERROR(schema.Declare(method, sig, symbols));
  }
  return schema;
}

const MethodSig* Schema::Find(MethodId method) const {
  auto it = sigs_.find(method.value);
  return it == sigs_.end() ? nullptr : &it->second;
}

Status Schema::CheckBase(const ObjectBase& base, const SymbolTable& symbols,
                         const VersionTable& versions) const {
  for (const auto& [vid, state] : base.versions()) {
    // The facts of one method are adjacent, sorted by (args, result).
    const VersionState::Fact* prev = nullptr;  // last fact, same method
    const MethodSig* sig = nullptr;
    for (const VersionState::Fact& app : state->facts()) {
      const MethodId method = app.method;
      if (method == base.exists_method()) continue;
      if (prev == nullptr || prev->method != method) {
        prev = nullptr;
        sig = Find(method);
        if (sig == nullptr) {
          return SigMismatch("is not declared", method, symbols,
                             "first fact on version " +
                                 versions.ToString(vid, symbols));
        }
      }
      if (app.args.size() != sig->arity) {
        return SigMismatch("arity mismatch", method, symbols,
                           "expected " + std::to_string(sig->arity) +
                               " arguments, found " +
                               std::to_string(app.args.size()));
      }
      if (!KindMatches(sig->result, app.result, symbols)) {
        return SigMismatch(
            "result kind mismatch", method, symbols,
            "expected " + std::string(ResultKindName(sig->result)) +
                ", found " + symbols.OidToString(app.result));
      }
      // Facts are sorted by (args, result): duplicates of (args) with
      // different results are adjacent.
      if (sig->single_valued && prev != nullptr &&
          prev->args == app.args) {
        return SigMismatch(
            "declared single-valued", method, symbols,
            "version " + versions.ToString(vid, symbols) +
                " holds results " + symbols.OidToString(prev->result) +
                " and " + symbols.OidToString(app.result));
      }
      prev = &app;
    }
  }
  return Status::Ok();
}

Status Schema::CheckProgram(const Program& program,
                            const SymbolTable& symbols) const {
  auto check_app = [&](const AppPattern& app, const std::string& where,
                       bool is_mod_pair,
                       const ObjTerm* new_result) -> Status {
    const MethodSig* sig = Find(app.method);
    if (sig == nullptr) {
      return SigMismatch("is not declared", app.method, symbols, where);
    }
    if (app.args.size() != sig->arity) {
      return SigMismatch("arity mismatch", app.method, symbols,
                         where + ": expected " + std::to_string(sig->arity) +
                             " arguments");
    }
    if (!app.result.is_var &&
        !KindMatches(sig->result, app.result.oid, symbols)) {
      return SigMismatch("result kind mismatch", app.method, symbols, where);
    }
    if (is_mod_pair && new_result != nullptr && !new_result->is_var &&
        !KindMatches(sig->result, new_result->oid, symbols)) {
      return SigMismatch("new-result kind mismatch", app.method, symbols,
                         where);
    }
    return Status::Ok();
  };

  for (const Rule& rule : program.rules) {
    const std::string where = "in " + rule.DisplayName();
    if (!rule.head.delete_all) {
      VERSO_RETURN_IF_ERROR(check_app(
          rule.head.app, where + " (head)",
          rule.head.kind == UpdateKind::kModify, &rule.head.new_result));
    }
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kVersion) {
        VERSO_RETURN_IF_ERROR(
            check_app(lit.version.app, where, false, nullptr));
      } else if (lit.kind == Literal::Kind::kUpdate) {
        VERSO_RETURN_IF_ERROR(check_app(
            lit.update.app, where, lit.update.kind == UpdateKind::kModify,
            &lit.update.new_result));
      }
    }
  }
  return Status::Ok();
}

}  // namespace verso
