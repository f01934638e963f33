#include "api/api.h"

namespace verso {

Session::Session(Connection* conn) : conn_(conn), snap_(conn->Pin()) {}

Session::~Session() { conn_->RemoveSessionSubscriptions(this); }

const internal::Snapshot& Session::snap() const {
  if (snap_ == nullptr) snap_ = conn_->Pin();
  return *snap_;
}

uint64_t Session::epoch() const { return snap().epoch; }

void Session::Refresh() { snap_ = conn_->Pin(); }

Result<ResultSet> Session::Execute(std::string_view text) {
  VERSO_ASSIGN_OR_RETURN(Statement stmt, Prepare(text));
  return stmt.Execute();
}

Result<std::vector<ResultSet>> Session::ExecuteBatch(
    const std::vector<Statement*>& statements) {
  std::vector<Program*> programs;
  programs.reserve(statements.size());
  for (Statement* stmt : statements) {
    if (stmt == nullptr || stmt->kind() != Statement::Kind::kUpdate) {
      return Status::InvalidArgument(
          "ExecuteBatch takes update-program statements only");
    }
    programs.push_back(&stmt->program_);
  }
  return conn_->ExecuteWriteBatch(*this, programs);
}

const ObjectBase& Session::base() const { return snap().base; }

Result<const ObjectBase*> Session::ViewSnapshot(std::string_view view) const {
  const internal::Snapshot& snap = this->snap();
  auto it = snap.views.find(view);
  if (it == snap.views.end()) {
    return Status::NotFound("view '" + std::string(view) +
                            "' is not in this session's snapshot");
  }
  return &it->second.result;
}

Result<uint64_t> Session::Subscribe(std::string_view view,
                                    ViewCallback callback) {
  if (conn_->catalog().Find(view) == nullptr) {
    return Status::NotFound("view '" + std::string(view) +
                            "' is not registered");
  }
  if (!callback) {
    return Status::InvalidArgument("subscription callback must be callable");
  }
  return conn_->AddSubscription(std::string(view), this, std::move(callback));
}

Status Session::Unsubscribe(uint64_t subscription) {
  return conn_->RemoveSubscription(this, subscription);
}

}  // namespace verso
