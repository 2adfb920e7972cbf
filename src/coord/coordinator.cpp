#include "coord/coordinator.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "coord/fleet_job.hpp"
#include "coord/train_job.hpp"
#include "coord/wire.hpp"

namespace fedsched::coord {

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kSubmitted: return "submitted";
    case RunStatus::kAdmitted: return "admitted";
    case RunStatus::kRunning: return "running";
    case RunStatus::kCheckpointed: return "checkpointed";
    case RunStatus::kDone: return "done";
    case RunStatus::kFailed: return "failed";
  }
  return "unknown";
}

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      registry_(config_.root),
      chaos_(config_.chaos) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.max_concurrent_rounds == 0) config_.max_concurrent_rounds = 1;
  if (!config_.trace_path.empty()) {
    trace_ = obs::TraceWriter::to_file(config_.trace_path);
  }
  registry_.set_durable(config_.durable_writes);
  registry_.set_chaos(&chaos_);

  // Restart story: every persisted run resumes exactly where its checkpoint
  // left it. scan() sorts by id, so the requeue order is deterministic, and
  // quarantines damaged directories so one corrupt run cannot block the rest.
  // Chaos is deliberately not threaded through the scan's own renames: the
  // recovery path must always make forward progress.
  ScanOutcome scanned = registry_.scan();
  quarantined_ = std::move(scanned.quarantined);
  for (const QuarantineRecord& q : quarantined_) {
    metrics_.add("coord.runs_quarantined");
    common::JsonObject ev;
    ev.field("ev", "coord_quarantine")
        .field("id", q.id)
        .field("moved_to", q.moved_to)
        .field("reason", q.reason);
    emit(ev);
  }
  if (scanned.stale_tmp_removed > 0) {
    metrics_.add("coord.stale_tmp_removed", scanned.stale_tmp_removed);
  }
  for (RecoveredRun& rec : scanned.runs) {
    Entry e;
    e.spec = std::move(rec.spec);
    e.rounds_completed = rec.rounds_completed;
    switch (rec.state) {
      case RecoveredState::kDone: e.status = RunStatus::kDone; break;
      case RecoveredState::kFailed:
        e.status = RunStatus::kFailed;
        e.error = std::move(rec.error);
        break;
      case RecoveredState::kResumable: e.status = RunStatus::kCheckpointed; break;
      case RecoveredState::kFresh: e.status = RunStatus::kAdmitted; break;
    }
    const std::string id = e.spec.id;
    if (e.status == RunStatus::kCheckpointed || e.status == RunStatus::kAdmitted) {
      ready_.push_back(id);
    }
    runs_.emplace(id, std::move(e));
  }

  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (config_.watchdog_s > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  idle_cv_.notify_all();
  // Join the watchdog first: it is the only thing that appends replacement
  // workers, so afterwards the workers_ vector is stable.
  if (watchdog_.joinable()) watchdog_.join();
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_);
  }
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
}

std::unique_ptr<RunSession> Coordinator::open_session(const RunSpec& spec,
                                                      std::size_t round) const {
  const std::string ckpt = registry_.ckpt_path(spec.id);
  const std::string trace = registry_.trace_path(spec.id);
  if (spec.kind == RunKind::kTrain) {
    return std::make_unique<TrainSession>(spec.train, ckpt, trace, round,
                                          registry_.write_options());
  }
  return FleetSession::open(spec.fleet, ckpt, trace, round, registry_.write_options());
}

bool Coordinator::head_dispatchable() const {
  if (ready_.empty()) return false;
  if (running_ >= config_.max_concurrent_rounds) return false;
  const Entry& e = runs_.at(ready_.front());
  // Submission caps a single run at the full budget, so the head can always
  // run once the fleet drains — head-of-line order, no starvation.
  return running_resident_ + e.spec.resident_clients() <=
         config_.max_resident_clients;
}

void Coordinator::evict_sessions_over_budget() {
  // Parked sessions all belong to queued runs. Evict from the back of the
  // queue: those runs step last, so their sessions would idle longest.
  for (auto it = ready_.rbegin();
       it != ready_.rend() &&
       running_resident_ + held_resident_ > config_.max_resident_clients;
       ++it) {
    Entry& e = runs_.at(*it);
    if (e.session == nullptr) continue;
    e.session.reset();
    held_resident_ -= e.spec.resident_clients();
    metrics_.add("coord.sessions_evicted");
  }
}

void Coordinator::emit(const common::JsonObject& event) {
  // Flushed per event: the operations trace is read while the server runs,
  // and a crash or kill must not lose what was already reported.
  trace_.write(event);
  trace_.flush();
}

void Coordinator::enter_crashed_state() {
  crashed_ = true;
  stop_ = true;
  metrics_.add("coord.chaos_crashes");
  work_cv_.notify_all();
  idle_cv_.notify_all();
  watchdog_cv_.notify_all();
}

void Coordinator::worker_loop(std::size_t worker_index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || head_dispatchable(); });
    if (stop_) return;

    const std::string id = ready_.front();
    ready_.pop_front();
    Entry& entry = runs_.at(id);
    entry.status = RunStatus::kRunning;
    const RunSpec spec = entry.spec;  // stable copy for the unlocked step
    const std::size_t round = entry.rounds_completed;
    const std::size_t resident = spec.resident_clients();
    std::unique_ptr<RunSession> session = std::move(entry.session);
    if (session != nullptr) held_resident_ -= resident;
    const std::uint64_t token = next_token_++;
    inflight_.emplace(
        token, InFlight{id, resident, std::chrono::steady_clock::now()});
    ++running_;
    running_resident_ += resident;
    evict_sessions_over_budget();
    metrics_.add("coord.steps");
    {
      common::JsonObject ev;
      ev.field("ev", "coord_round_dispatch")
          .field("id", id)
          .field("kind", run_kind_name(spec.kind))
          .field("round", round)
          .field("worker", worker_index);
      emit(ev);
    }
    lock.unlock();

    std::size_t completed = round;
    bool done = false;
    bool crashed = false;
    std::string error;
    std::string result_json;
    try {
      if (chaos_.should_fail_round(id, round)) {
        throw std::runtime_error("chaos: injected failure for run '" + id +
                                 "' at round " + std::to_string(round));
      }
      const double hang = chaos_.hang_before_round(id, round);
      if (hang > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(hang));
      }
      if (session == nullptr) session = open_session(spec, round);
      const StepOutcome out = session->step(round);
      completed = out.rounds_completed;
      done = out.done;
      if (done) result_json = session->result_json();
    } catch (const chaos::ChaosCrash&) {
      crashed = true;
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    // Only a session that just stepped successfully stays valid for the next
    // round; a finished run has no next round.
    if (!error.empty() || done) session.reset();

    lock.lock();
    if (crashed) {
      // Simulated SIGKILL: freeze everything exactly as it stands. No entry
      // update, no registry write — the on-disk state is whatever the crash
      // point left, and only a fresh Coordinator over this root moves on.
      enter_crashed_state();
      return;
    }
    const auto claim = inflight_.find(token);
    if (claim == inflight_.end()) {
      // The watchdog expired this step and already published a failure: this
      // thread was replaced, and its late outcome must be discarded. The
      // watchdog released the capacity when it erased the token.
      return;
    }
    inflight_.erase(claim);
    // `running_` is NOT decremented yet: the step still owns its capacity
    // until its outcome is published below. Releasing it here would open a
    // window where ready_ is empty and running_ is zero with the run neither
    // requeued nor terminal — wait_all_done() would report an idle
    // coordinator mid-run (the chaos soak caught exactly that).
    lock.unlock();

    // Terminal registry writes happen only after claiming the token, so an
    // abandoned step can never overwrite the watchdog's verdict on disk.
    try {
      if (error.empty()) {
        if (done) registry_.write_result(id, result_json);
        registry_.write_meta(id, completed);
      } else {
        registry_.write_error(id, error);
      }
    } catch (const chaos::ChaosCrash&) {
      crashed = true;
    } catch (const std::exception& ex) {
      if (error.empty()) error = ex.what();
      // else: the in-memory status still flips to failed below.
    }

    lock.lock();
    if (crashed) {
      enter_crashed_state();
      return;
    }
    --running_;
    running_resident_ -= resident;
    Entry& after = runs_.at(id);
    if (!error.empty()) {
      after.status = RunStatus::kFailed;
      after.error = error;
      metrics_.add("coord.step_failures");
    } else {
      after.rounds_completed = completed;
      if (done) {
        after.status = RunStatus::kDone;
      } else {
        after.status = RunStatus::kCheckpointed;
        ready_.push_back(id);
        if (session != nullptr) {
          after.session = std::move(session);
          held_resident_ += resident;
          evict_sessions_over_budget();
        }
      }
    }
    work_cv_.notify_all();
    idle_cv_.notify_all();
  }
}

void Coordinator::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    watchdog_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(config_.watchdog_poll_ms),
        [this] { return stop_; });
    if (stop_) return;

    const auto now = std::chrono::steady_clock::now();
    std::vector<std::pair<std::uint64_t, InFlight>> expired;
    for (const auto& [token, step] : inflight_) {
      const double age = std::chrono::duration<double>(now - step.started).count();
      if (age > config_.watchdog_s) expired.emplace_back(token, step);
    }
    for (const auto& [token, step] : expired) {
      inflight_.erase(token);
      --running_;
      running_resident_ -= step.resident;
      Entry& entry = runs_.at(step.id);
      entry.status = RunStatus::kFailed;
      entry.error = "watchdog: step exceeded " +
                    std::to_string(config_.watchdog_s) + " s wall clock";
      metrics_.add("coord.watchdog_kills");
      {
        common::JsonObject ev;
        ev.field("ev", "coord_watchdog_kill")
            .field("id", step.id)
            .field("round", entry.rounds_completed);
        emit(ev);
      }
      // The wedged worker still holds its (now ownerless) step; give the
      // pool a fresh thread so capacity is actually freed.
      workers_.emplace_back([this, i = workers_.size()] { worker_loop(i); });
      const std::string id = step.id;
      const std::string error = entry.error;
      lock.unlock();
      try {
        registry_.write_error(id, error);
      } catch (...) {
        // In-memory status already failed; disk stays best-effort here.
      }
      lock.lock();
    }
    if (!expired.empty()) {
      work_cv_.notify_all();
      idle_cv_.notify_all();
    }
  }
}

SubmitOutcome Coordinator::submit(const RunSpec& spec) {
  SubmitOutcome out;
  std::lock_guard<std::mutex> lock(mu_);
  const auto reject = [&](const std::string& why) {
    out.error = why;
    metrics_.add("coord.rejects");
    common::JsonObject ev;
    ev.field("ev", "coord_reject").field("id", spec.id).field("reason", why);
    emit(ev);
    return out;
  };
  if (crashed_) return reject("chaos: coordinator crashed");
  if (stop_) return reject("coordinator is shutting down");
  if (runs_.count(spec.id) != 0 || registry_.exists(spec.id)) {
    return reject("duplicate run id '" + spec.id + "'");
  }
  const std::size_t resident = spec.resident_clients();
  if (resident > config_.max_resident_clients) {
    return reject("run needs " + std::to_string(resident) +
                  " resident clients; coordinator cap is " +
                  std::to_string(config_.max_resident_clients));
  }
  if (ready_.size() >= config_.max_queued_runs) {
    return reject("queue full (" + std::to_string(ready_.size()) +
                  " runs waiting)");
  }

  try {
    registry_.persist_spec(spec);
  } catch (const chaos::ChaosCrash&) {
    enter_crashed_state();
    out.error = "chaos: coordinator crashed while persisting spec";
    return out;
  }
  Entry e;
  e.spec = spec;
  e.status = RunStatus::kAdmitted;
  runs_.emplace(spec.id, std::move(e));
  ready_.push_back(spec.id);
  metrics_.add("coord.submits");
  {
    common::JsonObject ev;
    ev.field("ev", "coord_admit")
        .field("id", spec.id)
        .field("kind", run_kind_name(spec.kind))
        .field("rounds", spec.total_rounds())
        .field("resident_clients", resident)
        .field("queued", ready_.size());
    emit(ev);
  }
  work_cv_.notify_one();
  out.accepted = true;
  return out;
}

RunInfo Coordinator::info_of(const Entry& e) const {
  RunInfo info;
  info.spec = e.spec;
  info.status = e.status;
  info.rounds_completed = e.rounds_completed;
  info.error = e.error;
  return info;
}

std::optional<RunInfo> Coordinator::status(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = runs_.find(id);
  if (it == runs_.end()) return std::nullopt;
  return info_of(it->second);
}

std::vector<RunInfo> Coordinator::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RunInfo> infos;
  infos.reserve(runs_.size());
  for (const auto& [id, e] : runs_) infos.push_back(info_of(e));
  return infos;
}

std::string Coordinator::trace_bytes(const std::string& id) const {
  return registry_.read_trace(id);
}

std::string Coordinator::result_document(const std::string& id) const {
  return registry_.read_result(id);
}

std::string Coordinator::checkpoint_bytes(const std::string& id) const {
  return registry_.read_checkpoint(id);
}

void Coordinator::wait_all_done() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return stop_ || crashed_ || (ready_.empty() && running_ == 0);
  });
}

bool Coordinator::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

bool Coordinator::chaos_crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

std::vector<QuarantineRecord> Coordinator::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

std::string Coordinator::metrics_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.to_json();
}

void Coordinator::record_event(const common::JsonObject& event,
                               const char* counter) {
  std::lock_guard<std::mutex> lock(mu_);
  emit(event);
  if (counter != nullptr) metrics_.add(counter);
}

namespace {

std::string error_reply(const std::string& what) {
  common::JsonObject o;
  o.field("ok", false).field("error", what);
  return o.str();
}

void status_fields(common::JsonObject& o, const RunInfo& info) {
  o.field("id", info.spec.id)
      .field("kind", run_kind_name(info.spec.kind))
      .field("status", run_status_name(info.status))
      .field("rounds_completed", info.rounds_completed)
      .field("total_rounds", info.spec.total_rounds());
  if (!info.error.empty()) o.field("error", info.error);
}

std::string require_id(const common::JsonValue& v) {
  const std::string id = v.get_string("id", "");
  if (id.empty()) throw std::runtime_error("request needs a non-empty 'id'");
  return id;
}

std::string strip_newline(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace

std::string Coordinator::reply_status(const std::string& id) {
  const std::optional<RunInfo> info = status(id);
  if (!info) return error_reply("unknown run id '" + id + "'");
  common::JsonObject o;
  o.field("ok", true);
  status_fields(o, *info);
  return o.str();
}

std::string Coordinator::handle_request_json(const std::string& request) {
  try {
    const common::JsonValue v = common::json_parse(request);
    if (!v.is_object()) return error_reply("request must be a JSON object");
    const std::string verb = v.get_string("verb", "");

    if (verb == "ping") {
      common::JsonObject o;
      o.field("ok", true).field("service", "fedsched-coordinator");
      return o.str();
    }
    if (verb == "submit") {
      const common::JsonValue* spec_json = v.find("spec");
      if (spec_json == nullptr) return error_reply("submit needs a 'spec' object");
      const RunSpec spec = parse_run_spec(*spec_json);
      const SubmitOutcome out = submit(spec);
      if (!out.accepted) return error_reply(out.error);
      return reply_status(spec.id);
    }
    if (verb == "status") return reply_status(require_id(v));
    if (verb == "list") {
      std::string arr = "[";
      bool first = true;
      for (const RunInfo& info : list()) {
        common::JsonObject ro;
        status_fields(ro, info);
        if (!first) arr += ",";
        first = false;
        arr += ro.str();
      }
      arr += "]";
      common::JsonObject o;
      o.field("ok", true).field_raw("runs", arr);
      return o.str();
    }
    if (verb == "trace") {
      const std::string id = require_id(v);
      common::JsonObject o;
      o.field("ok", true).field("id", id).field("jsonl", trace_bytes(id));
      return o.str();
    }
    if (verb == "result") {
      const std::string id = require_id(v);
      const std::string doc = strip_newline(result_document(id));
      common::JsonObject o;
      // Both views: `result` for programmatic clients, `json` for exact-byte
      // file fetches (the CLI's --result-out).
      o.field("ok", true).field("id", id).field_raw("result", doc).field("json", doc);
      return o.str();
    }
    if (verb == "checkpoint") {
      const std::string id = require_id(v);
      common::JsonObject o;
      o.field("ok", true).field("id", id).field("hex", to_hex(checkpoint_bytes(id)));
      return o.str();
    }
    if (verb == "metrics") {
      const std::string doc = metrics_json();
      common::JsonObject o;
      // Both views, like `result`: parsed object + exact-byte string.
      o.field("ok", true).field_raw("metrics", doc).field("json", doc);
      return o.str();
    }
    if (verb == "shutdown") {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
      }
      common::JsonObject o;
      o.field("ok", true).field("shutting_down", true);
      return o.str();
    }
    return error_reply("unknown verb '" + verb + "'");
  } catch (const std::exception& ex) {
    return error_reply(ex.what());
  }
}

std::string Coordinator::handle_frame(const std::string& frame) {
  // Decode strictly before dispatch: a malformed frame cannot reach any verb
  // handler, so it provably leaves coordinator state untouched.
  std::string request;
  try {
    request = std::string(decode_frame(frame));
  } catch (const std::exception& ex) {
    return encode_frame(error_reply(ex.what()));
  }
  return encode_frame(handle_request_json(request));
}

}  // namespace fedsched::coord
