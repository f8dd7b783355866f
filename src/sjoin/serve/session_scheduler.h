#ifndef SJOIN_SERVE_SESSION_SCHEDULER_H_
#define SJOIN_SERVE_SESSION_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sjoin/common/thread_pool.h"
#include "sjoin/common/types.h"
#include "sjoin/engine/stream_engine.h"

/// \file
/// The session-multiplexed join service (DESIGN.md §2g).
///
/// A batch simulator owns one run from first arrival to last; a service
/// multiplexes many concurrent joins whose arrivals trickle in. The
/// SessionScheduler is the piece in between: it admits sessions into a
/// bounded table, buffers their arrivals in bounded per-session queues,
/// and drains those queues through the Layer-2 session lifecycle
/// (StreamEngine::Open / Advance / Close) in weighted-round-robin rounds
/// executed by a pool of worker engines.
///
/// The correctness contract is inherited, not re-proven: Run() is
/// implemented as Open + Advance + Close, so a session advanced in
/// scheduler-chosen slices is bit-identical to a solo batch run of the
/// same realization under the same policy — no matter how many sessions
/// interleave, what quotas slice them, or how many worker threads execute
/// them (serve_differential pins this). The scheduler adds only policy-
/// free concerns: admission, backpressure, fairness, and latency
/// accounting.
///
/// Threading model: single driver, parallel rounds. All public methods
/// are driver-thread-only (externally serialized); RunRound() internally
/// fans the ready sessions out over `threads` workers, each with its own
/// StreamEngine (sessions opened serially are engine-portable, so any
/// worker may run any session's next slice). Workers touch disjoint
/// sessions and thread-local accounting, so results are independent of
/// the thread count and of which worker ran what.

namespace sjoin {
namespace serve {

/// Index into the scheduler's session table.
using SessionId = std::int32_t;

/// Everything one session needs: its engine options (capacity, warmup,
/// window — per session, not per scheduler), its replacement policy, its
/// observers, and its fairness weight. Policy and observers are borrowed,
/// must outlive the session, and must not be shared with another open
/// session (policies are stateful).
struct SessionConfig {
  StreamEngine::Options engine;
  EnginePolicy* policy = nullptr;
  std::vector<StepObserver*> observers;
  /// Weighted-round-robin weight: a weight-w session may execute up to
  /// w * quota_unit steps per round.
  int weight = 1;
};

/// Admission-control outcome. `reject_reason` is a static string (same
/// style as ShardedStreamEngine::fallback_reason): null on success.
struct Admission {
  SessionId id = -1;
  const char* reject_reason = nullptr;

  bool ok() const { return reject_reason == nullptr; }
};

/// Driver-visible accounting, all deterministic except nothing — these
/// are counts, not clocks.
struct SchedulerStats {
  std::int64_t sessions_admitted = 0;
  std::int64_t sessions_rejected = 0;
  std::int64_t sessions_closed = 0;
  /// Steps accepted into queues by Offer.
  std::int64_t steps_offered = 0;
  /// Steps refused by Offer: the suffix over queue_capacity plus whole
  /// offers shed at the high watermark.
  std::int64_t steps_shed = 0;
  /// Steps executed by RunRound.
  std::int64_t steps_executed = 0;
  std::int64_t rounds = 0;
};

/// One Advance slice's latency: `ns` wall nanoseconds for `steps` steps
/// of session `session`. Percentile reducers weight by `steps` to get
/// per-step latency. The (session, steps) multiset is independent of the
/// thread count — only `ns` varies.
struct SliceLatency {
  SessionId session = 0;
  Time steps = 0;
  std::int64_t ns = 0;
};

/// Multiplexes bounded sessions over a pool of worker engines.
class SessionScheduler {
 public:
  struct Options {
    /// Admission bound: Open rejects when this many sessions are live
    /// (admitted and not yet closed).
    std::size_t max_sessions = 1024;
    /// Per-session arrival-queue bound, in steps. Offer truncates to the
    /// free space.
    std::size_t queue_capacity = 4096;
    /// Backpressure threshold: an Offer arriving when the session already
    /// holds at least this many queued steps is shed whole (accepts 0).
    /// 0 means "use queue_capacity" (shedding only when full).
    std::size_t high_watermark = 0;
    /// Steps per unit of session weight per round.
    Time quota_unit = 32;
    /// Worker engines executing a round; 1 runs rounds inline on the
    /// driver thread.
    int threads = 1;
  };

  /// All sessions of a scheduler share one topology (worker engines are
  /// built once); per-session shapes go in SessionConfig::engine.
  SessionScheduler(StreamTopology topology, Options options);
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  /// Admission control: binds `config`, opens the session (the policy
  /// resets, observers get OnRunBegin with length -1) and returns its id
  /// — or a reject reason, leaving all state untouched. Ids index the
  /// session table and are never reused; closed sessions keep their
  /// results readable but stop counting against max_sessions.
  Admission Open(const SessionConfig& config);

  /// Offers `rows[0]->size()` steps of arrivals to an open session
  /// (`rows[s]` extends stream s; one pointer per topology stream, equal
  /// lengths). Accepts a prefix bounded by queue capacity — zero when the
  /// high watermark sheds the offer — and returns how many steps were
  /// accepted. The values are copied; the caller's buffers are free
  /// immediately.
  std::size_t Offer(SessionId id,
                    const std::vector<const std::vector<Value>*>& rows);

  /// Declares end-of-stream: no further Offer calls. The session closes
  /// (observers get OnRunEnd) in the first round that finds its queue
  /// empty. Idempotent.
  void Finish(SessionId id);

  /// Executes one weighted-round-robin round: every session with queued
  /// arrivals advances by at most weight * quota_unit steps, in parallel
  /// across the worker engines; finished sessions whose queues ran dry
  /// close. Returns the number of steps executed.
  std::int64_t RunRound();

  /// Runs rounds until every admitted session has closed. Every live
  /// session must already be Finish()ed or become so via queued work —
  /// a stalled round with an unfinished session aborts (the alternative
  /// is an infinite loop).
  void Drain();

  bool closed(SessionId id) const;
  /// Final result of a closed session (aborts if still open).
  const EngineRunResult& result(SessionId id) const;
  /// Queued steps not yet executed.
  std::size_t queued_steps(SessionId id) const;

  const SchedulerStats& stats() const { return stats_; }
  /// One entry per Advance slice, in deterministic (round, session) order.
  const std::vector<SliceLatency>& slice_latencies() const {
    return slice_latencies_;
  }
  int num_streams() const { return topology_.num_streams(); }

 private:
  struct Session {
    SessionConfig config;
    SessionState state;
    /// Per-stream queued arrivals; all deques stay equal-length.
    std::vector<std::deque<Value>> queued;
    bool finishing = false;
    bool closed = false;
    EngineRunResult final_result;
    /// Reused contiguous staging for one Advance slice.
    std::vector<std::vector<Value>> batch;
  };

  /// What one worker does to one ready session in a round: advance by
  /// `take`, then close if drained. Runs on a worker thread; touches only
  /// the session and the worker's thread-local accounting.
  struct WorkItem {
    Session* session = nullptr;
    SessionId id = 0;
    Time take = 0;
    bool close_after = false;
  };

  Session& Live(SessionId id);
  const Session& Live(SessionId id) const;
  static void RunWorkItem(StreamEngine& engine, const WorkItem& item,
                          std::vector<SliceLatency>* latencies);

  StreamTopology topology_;
  Options options_;
  /// One engine per worker; engines_[0] doubles as the open/close engine.
  std::vector<std::unique_ptr<StreamEngine>> engines_;
  ThreadPool pool_;
  /// Stable addresses: workers hold Session* across a round.
  std::deque<Session> sessions_;
  std::size_t live_sessions_ = 0;
  SchedulerStats stats_;
  std::vector<SliceLatency> slice_latencies_;
  /// Per-worker scratch reused across rounds.
  std::vector<std::vector<WorkItem>> worker_items_;
  std::vector<std::vector<SliceLatency>> worker_latencies_;
};

}  // namespace serve
}  // namespace sjoin

#endif  // SJOIN_SERVE_SESSION_SCHEDULER_H_
