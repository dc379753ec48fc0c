// The commit pipeline: every autocommit PUT/DELETE, transaction COMMIT
// and index DDL is handed to one committer goroutine, in every durability
// mode. It is the only writer of a primary's log; the two other appends
// are a promotion's epoch group (promote) and a follower's replicated
// groups (repl.go).
//
// Writers enqueue their commit and block; the committer drains what is
// queued into a batch (at most one commit under Durability=per-commit, up
// to 64 under group), stages each commit as its own group in the
// store's log (StageBound — write, no sync), and promotes the whole batch
// with ONE fsync (SyncBatch). Every waiter is acknowledged only after that
// durable boundary, so per-commit is simply the batch of one and group
// gives each writer exactly the same guarantee — the fsync is merely
// shared. While the fsync for batch N runs, the queue for batch N+1
// builds, which is what makes group throughput scale with concurrency
// instead of flatlining at 1/fsync-latency (experiment E18).
//
// Failure discipline: a failed stage or batch fsync has already truncated
// the log back to the pre-batch durable end inside the store, so the
// committer fails every waiter in the batch with the same typed cause and
// restores the store's working state to its last durable group (rollback,
// reading nothing from the log); if the truncation failed the write path
// is poisoned. Results are decided solely
// by the stage/sync outcome under commitMu — never by observing the
// poisoned flag afterwards — so degraded-mode entry between stage and ack
// can never acknowledge a writer whose group was truncated back (the
// double-ack hazard).
//
// Idempotency keys are recorded only after the batch is durable; a
// duplicate key *within* one batch stages once and both waiters share the
// recorded result — exactly-once across batch boundaries.
package server

import (
	"fmt"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/server/wire"
	rtrace "dbpl/internal/telemetry/trace"
)

// Durability selects how many commits share one fsync. Both modes
// acknowledge a write only after its fsync.
type Durability int

const (
	// DurPerCommit: every commit group pays its own fsync before the ack —
	// a batch of one. The default.
	DurPerCommit Durability = iota
	// DurGroup: concurrent commits are staged into one batch and promoted
	// by one shared fsync; every waiter acks after that shared durable
	// boundary. Same guarantee as per-commit, amortized cost.
	DurGroup
)

func (d Durability) String() string {
	if d == DurGroup {
		return "group"
	}
	return "per-commit"
}

// maxBatch caps the commit groups one fsync promotes: per-commit is the
// batch of one; group amortizes one fsync over up to 64.
func (d Durability) maxBatch() int {
	if d == DurPerCommit {
		return 1
	}
	return 64
}

// ParseDurability maps the serve flag spelling to a Durability.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "", "per-commit":
		return DurPerCommit, nil
	case "group":
		return DurGroup, nil
	}
	return DurPerCommit, fmt.Errorf("unknown durability %q (want per-commit or group)", s)
}

// commitReq is one writer's commit handed to the committer goroutine.
// tr/sp carry the writer's trace across the goroutine boundary: the
// committer appends lock-wait/stage/fsync/publish child spans under sp
// (the writer's "commit" span) while the writer blocks on done, so the
// finished tree shows exactly where the write spent its time. Both are
// nil/zero for unsampled requests. A session keeps one request, and its
// channel, for all its commits (see Server.submit): it has at most one
// in flight, and the committer is done with it once it has sent done.
type commitReq struct {
	ops      []txnOp
	key      string
	enqueued time.Time
	tr       *rtrace.Trace
	sp       rtrace.SpanID
	done     chan struct{} // buffered; receives one value once res is final

	// The rest belongs to processBatch, under commitMu. existed is set
	// once the request's answer rides the batch: its group is staged, or
	// it changed nothing after an earlier group of the batch (a commit
	// has at least one op, so it is non-nil exactly then).
	// owner is the earlier request of the same batch whose group a
	// duplicate idempotency key shares. res is the waiter's answer, final
	// once answered and delivered once sent.
	existed  []bool
	owner    *commitReq
	res      commitResult
	answered bool
	sent     bool
}

type commitResult struct {
	existed []bool
	err     error
}

// answer records res as r's answer unless r already has one: a waiter
// answered from the idempotency cache keeps its success when the rest of
// its batch fails.
func (r *commitReq) answer(res commitResult) {
	if !r.answered {
		r.res, r.answered = res, true
	}
}

// send releases r's waiter to read its answer, once.
func (r *commitReq) send() {
	if r.sent {
		return
	}
	r.sent = true
	if !r.answered {
		r.res = commitResult{err: &wire.WireError{Code: wire.CodeInternal, Msg: "commit batch dropped a waiter"}}
	}
	r.done <- struct{}{}
}

// grouped reports whether r's commit wrote a group. Valid once existed is
// set.
func (r *commitReq) grouped() bool { return changes(r.ops, r.existed) }

// changes reports whether a commit of ops, which found existed, changes
// anything: it binds a root, deletes a bound one or changes an index
// definition. Only such a commit writes a group.
func changes(ops []txnOp, existed []bool) bool {
	for j, o := range ops {
		if existed[j] || !o.index && o.dyn != nil {
			return true
		}
	}
	return false
}

// committerLoop is the dedicated committer goroutine: it blocks for the
// next queued commit, drains whatever else is already queued (up to the
// mode's batch cap), and processes the batch under commitMu. It exits
// when commitCh closes (Shutdown, after every request handler has
// returned), having processed — and synced — everything that was queued.
func (s *Server) committerLoop() {
	defer close(s.committerDone)
	maxBatch := s.cfg.Durability.maxBatch()
	batch := make([]*commitReq, 0, maxBatch)
	for req := range s.commitCh {
		batch = s.collectBatch(append(batch, req), maxBatch)
		s.processBatch(batch)
		clear(batch) // answered requests must not stay reachable
		batch = batch[:0]
	}
}

// collectBatch completes the batch that holds the first queued commit
// with everything queued at this instant, up to maxBatch: the classic
// self-tuning shape, where batches grow exactly as fast as the fsync is
// slow and an idle server adds no latency.
func (s *Server) collectBatch(batch []*commitReq, maxBatch int) []*commitReq {
	for len(batch) < maxBatch {
		select {
		case r, ok := <-s.commitCh:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// processBatch stages every commit in the batch as its own group, shares
// one fsync across them, and answers every waiter. It owns the whole
// writer critical section (commitMu), so it is the only code that can
// interleave with a promotion, a fence and poisoning.
func (s *Server) processBatch(batch []*commitReq) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	// The wait ends when the committer holds commitMu, so time spent
	// behind a promotion or a fence counts as waiting.
	locked := time.Now()
	for _, r := range batch {
		s.m.commitQueueWait.ObserveDuration(locked.Sub(r.enqueued))
		r.tr.Add(r.sp, "lock-wait", r.enqueued, locked)
	}
	// Every waiter is answered exactly once, whichever return below is
	// taken.
	defer func() {
		for _, r := range batch {
			r.send()
		}
	}()

	// The write gate: a poisoned write path, then the role. A batch that
	// queued while this server was primary but reached the committer after
	// a fence is refused whole, under the same lock the fence was applied
	// under — a demoted primary can never ack a write after its
	// successor's promotion (the double-ack discipline, extended to
	// failover).
	if m := s.mode.Load(); m.poisoned != nil || m.role != wire.RolePrimary {
		for _, r := range batch {
			r.answer(commitResult{err: s.refuseWrite(m, true)})
		}
		return
	}

	// Stage phase: each commit binds its roots in the store's working
	// table and becomes one staged group, its root changes joining iops,
	// which publish applies to the index set once the batch is durable.
	// Requests answered from the idempotency cache (their groups are
	// already durable from an earlier batch) succeed regardless of this
	// batch's fate; a duplicate key *within* the batch shares the first
	// occurrence's result.
	iops := s.iops[:0]
	defer func() { s.iops = keptOps(iops) }()
	var staged int
	var failAll error
	// batchTrace is the trace that stamps this batch's REPDATA frames:
	// the first sampled staged waiter's trace ID, zero when none was
	// sampled.
	var batchTrace uint64
	for i, r := range batch {
		if r.key != "" {
			if existed, ok := s.idem.get(r.key); ok {
				s.m.idemHits.Inc()
				r.answer(commitResult{existed: existed})
				continue
			}
			if o := stagedWithKey(batch[:i], r.key); o != nil {
				s.m.idemHits.Inc()
				r.owner = o
				continue
			}
		}
		stageStart := time.Now()
		existed := make([]bool, len(r.ops))
		for j, o := range r.ops {
			switch {
			case o.index: // existed is the "changed" bit the reply carries
				if o.del {
					existed[j] = s.store.DropIndexDef(o.name)
				} else {
					existed[j] = s.store.DeclareIndex(o.name)
				}
			default: // o.dyn, already checked by its handler, or nil to delete
				var prev *dynamic.Dynamic
				prev, failAll = s.store.Rebind(o.name, o.dyn)
				existed[j] = prev != nil
				if prev != nil || o.dyn != nil {
					iops = append(iops, index.Op{Remove: prev, Add: o.dyn})
				}
			}
			if failAll != nil {
				break
			}
		}
		if failAll == nil && !changes(r.ops, existed) {
			// A commit that changes nothing — index DDL that changes no
			// definition, or deletes of roots that are not bound — stages no
			// group. Its answer is final now, unless a group staged earlier
			// in this batch made it so: then the answer waits for that
			// group's fate.
			if staged > 0 {
				r.existed = existed
				continue
			}
			if r.key != "" {
				s.idem.put(r.key, existed)
			}
			r.answer(commitResult{existed: existed})
			continue
		}
		// StageBound, not Commit: every value this server binds is freshly
		// decoded and the published state is immutable, so nothing under an
		// untouched root can have changed and the store need not walk it.
		// With only the index definitions dirty it writes 'X' + 'C'.
		if failAll == nil {
			_, failAll = s.store.StageBound()
		}
		if failAll != nil {
			break
		}
		r.tr.Add(r.sp, "stage", stageStart, time.Now())
		r.existed = existed
		staged++
		if batchTrace == 0 {
			batchTrace = r.tr.ID()
		}
	}
	if failAll != nil {
		// The store rolls the batch back to its last durable group, or the
		// write path is poisoned. Every waiter not answered from the dedup
		// cache fails with the same cause.
		s.rollback(failAll)
		failBatch(batch, failAll)
		return
	}
	if staged == 0 {
		// Every request was answered at once: from the dedup cache, or as
		// a commit that changed nothing.
		return
	}

	syncStart := time.Now()
	_, err := s.store.SyncBatch()
	syncEnd := time.Now()
	if err != nil {
		s.rollback(err)
		failBatch(batch, err)
		return
	}
	// Publish the successor state — the store's committed root table
	// itself, and the index set moved by the batch's ops — then answer
	// every request whose answer rode the batch, and every in-batch
	// duplicate with its owner's result.
	pubStart := time.Now()
	s.publish(iops, staged, batchTrace)
	pubEnd := time.Now()
	for _, r := range batch {
		switch {
		case r.existed != nil:
			if r.key != "" {
				s.idem.put(r.key, r.existed)
			}
			r.answer(commitResult{existed: r.existed})
			// The shared fsync is a child span of every waiter: the same
			// wall-clock interval in each tree, which is the point — it
			// shows N writers paying one fsync.
			r.tr.Add(r.sp, "fsync", syncStart, syncEnd)
			r.tr.Add(r.sp, "publish", pubStart, pubEnd)
			if r.grouped() {
				s.m.commitSeconds.ObserveDuration(time.Since(r.enqueued))
				s.m.commitOps.Observe(int64(len(r.ops)))
			}
		case r.owner != nil:
			r.answer(commitResult{existed: r.owner.existed})
		}
	}
	s.m.batchGroups.Observe(int64(staged))
}

// maxKeptOps caps the ops kept room for from one use to the next: the
// committer's index ops from one batch to the next, and a session's
// buffered writes from one transaction to the next.
const maxKeptOps = 1 << 10

// keptOps returns ops emptied, its elements zeroed so that it pins no
// dynamic, or nil when its capacity is over maxKeptOps.
func keptOps(ops []index.Op) []index.Op {
	if cap(ops) > maxKeptOps {
		return nil
	}
	clear(ops)
	return ops[:0]
}

// stagedWithKey returns the request among reqs whose answer rides this
// batch under the idempotency key, or nil. A batch holds at most 64
// requests, so a scan is cheaper than indexing the keys.
func stagedWithKey(reqs []*commitReq, key string) *commitReq {
	for _, r := range reqs {
		if r.existed != nil && r.key == key {
			return r
		}
	}
	return nil
}

// failBatch answers err to every waiter in batch that has no answer yet
// (dedup-cache hits keep their success: their groups were made durable by
// an earlier batch).
func failBatch(batch []*commitReq, err error) {
	for _, r := range batch {
		r.answer(commitResult{err: err})
	}
}
