package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"odin/internal/persist"
)

// The tenant-probe journal is the shard's durable record of committed probe
// operations: an append-only persist.Log of JSON-encoded journalOp records,
// one per committed add/enable/remove (a change leaves no state to replay,
// so it is not journaled; older journals' change records are ignored).
// Replaying it reconstructs the
// shard's probe state on a fresh engine — the mechanism behind crash
// restarts (probes survive a process bounce); a restart in place replays
// the in-memory probe ledger the journal mirrors. Engine probe IDs are
// process-local, so the journal is keyed by serve-level probe IDs, which
// are stable across engine instances.

// Journal op names.
const (
	jopAdd    = "add"
	jopEnable = "enable"
	jopRemove = "remove"
	jopChange = "change"
)

// journalOp is one committed probe operation. Spec is set for adds only.
type journalOp struct {
	Op     string     `json:"op"`
	ID     int64      `json:"id"`
	Tenant string     `json:"tenant"`
	Spec   *ProbeSpec `json:"spec,omitempty"`
}

// probeJournal wraps the persist.Log with JSON encoding and best-effort
// append semantics: a failed append (disk full, injected persist:log-append
// fault) is counted, not fatal — the shard keeps serving, at the cost of
// that op not surviving a restart.
type probeJournal struct {
	mu    sync.Mutex
	log   *persist.Log
	drops atomic.Uint64
}

// openProbeJournal opens (creating) the journal and returns the replayed
// ops. Undecodable records — impossible short of a schema change, since the
// log layer already checksums — are skipped.
func openProbeJournal(path string, hook func(string) error) (*probeJournal, []journalOp, error) {
	log, recs, err := persist.OpenLog(path, persist.Options{FaultHook: hook})
	if err != nil {
		return nil, nil, err
	}
	return &probeJournal{log: log}, decodeJournalOps(recs), nil
}

func decodeJournalOps(recs [][]byte) []journalOp {
	ops := make([]journalOp, 0, len(recs))
	for _, rec := range recs {
		var op journalOp
		if json.Unmarshal(rec, &op) == nil && op.Op != "" {
			ops = append(ops, op)
		}
	}
	return ops
}

// append journals one committed op (best-effort).
func (j *probeJournal) append(op journalOp) {
	if j == nil {
		return
	}
	payload, err := json.Marshal(op)
	if err != nil {
		j.drops.Add(1)
		return
	}
	j.mu.Lock()
	err = j.log.Append(payload)
	j.mu.Unlock()
	if err != nil {
		j.drops.Add(1)
	}
}

// records reports how many ops the journal holds; dropped counts appends
// that failed.
func (j *probeJournal) records() int {
	if j == nil {
		return 0
	}
	return j.log.Records()
}

func (j *probeJournal) dropped() uint64 {
	if j == nil {
		return 0
	}
	return j.drops.Load()
}

// close flushes and closes the journal, returning the flush's error: the
// last committed ops are durable only if it is nil.
func (j *probeJournal) close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// probeState is the reduction of a journal to one probe's final state.
type probeState struct {
	ID     int64
	Tenant string
	Spec   ProbeSpec
	Active bool
}

// reduceJournal folds an op sequence into per-probe final states, in first-
// add order — what a replay actually applies to a fresh engine. Ops against
// never-added IDs (a torn-away add) are dropped.
func reduceJournal(ops []journalOp) []probeState {
	byID := map[int64]*probeState{}
	var order []int64
	for _, op := range ops {
		switch op.Op {
		case jopAdd:
			if op.Spec == nil {
				continue
			}
			if _, dup := byID[op.ID]; !dup {
				order = append(order, op.ID)
			}
			byID[op.ID] = &probeState{ID: op.ID, Tenant: op.Tenant, Spec: *op.Spec, Active: true}
		case jopEnable:
			if st := byID[op.ID]; st != nil {
				st.Active = true
			}
		case jopRemove:
			if st := byID[op.ID]; st != nil {
				st.Active = false
			}
		case jopChange:
			// Re-instrumentation has no lasting state beyond the rebuild.
		}
	}
	out := make([]probeState, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}
