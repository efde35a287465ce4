// Package histcheck states, once, what a client of the cache fleet may
// observe, and checks a recorded history against it. The checker is a pure
// function of a history, the backend's log records and an oracle: a backend
// database at the state the log starts from.
//
// The contract it checks:
//
//   - every read returns the state of some backend commit-LSN prefix: the
//     oracle, with the log replayed through that prefix, answers the read's
//     text and parameters with the same rows (the view-restricted state, as a
//     cache answers only what its views hold of the backend's rows);
//   - within a session those prefixes do not go backwards, and none is below
//     the session's highest CommitLSN (read-your-writes);
//   - a write's RowsAffected and CommitLSN are the log's: the record at
//     CommitLSN changed that many rows, and no other write claims it;
//   - acknowledged commits survive a restart: a restarted backend's state is
//     a prefix that holds every commit acknowledged before it, and the log
//     goes on from there with no LSN skipped.
//
// "No read observes part of a backend transaction" needs no clause of its
// own: a prefix ends at a commit, so a read that saw half a transaction is
// explained by no prefix. The package holds test files only.
package histcheck

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Call is one statement of a client session and its answer, as the client saw
// it. Calls are listed in the order their answers arrived.
type Call struct {
	Session int
	Text    string
	Params  exec.Params
	Write   bool        // checked against the log; a read is replayed
	Rows    []types.Row // a read's answer
	// Restart marks a read of a backend just recovered from its directory,
	// answered before it committed anything.
	Restart bool

	RowsAffected int64
	CommitLSN    storage.LSN
	// End is the backend's WAL().End() when the answer arrived: no prefix
	// at or past it can explain the call.
	End storage.LSN
}

// Clause names one promise of the contract.
type Clause string

const (
	Explained Clause = "some prefix explains every read"
	InOrder   Clause = "a session's prefixes never go backwards nor below its writes"
	Logged    Clause = "a write reports the log's RowsAffected and CommitLSN"
	Durable   Clause = "a restart keeps every acknowledged commit and the log goes on densely"
)

// Violation is the first call of a history that breaks the contract.
type Violation struct {
	Clause Clause
	Call   int // index into the history
	// Explains lists, for a read, the prefixes in its window whose state
	// gives its rows; Floor is the least prefix its session allowed it.
	Explains []storage.LSN
	Floor    storage.LSN
	Detail   string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("call %d: %s: %s (explained by prefixes %s, session floor %d)",
		v.Call, v.Clause, v.Detail, ranges(v.Explains), v.Floor)
}

// ranges renders sorted LSNs as runs: "[0-3 7]", or "none".
func ranges(lsns []storage.LSN) string {
	if len(lsns) == 0 {
		return "none"
	}
	var runs []string
	for i := 0; i < len(lsns); {
		j := i
		for j+1 < len(lsns) && lsns[j+1] == lsns[j]+1 {
			j++
		}
		if j == i {
			runs = append(runs, fmt.Sprint(lsns[i]))
		} else {
			runs = append(runs, fmt.Sprintf("%d-%d", lsns[i], lsns[j]))
		}
		i = j + 1
	}
	return "[" + strings.Join(runs, " ") + "]"
}

// Check reports the first call of h that breaks the contract, or nil. wal is
// every backend commit record from the oracle's state on, in LSN order;
// prefix p is the oracle with every record of LSN <= p applied, so prefix 0
// is the oracle as given. A read's window is the prefixes below its End.
// Check replays wal into oracle, which it leaves at the last prefix.
func Check(h []Call, wal []storage.CommitRecord, oracle *engine.Database) (*Violation, error) {
	explains, err := explainReads(h, wal, oracle)
	if err != nil {
		return nil, err
	}
	records := map[storage.LSN]*storage.CommitRecord{}
	for i := range wal {
		records[wal[i].LSN] = &wal[i]
	}
	hole := storage.LSN(math.MaxInt64) // the first LSN the log skipped
	for i := 1; i < len(wal) && hole == math.MaxInt64; i++ {
		if wal[i].LSN != wal[i-1].LSN+1 {
			hole = wal[i-1].LSN + 1
		}
	}
	claimed := map[storage.LSN]int{}
	acked := storage.LSN(0) // the highest commit any session was answered
	type session struct{ written, read storage.LSN }
	sessions := map[int]*session{}
	for i, c := range h {
		if c.End > hole {
			return &Violation{Clause: Durable, Call: i,
				Detail: fmt.Sprintf("%s: the log has no LSN %d, and its end is %d", describe(c), hole, c.End)}, nil
		}
		s := sessions[c.Session]
		if s == nil {
			s = &session{}
			sessions[c.Session] = s
		}
		if c.Write {
			if detail := checkWrite(c, records[c.CommitLSN], claimed); detail != "" {
				return &Violation{Clause: Logged, Call: i, Detail: detail}, nil
			}
			if c.CommitLSN != 0 {
				claimed[c.CommitLSN] = i
			}
			s.written = max(s.written, c.CommitLSN)
			acked = max(acked, c.CommitLSN)
			continue
		}
		e, floor := explains[i], max(s.written, s.read)
		if c.Restart {
			floor = max(floor, acked)
		}
		v := &Violation{Call: i, Explains: e, Floor: floor, Detail: describe(c)}
		at, ok := slices.BinarySearch(e, floor)
		switch {
		case c.Restart && at == len(e):
			v.Clause = Durable
			return v, nil
		case len(e) == 0:
			v.Clause = Explained
			return v, nil
		case !ok && at == len(e):
			v.Clause = InOrder
			return v, nil
		}
		s.read = e[at] // the least prefix that keeps every later choice open
	}
	return nil, nil
}

// checkWrite is what is wrong with write c, whose CommitLSN names rec (nil
// when the log has no such record), or "".
func checkWrite(c Call, rec *storage.CommitRecord, claimed map[storage.LSN]int) string {
	switch {
	case c.CommitLSN == 0 && c.RowsAffected != 0:
		return fmt.Sprintf("%s: %d rows affected and no commit LSN", describe(c), c.RowsAffected)
	case c.CommitLSN == 0:
		return ""
	case c.CommitLSN >= c.End:
		return fmt.Sprintf("%s: commit LSN %d is not below the log's end %d at the answer", describe(c), c.CommitLSN, c.End)
	case rec == nil:
		return fmt.Sprintf("%s: the log has no commit LSN %d", describe(c), c.CommitLSN)
	case int64(len(rec.Changes)) != c.RowsAffected:
		return fmt.Sprintf("%s: %d rows affected, the log's commit %d changed %d", describe(c), c.RowsAffected, c.CommitLSN, len(rec.Changes))
	}
	if prev, ok := claimed[c.CommitLSN]; ok {
		return fmt.Sprintf("%s: commit LSN %d was call %d's", describe(c), c.CommitLSN, prev)
	}
	return ""
}

// explainReads replays wal into oracle one record at a time and, at every
// prefix, runs each read whose window holds it: the prefixes whose answer is
// the read's rows, ascending, by call index. Reads of one text and parameters
// run once per prefix. A read the oracle fails at a prefix (its table was not
// created yet) is not explained by that prefix.
func explainReads(h []Call, wal []storage.CommitRecord, oracle *engine.Database) (map[int][]storage.LSN, error) {
	for i := 1; i < len(wal); i++ {
		if wal[i].LSN <= wal[i-1].LSN {
			return nil, fmt.Errorf("histcheck: log record %d follows %d", wal[i].LSN, wal[i-1].LSN)
		}
	}
	want := map[int]string{}
	for i, c := range h {
		if !c.Write {
			want[i] = canon(c.Rows)
		}
	}
	explains := map[int][]storage.LSN{}
	prefix := storage.LSN(0)
	for next := 0; ; next++ {
		answers := map[string]string{}
		for i := range want {
			if h[i].End <= prefix {
				continue
			}
			key := h[i].Text + "\x00" + paramKey(h[i].Params)
			got, ok := answers[key]
			if !ok {
				res, err := oracle.Exec(h[i].Text, h[i].Params)
				if err != nil {
					got = "\x00" + err.Error() // no rows are this
				} else {
					got = canon(res.Rows)
					res.Release()
				}
				answers[key] = got
			}
			if got == want[i] {
				explains[i] = append(explains[i], prefix)
			}
		}
		if next == len(wal) {
			return explains, nil
		}
		if err := apply(oracle, wal[next]); err != nil {
			return nil, err
		}
		prefix = wal[next].LSN
	}
}

// apply commits one backend transaction on the oracle, as replication apply
// does on a cache, or runs its DDL.
func apply(oracle *engine.Database, rec storage.CommitRecord) error {
	if rec.DDL != "" {
		res, err := oracle.Exec(rec.DDL, nil)
		if err != nil {
			return fmt.Errorf("histcheck: replaying commit %d: %w", rec.LSN, err)
		}
		res.Release()
		return nil
	}
	tx := oracle.Store().Begin(true)
	for _, ch := range rec.Changes {
		if err := tx.Apply(ch); err != nil {
			tx.Abort()
			return fmt.Errorf("histcheck: replaying commit %d: %w", rec.LSN, err)
		}
	}
	return tx.CommitUnlogged()
}

// canon is rows as a multiset, kind for kind: a read's order is not part of
// the contract (equal sort keys may come out either way).
func canon(rows []types.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%s|", v.K, v.String())
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

func paramKey(p exec.Params) string {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "@%s=%d:%s ", name, p[name].K, p[name].String())
	}
	return b.String()
}

// describe is a call as a reader of a report wants it: session, text,
// parameters and answer.
func describe(c Call) string {
	s := fmt.Sprintf("session %d: %s", c.Session, c.Text)
	if c.Restart {
		s = "after a restart: " + c.Text
	}
	if len(c.Params) > 0 {
		s += " " + paramKey(c.Params)
	}
	if c.Write {
		return s + fmt.Sprintf(" -> %d rows affected, commit %d", c.RowsAffected, c.CommitLSN)
	}
	if len(c.Rows) > 3 {
		return s + fmt.Sprintf(" -> %d rows, the first %v", len(c.Rows), c.Rows[:3])
	}
	return s + fmt.Sprintf(" -> %d rows %v", len(c.Rows), c.Rows)
}
