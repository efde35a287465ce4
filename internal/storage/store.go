package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// ErrDeadlock is returned when acquiring a table write latch would close a
// wait-for cycle. The transaction is poisoned (Err reports it); callers abort
// and may retry.
var ErrDeadlock = errors.New("storage: deadlock detected")

// gcInterval is how many write commits elapse between automatic version GC
// sweeps.
const gcInterval = 64

// markChunk and redoChunk cap the chunks commits carve their snapshot marks
// and redo records from: 1 KiB and 4.5 KiB.
const (
	markChunk = 64
	redoChunk = 64
)

// snapMark pairs a commit timestamp with the WAL position containing exactly
// the logged transactions committed at or before it. Commit publishes a new
// mark after stamping versions and appending to the log (both under
// commitMu), so a reader pinning the mark gets a snapshot whose WAL prefix is
// consistent with what it sees — the replication layer relies on this to take
// materialization snapshots without blocking writers.
type snapMark struct {
	ts     int64
	walEnd LSN
}

// Store is the storage manager for one database: a set of table heaps, the
// WAL, and transaction control.
//
// Concurrency model: multi-version concurrency control. Rows are version
// chains stamped with begin/end commit timestamps. Read transactions pin the
// newest published commit timestamp at Begin and resolve every row against
// that snapshot — they take no locks and are never blocked by writers (the
// paper §3 guarantee, "transactionally consistent but possibly stale", with
// the blocking removed). Write transactions serialize per table: the first
// access to a table — read or write — takes that table's write latch, held to
// commit/abort (strict 2PL among writers, at table granularity), with
// wait-for-graph deadlock detection. Commit stamps the versions its undo log
// created and ended and appends the WAL under a short critical section, then
// publishes the new timestamp with one atomic store — so concurrent readers
// observe each transaction all-or-nothing. Version garbage collection
// reclaims images no live snapshot can reach, keyed off the oldest pinned
// snapshot.
type Store struct {
	mu      sync.RWMutex // guards the table map (DDL vs lookup), nothing else
	tables  map[string]*TableData
	wal     *WAL
	history History // who wrote each position; see IDAt
	nextTx  atomic.Int64

	commitMu  sync.Mutex // serializes commit stamping + WAL append
	published atomic.Pointer[snapMark]
	marks     chunks[snapMark]  // a commit's mark is carved under commitMu
	redo      chunks[ChangeRec] // and so is its redo record

	snapMu  sync.Mutex // guards snaps/readers; pin reads published inside it
	snaps   map[int64]snapRef
	readers int

	// ddlMu makes DDL statements take turns with each other and with a
	// checkpoint's pin (Store.DDL, Checkpoint). schema is the database above,
	// set by Recover; replaying is true while Recover runs.
	ddlMu     sync.Mutex
	schema    Schema
	replaying bool
	recovered *RecoveryStats

	// Durability state (nil/zero on a purely in-memory store).
	durable       *diskWAL
	durOpts       DurabilityOptions
	opened        walOpened    // what opening the log found, for Recover
	ckptLSN       atomic.Int64 // WAL position of the latest heap checkpoint
	loggedCommits atomic.Int64 // commits since open, drives auto-checkpoints
	ckptBusy      atomic.Bool  // one automatic checkpoint at a time

	lockMu   sync.Mutex // lock manager: table latch owners + wait-for graph
	lockCond *sync.Cond
	waitFor  map[int64]*TableData

	commits atomic.Int64 // write commits since the last automatic GC trigger
}

// NewStore returns an empty store, which writes every position under a new ID.
func NewStore() *Store {
	s := &Store{
		tables:  make(map[string]*TableData),
		wal:     NewWAL(),
		history: History{{ID: rand.Uint64()}},
		snaps:   make(map[int64]snapRef),
		waitFor: make(map[int64]*TableData),
	}
	s.lockCond = sync.NewCond(&s.lockMu)
	s.published.Store(&snapMark{ts: 0, walEnd: s.wal.End()})
	return s
}

// WAL exposes the log for the replication reader.
func (s *Store) WAL() *WAL { return s.wal }

// History names the store incarnations that wrote a log's positions: each
// entry's ID wrote the positions from its First to the next entry's. A
// position is the pair (ID, LSN), and two logs that agree on a pair agree on
// every record up to it (Raft's log-matching rule): every store open draws an
// ID at random, so a restored copy of a directory writes under a new one.
type History []Incarnation

// Incarnation is one History entry.
type Incarnation struct {
	First LSN
	ID    uint64
}

// At returns the ID of the incarnation that wrote lsn: the first entry's
// below every First, 0 for an empty history.
func (h History) At(lsn LSN) uint64 {
	if h = h.from(lsn); len(h) == 0 {
		return 0
	}
	return h[0].ID
}

// from returns the entries that name lsn and every position after it.
func (h History) from(lsn LSN) History {
	i := 0
	for i+1 < len(h) && h[i+1].First <= lsn {
		i++
	}
	return h[i:]
}

// IDAt returns the ID of the incarnation that wrote lsn: for a durable store,
// its segment's header's, the checkpoint's below every retained segment.
func (s *Store) IDAt(lsn LSN) uint64 { return s.history.At(lsn) }

// History returns the entries that name lsn and every later position. Only an
// open adds one, so they name every position the store will write.
func (s *Store) History(lsn LSN) History { return s.history.from(lsn) }

// CreateTable allocates storage for a catalog table definition.
func (s *Store) CreateTable(meta *catalog.Table) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := keyName(meta.Name)
	if _, ok := s.tables[k]; ok {
		return fmt.Errorf("storage: table %s already exists", meta.Name)
	}
	s.tables[k] = newTableData(meta)
	return nil
}

// DropTable releases a table's storage.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := keyName(name)
	if _, ok := s.tables[k]; !ok {
		return fmt.Errorf("storage: table %s does not exist", name)
	}
	delete(s.tables, k)
	return nil
}

// AddIndex builds an index over existing rows. It latches the table like a
// writer so the build cannot race an in-flight transaction.
func (s *Store) AddIndex(table string, idx *catalog.Index) error {
	s.mu.RLock()
	td := s.tables[keyName(table)]
	s.mu.RUnlock()
	if td == nil {
		return fmt.Errorf("storage: table %s does not exist", table)
	}
	id := s.nextTx.Add(1)
	if err := s.acquireLatch(id, td); err != nil {
		return err
	}
	td.addIndexLocked(idx)
	s.releaseLatches(id, []*TableData{td})
	return nil
}

// Table returns the storage for a table, or nil. Used by DDL existence
// checks; data access goes through Txn.Table, which returns a TableView
// carrying the transaction's visibility rule.
func (s *Store) Table(name string) *TableData {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[keyName(name)]
}

// --- lock manager -----------------------------------------------------------

// acquireLatch takes td's write latch for owner id, blocking while another
// owner holds it. Before each wait it checks the wait-for graph; closing a
// cycle returns ErrDeadlock instead of waiting forever.
func (s *Store) acquireLatch(id int64, td *TableData) error {
	s.lockMu.Lock()
	defer s.lockMu.Unlock()
	for td.owner != 0 && td.owner != id {
		if s.wouldDeadlock(id, td) {
			metrics.Default.Event("storage.deadlock_aborts",
				"txn", strconv.FormatInt(id, 10), "table", td.meta.Name)
			return ErrDeadlock
		}
		s.waitFor[id] = td
		s.lockCond.Wait()
		delete(s.waitFor, id)
	}
	td.owner = id
	return nil
}

// wouldDeadlock follows owner→waiting-for edges from td; reaching id again
// means granting the wait would close a cycle. Caller holds lockMu.
func (s *Store) wouldDeadlock(id int64, td *TableData) bool {
	for hops := 0; td != nil && hops < 1<<16; hops++ {
		owner := td.owner
		if owner == 0 {
			return false
		}
		if owner == id {
			return true
		}
		td = s.waitFor[owner]
	}
	return false
}

// releaseLatches frees every latch id holds and wakes waiters.
func (s *Store) releaseLatches(id int64, tds []*TableData) {
	if len(tds) == 0 {
		return
	}
	s.lockMu.Lock()
	for _, td := range tds {
		if td.owner == id {
			td.owner = 0
		}
	}
	s.lockCond.Broadcast()
	s.lockMu.Unlock()
}

// --- snapshots --------------------------------------------------------------

// snapRef tracks the readers pinned at one commit timestamp, plus the WAL
// position their snapshot pairs with — the truncation floor must keep every
// record a pinned snapshot's AsOfLSN may still resume from.
type snapRef struct {
	count  int
	walEnd LSN
}

// pinSnapshot registers a reader at the current published mark. The mark is
// read inside snapMu so GC (which computes the oldest visible snapshot under
// the same mutex) can never reclaim versions between the read and the
// registration. The storage.snapshots_live gauge is set under the mutex too:
// set after it, two racing readers could store their counts out of order.
func (s *Store) pinSnapshot() *snapMark {
	live := metrics.Default.Gauge("storage.snapshots_live")
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	m := s.published.Load()
	r, ok := s.snaps[m.ts]
	if !ok {
		r.walEnd = m.walEnd
	}
	r.count++
	s.snaps[m.ts] = r
	s.readers++
	live.Set(float64(s.readers))
	return m
}

func (s *Store) unpinSnapshot(ts int64) {
	live := metrics.Default.Gauge("storage.snapshots_live")
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if r, ok := s.snaps[ts]; ok {
		if r.count <= 1 {
			delete(s.snaps, ts)
		} else {
			r.count--
			s.snaps[ts] = r
		}
	}
	s.readers--
	live.Set(float64(s.readers))
}

// oldestVisible returns the oldest commit timestamp any live or future
// snapshot can observe: the minimum over pinned snapshots and the current
// published timestamp.
func (s *Store) oldestVisible() int64 {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	oldest := s.published.Load().ts
	for ts := range s.snaps {
		if ts < oldest {
			oldest = ts
		}
	}
	return oldest
}

// retainFloor returns the smallest LSN WAL truncation must keep: the minimum
// of every pinned snapshot's WAL position and, on a durable store, the last
// checkpoint LSN (recovery replays from there; with no checkpoint yet the
// whole log is the recovery source and nothing may be dropped).
func (s *Store) retainFloor() LSN {
	s.snapMu.Lock()
	floor := s.published.Load().walEnd
	for _, r := range s.snaps {
		if r.walEnd < floor {
			floor = r.walEnd
		}
	}
	s.snapMu.Unlock()
	if s.durable != nil {
		ck := LSN(s.ckptLSN.Load())
		if ck == 0 {
			ck = s.wal.First()
		}
		if ck < floor {
			floor = ck
		}
	}
	return floor
}

// --- version GC -------------------------------------------------------------

// GC reclaims row versions that no live snapshot (nor any snapshot taken
// from now on) can see, and the stale index entries that pointed at them.
// It latches one table at a time, so it can run concurrently with normal
// traffic. Returns the number of versions reclaimed; the total is also
// published as the storage.versions_gc counter.
func (s *Store) GC() int {
	oldest := s.oldestVisible()
	s.mu.RLock()
	tds := make([]*TableData, 0, len(s.tables))
	for _, td := range s.tables {
		tds = append(tds, td)
	}
	s.mu.RUnlock()
	id := s.nextTx.Add(1)
	total := 0
	for _, td := range tds {
		if td.deadHint.Load() == 0 {
			continue // nothing ended since the last scan: no garbage possible
		}
		if err := s.acquireLatch(id, td); err != nil {
			continue // cannot deadlock: GC holds one latch at a time
		}
		pruned := td.gcLocked(oldest)
		// Subtract only what was reclaimed: garbage pinned by a live snapshot
		// keeps the hint positive, so the next GC round retries this table.
		td.deadHint.Add(-int64(pruned))
		s.releaseLatches(id, []*TableData{td})
		total += pruned
	}
	if total > 0 {
		metrics.Default.Counter("storage.versions_gc").Add(int64(total))
		metrics.Default.Event("storage.gc_runs", "versions", strconv.Itoa(total))
	}
	return total
}

func (s *Store) maybeGC() {
	if s.commits.Add(1)%gcInterval != 0 {
		return
	}
	s.GC()
}

// --- transactions -----------------------------------------------------------

// Txn is an open transaction. All reads and writes of table data must happen
// between Begin and Commit/Abort.
type Txn struct {
	s       *Store
	id      int64
	write   bool
	done    bool
	err     error // sticky: set by deadlock detection, surfaced at commit
	snap    int64 // read transactions: pinned commit timestamp
	asOfLSN LSN   // read transactions: WAL end consistent with snap
	// undo is a write's one log of its changes, in the order made: commit
	// stamps its versions and builds the redo record from it, abort unwinds
	// it. It and latched start in a writeTxn's buffers, and commit and abort
	// empty both (forget), so a Txn kept for the next write (BeginWrite)
	// holds no version and no table.
	undo    []undoRec
	latched []*TableData // latches held, released at commit/abort
}

// keptChanges bounds the change and latch arrays a finished write keeps for
// the next one in the same Txn (BeginWrite), as exec.KeepRows bounds a
// recycled answer: a longer one — a seed's fill — goes with the write that
// grew it.
const keptChanges = 128

// writeTxn is how Begin allocates a write transaction: with room for its
// first few changes and latches in the same object. A read transaction has
// no use for either and is a bare Txn.
type writeTxn struct {
	Txn
	undo    [4]undoRec
	latched [4]*TableData
}

// undoRec is one change a write transaction made.
type undoRec struct {
	table *TableData
	op    ChangeOp
	rid   RowID
	v     *version // version created by this txn (insert/update)
	old   *version // version ended by this txn (delete/update)
}

// redo returns the change the record describes, as the WAL logs it: its rows
// are the versions' own.
func (u *undoRec) redo() ChangeRec {
	ch := ChangeRec{Table: u.table.meta.Name, Op: u.op}
	if u.old != nil {
		ch.Before = u.old.row
	}
	if u.v != nil {
		ch.After = u.v.row
	}
	return ch
}

// Begin opens a transaction. Read transactions pin the current snapshot and
// take no locks (BeginRead); write transactions latch tables lazily on first
// access.
func (s *Store) Begin(write bool) *Txn {
	if write {
		w := new(writeTxn)
		w.Txn.undo, w.Txn.latched = w.undo[:0], w.latched[:0]
		s.BeginWrite(&w.Txn)
		return &w.Txn
	}
	t := new(Txn)
	s.BeginRead(t)
	return t
}

// BeginWrite opens a write transaction in t, overwriting it: the one way a
// write begins, for a Txn of Begin's or one its holder keeps between writes
// (a subscriber's apply, a backend's pool of write transactions), whose
// change and latch arrays it reuses. t must not be live — its latches would
// leak.
func (s *Store) BeginWrite(t *Txn) {
	if t.Live() {
		panic("storage: BeginWrite on a live transaction")
	}
	*t = Txn{s: s, id: s.nextTx.Add(1), write: true, undo: t.undo[:0], latched: t.latched[:0]}
}

// BeginRead opens a read transaction in t, overwriting it: the one way a read
// begins, for a Txn of Begin's or one its holder keeps between reads (a plan
// instance's). t must not be live — its pin would leak.
func (s *Store) BeginRead(t *Txn) {
	if t.Live() {
		panic("storage: BeginRead on a live transaction")
	}
	m := s.pinSnapshot()
	*t = Txn{s: s, id: s.nextTx.Add(1), snap: m.ts, asOfLSN: m.walEnd}
}

// Live reports whether t was begun and is not yet committed or aborted. A
// zero Txn is not live; a read transaction pins its snapshot while it is.
func (t *Txn) Live() bool { return t.s != nil && !t.done }

// Err returns the transaction's sticky error (e.g. ErrDeadlock), if any.
// Once set, every subsequent operation fails and Commit aborts.
func (t *Txn) Err() error { return t.err }

// VisibleEnd returns the WAL position every snapshot taken from now on sees
// at least through: the log end as of the last published commit. A record at
// or past it may already be appended but is not yet visible.
func (s *Store) VisibleEnd() LSN { return s.published.Load().walEnd }

// DurableEnd is where a reader of the log stops: VisibleEnd, capped on a
// durable store by the first LSN no fsync covers yet. A commit is visible
// before its fsync, and a flush can fsync a record before its mark is
// published, so it is the lower of the two. Nothing before it can be lost by
// a crash, so nothing past it leaves the store.
func (s *Store) DurableEnd() LSN {
	end := s.VisibleEnd()
	if s.durable != nil {
		end = min(end, s.durable.DurableLSN()+1)
	}
	return end
}

// AsOfLSN returns, for a read transaction, the WAL position containing
// exactly the logged transactions visible in its snapshot. The replication
// layer uses it to pair a materialization scan with the log position to
// resume from — without blocking writers during the scan.
func (t *Txn) AsOfLSN() LSN {
	if t.write {
		return t.s.wal.End()
	}
	return t.asOfLSN
}

func (t *Txn) table(name string) (*TableData, error) {
	t.s.mu.RLock()
	td := t.s.tables[keyName(name)]
	t.s.mu.RUnlock()
	if td == nil {
		return nil, fmt.Errorf("storage: table %s does not exist", name)
	}
	return td, nil
}

// latch takes td's write latch on first touch; idempotent per transaction.
func (t *Txn) latch(td *TableData) error {
	for _, held := range t.latched {
		if held == td {
			return nil
		}
	}
	if err := t.s.acquireLatch(t.id, td); err != nil {
		t.err = err
		return err
	}
	t.latched = append(t.latched, td)
	return nil
}

// Table returns a view of the table under this transaction's visibility
// rule; ok is false if the table does not exist or the transaction hit a
// latch deadlock (check Err). Write transactions latch the table on first
// access — read or write — so everything they read is stable until commit.
// The view is a value: a caller keeps it where it keeps its other state.
func (t *Txn) Table(name string) (tv TableView, ok bool) {
	td, err := t.table(name)
	if err != nil {
		return TableView{}, false
	}
	if t.write && !t.done {
		if err := t.latch(td); err != nil {
			return TableView{}, false
		}
	}
	return TableView{td: td, txn: t, snap: t.snap}, true
}

func (t *Txn) writable() error {
	if t.done {
		return fmt.Errorf("storage: transaction already finished")
	}
	if !t.write {
		return fmt.Errorf("storage: write in read-only transaction")
	}
	return t.err
}

func (t *Txn) tableForWrite(name string) (*TableData, error) {
	if err := t.writable(); err != nil {
		return nil, err
	}
	td, err := t.table(name)
	if err != nil {
		return nil, err
	}
	if err := t.latch(td); err != nil {
		return nil, err
	}
	return td, nil
}

// Insert adds a row to a table. The store keeps row itself, in the new
// version and in the redo record: the caller must not modify it afterwards.
func (t *Txn) Insert(table string, row types.Row) (RowID, error) {
	td, err := t.tableForWrite(table)
	if err != nil {
		return 0, err
	}
	return t.insert(td, row)
}

func (t *Txn) insert(td *TableData, row types.Row) (RowID, error) {
	rid, v, err := td.insertLocked(t.id, row)
	if err != nil {
		return 0, err
	}
	t.undo = append(t.undo, undoRec{table: td, op: OpInsert, rid: rid, v: v})
	return rid, nil
}

// Fill inserts rows into a table: each as Insert would, one version and one
// undo record per row, while every index takes the rows' entries at once
// (TableData.indexLocked) — an index the table has no entries in yet is
// built in one sorted pass. It is how a table is filled from nothing: a bulk
// load, a seed, a checkpoint's rows, a materialized view's population. The
// store keeps the rows themselves. On an error the transaction holds the
// rows and no entry of theirs; the caller aborts it.
func (t *Txn) Fill(table string, rows []types.Row) error {
	td, err := t.tableForWrite(table)
	if err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(td.meta.Columns) {
			return fmt.Errorf("storage: %s: row has %d values, table has %d columns", td.meta.Name, len(row), len(td.meta.Columns))
		}
	}
	placed := make([]Item, len(rows))
	t.undo = slices.Grow(t.undo, len(rows))
	for i, row := range rows {
		v := newVersion(row, -t.id)
		rid := td.pushLocked(v)
		t.undo = append(t.undo, undoRec{table: td, op: OpInsert, rid: rid, v: v})
		placed[i] = Item{Key: row, RID: rid}
	}
	return td.indexLocked(t.id, placed)
}

// Delete removes the row at rid.
func (t *Txn) Delete(table string, rid RowID) error {
	td, err := t.tableForWrite(table)
	if err != nil {
		return err
	}
	return t.delete(td, rid)
}

func (t *Txn) delete(td *TableData, rid RowID) error {
	old, err := td.deleteLocked(t.id, rid)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{table: td, op: OpDelete, rid: rid, old: old})
	return nil
}

// Update replaces the row at rid. Like Insert, the store keeps newRow
// itself: the caller must not modify it afterwards.
func (t *Txn) Update(table string, rid RowID, newRow types.Row) error {
	td, err := t.tableForWrite(table)
	if err != nil {
		return err
	}
	return t.update(td, rid, newRow)
}

func (t *Txn) update(td *TableData, rid RowID, newRow types.Row) error {
	v, old, err := td.updateLocked(t.id, rid, newRow)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{table: td, op: OpUpdate, rid: rid, v: v, old: old})
	return nil
}

// Apply carries out a row-level change that happened elsewhere — on the
// relation a materialized view is defined over, or on a publisher — on the
// table ch.Table: an insert adds ch.After; an update or a delete first finds
// the stored row it changes, and fails when there is none: the table no
// longer holds what it was derived from. A Before image, which has the
// table's width, is found by its primary key when the table has one and by
// full-row equality otherwise (any one of equal rows will do). An update of
// a table with a primary key may carry no Before image — opt.ChangeMap sends
// none when the update leaves the key as it was — and is found by its After
// image's key. Any other Before image, or an op it does not know, is
// refused: the change may come off the wire. The store keeps ch.After
// itself, as Insert and Update do.
func (t *Txn) Apply(ch ChangeRec) error {
	td, err := t.tableForWrite(ch.Table)
	if err != nil {
		return err
	}
	pk, row := td.meta.PrimaryKey, ch.Before
	switch {
	case ch.Op == OpInsert:
		_, err = t.insert(td, ch.After)
		return err
	case ch.Op != OpUpdate && ch.Op != OpDelete:
		return fmt.Errorf("storage: %s: unknown change op %d", td.meta.Name, ch.Op)
	case row == nil && ch.Op == OpUpdate && len(pk) > 0 && len(ch.After) == len(td.meta.Columns):
		row = ch.After // an update that keeps the key, found by it
	case len(row) != len(td.meta.Columns):
		return fmt.Errorf("storage: %s: row has %d values, table has %d columns", td.meta.Name, len(row), len(td.meta.Columns))
	}
	tv := TableView{td: td, txn: t}
	rid := RowID(-1)
	if len(pk) > 0 {
		var keyBuf [4]types.Value
		rid = tv.PKLookup(appendKey(keyBuf[:0], row, pk))
	} else {
		tv.Scan(func(r RowID, stored types.Row) bool {
			if types.RowsEqual(stored, row) {
				rid = r
			}
			return rid < 0
		})
	}
	if rid < 0 {
		return fmt.Errorf("storage: %s is out of sync: row %v of a %s is missing", td.meta.Name, row, ch.Op)
	}
	if ch.Op == OpDelete {
		return t.delete(td, rid)
	}
	return t.update(td, rid, ch.After)
}

// LastChange returns the change the transaction made last as the log records
// it, its images the versions' own rows: for an Apply given no Before image,
// the whole row it found.
func (t *Txn) LastChange() ChangeRec { return t.undo[len(t.undo)-1].redo() }

// Commit finishes the transaction, logging its changes. The returned LSN is
// 0 for read-only or changeless transactions.
func (t *Txn) Commit() (LSN, error) {
	return t.commit(true, "")
}

// CommitUnlogged commits without writing the WAL (used by the replication
// subscriber's apply path: replicated changes must not re-enter the local
// log and echo back). The commit timestamp still advances, so readers see
// the applied batch atomically.
func (t *Txn) CommitUnlogged() error {
	_, err := t.commit(false, "")
	return err
}

// DDL carries out one DDL statement as a transaction of its own: apply
// changes the catalog and may write rows through tx (a materialized view's
// population), and the commit logs text, the statement, in place of those
// rows. That one record is acknowledged once an fsync covers it, like any
// commit, and Recover replays it by running text through the database's DDL
// path again. DDL statements take turns with each other and with a
// checkpoint's pin, so an image's catalog is the catalog as of its LSN.
// While Recover replays the log the record is already there, and the
// transaction commits unlogged.
func (s *Store) DDL(text string, apply func(tx *Txn) error) (LSN, error) {
	s.ddlMu.Lock()
	defer s.ddlMu.Unlock()
	tx := s.Begin(true)
	if err := apply(tx); err != nil {
		tx.Abort()
		return 0, err
	}
	if s.replaying {
		return 0, tx.CommitUnlogged()
	}
	return tx.commit(true, text)
}

// commit finishes a write. logged writes its record: the changes, or ddl in
// their place when it is set.
func (t *Txn) commit(logged bool, ddl string) (LSN, error) {
	if t.done {
		return 0, fmt.Errorf("storage: transaction already finished")
	}
	if t.err != nil {
		t.Abort()
		return 0, t.err
	}
	t.done = true
	if !t.write {
		t.s.unpinSnapshot(t.snap)
		return 0, nil
	}
	var lsn LSN
	changed := len(t.undo) > 0
	if changed || ddl != "" {
		s := t.s
		s.commitMu.Lock()
		ts := s.published.Load().ts + 1
		for i := range t.undo {
			u := &t.undo[i]
			if u.v != nil {
				u.v.begin.Store(ts)
			}
			if u.old != nil {
				u.old.end.Store(ts)
			}
		}
		if logged {
			// The redo record is built only for the log, exactly sized, and
			// carved: records leave the log in its order, so a chunk goes
			// with the prefix that holds it.
			var redo []ChangeRec
			if ddl == "" {
				redo = s.redo.carve(len(t.undo), redoChunk)
				for i := range t.undo {
					redo[i] = t.undo[i].redo()
				}
			}
			lsn = s.wal.Append(t.id, time.Now(), redo, ddl)
		}
		// Publishing the mark is the commit point: after this single store,
		// every new snapshot sees the whole transaction; none sees a part.
		m := &s.marks.carve(1, markChunk)[0]
		*m = snapMark{ts: ts, walEnd: s.wal.End()}
		s.published.Store(m)
		s.commitMu.Unlock()
		// Each superseded/deleted version is future garbage; the hint lets GC
		// skip tables with nothing to reclaim. Counted before the latches
		// drop so a concurrent GC of this table cannot miss it.
		for i := range t.undo {
			if t.undo[i].op != OpInsert {
				t.undo[i].table.deadHint.Add(1)
			}
		}
	}
	t.forget()
	if lsn > 0 && t.s.durable != nil {
		// Group commit: visibility is already published and the latches
		// are gone, so concurrent committers pile onto the same pending
		// fsync; the syncer's next fsync releases the whole group.
		if err := t.s.durable.waitDurable(lsn); err != nil {
			return lsn, err
		}
		t.s.maybeCheckpoint()
	}
	if changed {
		t.s.maybeGC()
	}
	return lsn, nil
}

// forget ends a write once its changes are stamped or unwound: it releases
// its latches and empties its change and latch arrays, clearing them so
// that they pin nothing, and drops either past keptChanges.
func (t *Txn) forget() {
	t.s.releaseLatches(t.id, t.latched)
	clear(t.undo)
	clear(t.latched)
	t.undo, t.latched = t.undo[:0], t.latched[:0]
	if cap(t.undo) > keptChanges {
		t.undo = nil
	}
	if cap(t.latched) > keptChanges {
		t.latched = nil
	}
}

// Abort rolls back all changes made by the transaction: created versions are
// unlinked, ended versions revived. Nothing was stamped with a commit
// timestamp, so no snapshot ever observed any of it.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	if !t.write {
		t.s.unpinSnapshot(t.snap)
		return
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		slot := u.table.slotAt(u.rid)
		switch u.op {
		case OpInsert:
			slot.head.Store(u.v.next.Load())
			u.table.removeEntriesFor(u.v.row, u.rid)
			u.v.row = nil // carved, it pins no row (gcLocked); no reader reads an uncommitted one's
			if slot.head.Load() == nil {
				u.table.free = append(u.table.free, u.rid)
			}
		case OpDelete:
			u.old.end.Store(0)
		case OpUpdate:
			slot.head.Store(u.v.next.Load())
			u.old.end.Store(0)
			u.table.removeEntriesFor(u.v.row, u.rid)
		}
	}
	t.forget()
}

// --- durability -------------------------------------------------------------

// EnableDurability attaches a segmented on-disk log to the store. It must be
// called on a fresh store (before any logged commit); opening an existing
// directory loads the retained commit records into the in-memory WAL so
// Recover can replay them and resumed subscribers can re-read them, and reads
// the newest checkpoint for Recover. The store keeps the IDs of the positions
// it recovered and writes every later one under a fresh ID, in a segment of
// its own (History). The catalog and the heaps stay empty until Recover runs.
func (s *Store) EnableDurability(opts DurabilityOptions) error {
	if s.durable != nil {
		return errors.New("storage: durability already enabled")
	}
	if s.wal.Len() > 0 || s.wal.End() != 1 {
		return errors.New("storage: durability must be enabled on a fresh store")
	}
	d, recs, ckptLSN, found, err := openDiskWAL(opts, rand.Uint64())
	if err != nil {
		return err
	}
	next := LSN(1)
	if len(recs) > 0 {
		next = recs[len(recs)-1].LSN + 1
	}
	if ckptLSN > next {
		// A checkpoint can outlive every WAL record (log fully truncated);
		// LSNs must keep ascending across the restart. ckptLSN is the first
		// LSN the image does not cover, so it is the next one to assign:
		// skipping it would leave a hole in the retained records, which the
		// in-memory log indexes densely (ReadFrom, Truncate).
		next = ckptLSN
	}
	s.wal.adopt(recs, next, d)
	s.wal.retain = s.retainFloor
	s.durable = d
	s.history = found.hist
	s.durOpts = opts
	s.opened = found
	s.ckptLSN.Store(int64(ckptLSN))
	s.published.Store(&snapMark{ts: 0, walEnd: s.wal.End()})
	d.start()
	return nil
}

// SyncedLSN reports the highest LSN the on-disk log has fsynced (0 when the
// store is not durable). Race tests assert on it.
func (s *Store) SyncedLSN() LSN {
	if s.durable == nil {
		return 0
	}
	return s.durable.DurableLSN()
}

// WaitDurable blocks until an fsync covers lsn: at once on a store that is
// not durable, or when lsn is 0.
func (s *Store) WaitDurable(lsn LSN) error {
	if s.durable == nil {
		return nil
	}
	return s.durable.waitDurable(lsn)
}

// Close flushes and closes the on-disk log. The store itself remains usable
// for reads; further logged commits fail.
func (s *Store) Close() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.Close()
}

// maybeCheckpoint triggers an automatic background checkpoint every
// CheckpointEvery logged commits.
func (s *Store) maybeCheckpoint() {
	every := int64(s.durOpts.CheckpointEvery)
	if every <= 0 || s.loggedCommits.Add(1)%every != 0 {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.ckptBusy.Store(false)
		s.Checkpoint() //nolint:errcheck — best effort; the next trigger retries
	}()
}
