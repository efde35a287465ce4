package storage

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/types"
)

// ErrDeadlock is returned when acquiring a table write latch would close a
// wait-for cycle. The transaction is poisoned (Err reports it); callers abort
// and may retry.
var ErrDeadlock = errors.New("storage: deadlock detected")

// gcInterval is how many write commits elapse between automatic version GC
// sweeps.
const gcInterval = 64

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
// wait-for-graph deadlock detection. Commit stamps all created/ended versions
// and appends the WAL under a short critical section, then publishes the new
// timestamp with one atomic store — so concurrent readers observe each
// transaction all-or-nothing. Version garbage collection reclaims images no
// live snapshot can reach, keyed off the oldest pinned snapshot.
type Store struct {
	mu     sync.RWMutex // guards the table map (DDL vs lookup), nothing else
	tables map[string]*TableData
	wal    *WAL
	nextTx atomic.Int64

	commitMu  sync.Mutex // serializes commit stamping + WAL append
	published atomic.Pointer[snapMark]

	snapMu  sync.Mutex // guards snaps/readers; pin reads published inside it
	snaps   map[int64]*snapRef
	readers int

	// Durability state (nil/zero on a purely in-memory store).
	durable       *diskWAL
	durOpts       DurabilityOptions
	openStats     walOpenStats // torn-tail/CRC findings from opening the log
	ckptLSN       atomic.Int64 // WAL position of the latest heap checkpoint
	loggedCommits atomic.Int64 // commits since open, drives auto-checkpoints
	ckptBusy      atomic.Bool  // one automatic checkpoint at a time

	lockMu   sync.Mutex // lock manager: table latch owners + wait-for graph
	lockCond *sync.Cond
	waitFor  map[int64]*TableData

	commits atomic.Int64 // write commits since the last automatic GC trigger
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{
		tables:  make(map[string]*TableData),
		wal:     NewWAL(),
		snaps:   make(map[int64]*snapRef),
		waitFor: make(map[int64]*TableData),
	}
	s.lockCond = sync.NewCond(&s.lockMu)
	s.published.Store(&snapMark{ts: 0, walEnd: s.wal.End()})
	return s
}

// WAL exposes the log for the replication reader.
func (s *Store) WAL() *WAL { return s.wal }

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
			querystore.Emit("deadlock_abort",
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
// registration.
func (s *Store) pinSnapshot() *snapMark {
	s.snapMu.Lock()
	m := s.published.Load()
	if r := s.snaps[m.ts]; r != nil {
		r.count++
	} else {
		s.snaps[m.ts] = &snapRef{count: 1, walEnd: m.walEnd}
	}
	s.readers++
	n := s.readers
	s.snapMu.Unlock()
	metrics.Default.Gauge("storage.snapshots_live").Set(float64(n))
	return m
}

func (s *Store) unpinSnapshot(ts int64) {
	s.snapMu.Lock()
	if r := s.snaps[ts]; r != nil {
		if r.count <= 1 {
			delete(s.snaps, ts)
		} else {
			r.count--
		}
	}
	s.readers--
	n := s.readers
	s.snapMu.Unlock()
	metrics.Default.Gauge("storage.snapshots_live").Set(float64(n))
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
		querystore.Emit("gc_run", "versions", strconv.Itoa(total))
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
	err     error       // sticky: set by deadlock detection, surfaced at commit
	snap    int64       // read transactions: pinned commit timestamp
	asOfLSN LSN         // read transactions: WAL end consistent with snap
	changes []ChangeRec // redo, for the WAL; its rows are the versions' own
	undo    []undoRec
	created []*version   // versions to stamp begin=commitTS
	ended   []*version   // versions to stamp end=commitTS
	latched []*TableData // latches held, released at commit/abort
}

type undoRec struct {
	table *TableData
	op    ChangeOp
	rid   RowID
	v     *version // version created by this txn (insert/update)
	old   *version // version ended by this txn (delete/update)
}

// Begin opens a transaction. Read transactions pin the current snapshot and
// take no locks; write transactions latch tables lazily on first access.
func (s *Store) Begin(write bool) *Txn {
	t := &Txn{s: s, id: s.nextTx.Add(1), write: write}
	if !write {
		m := s.pinSnapshot()
		t.snap = m.ts
		t.asOfLSN = m.walEnd
	}
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() int64 { return t.id }

// IsWrite reports whether this is a write transaction.
func (t *Txn) IsWrite() bool { return t.write }

// Err returns the transaction's sticky error (e.g. ErrDeadlock), if any.
// Once set, every subsequent operation fails and Commit aborts.
func (t *Txn) Err() error { return t.err }

// VisibleEnd returns the WAL position every snapshot taken from now on sees
// at least through: the log end as of the last published commit. A record at
// or past it may already be appended but is not yet visible (nor, under
// SyncAlways, durable), so the log reader stops here.
func (s *Store) VisibleEnd() LSN { return s.published.Load().walEnd }

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
// rule, or nil if the table does not exist or the transaction hit a latch
// deadlock (check Err). Write transactions latch the table on first access —
// read or write — so everything they read is stable until commit.
func (t *Txn) Table(name string) *TableView {
	td, err := t.table(name)
	if err != nil {
		return nil
	}
	if t.write && !t.done {
		if err := t.latch(td); err != nil {
			return nil
		}
	}
	return &TableView{td: td, txn: t, snap: t.snap}
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
	t.changes = append(t.changes, ChangeRec{Table: td.meta.Name, Op: OpInsert, After: row})
	t.undo = append(t.undo, undoRec{table: td, op: OpInsert, rid: rid, v: v})
	t.created = append(t.created, v)
	return rid, nil
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
	t.changes = append(t.changes, ChangeRec{Table: td.meta.Name, Op: OpDelete, Before: old.row})
	t.undo = append(t.undo, undoRec{table: td, op: OpDelete, rid: rid, old: old})
	t.ended = append(t.ended, old)
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
	t.changes = append(t.changes, ChangeRec{Table: td.meta.Name, Op: OpUpdate, Before: old.row, After: newRow})
	t.undo = append(t.undo, undoRec{table: td, op: OpUpdate, rid: rid, v: v, old: old})
	t.created = append(t.created, v)
	t.ended = append(t.ended, old)
	return nil
}

// Apply carries out a row-level change that happened elsewhere — on the
// relation a materialized view is defined over, or on a publisher — on the
// table ch.Table: an insert adds ch.After; an update or a delete first finds
// the stored row that is ch.Before, by the table's primary key when it has
// one and by full-row equality otherwise (any one of equal rows will do), and
// fails when there is none: the table no longer holds what it was derived
// from. The store keeps ch.After itself, as Insert and Update do.
func (t *Txn) Apply(ch ChangeRec) error {
	td, err := t.tableForWrite(ch.Table)
	if err != nil {
		return err
	}
	if ch.Op == OpInsert {
		_, err = t.insert(td, ch.After)
		return err
	}
	tv := TableView{td: td, txn: t}
	rid := RowID(-1)
	if pk := td.meta.PrimaryKey; len(pk) > 0 {
		rid = tv.PKLookup(indexKey(ch.Before, pk))
	} else {
		tv.Scan(func(r RowID, row types.Row) bool {
			if types.RowsEqual(row, ch.Before) {
				rid = r
			}
			return rid < 0
		})
	}
	if rid < 0 {
		return fmt.Errorf("storage: %s is out of sync: row %v of a %s is missing", td.meta.Name, ch.Before, ch.Op)
	}
	if ch.Op == OpDelete {
		return t.delete(td, rid)
	}
	return t.update(td, rid, ch.After)
}

// Commit finishes the transaction, logging its changes. The returned LSN is
// 0 for read-only or changeless transactions.
func (t *Txn) Commit() (LSN, error) {
	return t.commit(true)
}

// CommitUnlogged commits without writing the WAL (used by the replication
// subscriber's apply path: replicated changes must not re-enter the local
// log and echo back). The commit timestamp still advances, so readers see
// the applied batch atomically.
func (t *Txn) CommitUnlogged() error {
	_, err := t.commit(false)
	return err
}

func (t *Txn) commit(logged bool) (LSN, error) {
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
	var syncErr error
	if len(t.undo) > 0 {
		s := t.s
		s.commitMu.Lock()
		ts := s.published.Load().ts + 1
		for _, v := range t.created {
			v.begin.Store(ts)
		}
		for _, v := range t.ended {
			v.end.Store(ts)
		}
		if logged && len(t.changes) > 0 {
			lsn = s.wal.Append(t.id, time.Now(), t.changes)
		}
		if lsn > 0 && s.durable != nil && s.durable.policy == SyncAlways {
			// Strict WAL: the record reaches disk before the commit becomes
			// visible to anyone else — one fsync per commit, serialized by
			// commitMu. This is the baseline group commit is measured against.
			syncErr = s.durable.flush(true)
		}
		// Publishing the mark is the commit point: after this single store,
		// every new snapshot sees the whole transaction; none sees a part.
		s.published.Store(&snapMark{ts: ts, walEnd: s.wal.End()})
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
	t.s.releaseLatches(t.id, t.latched)
	if lsn > 0 && t.s.durable != nil {
		if t.s.durable.policy == SyncGroup {
			// Group commit: visibility is already published and the latches
			// are gone, so concurrent committers pile onto the same pending
			// fsync; the syncer's next fsync releases the whole group.
			syncErr = t.s.durable.waitDurable(lsn)
		}
		if syncErr != nil {
			return lsn, syncErr
		}
		t.s.maybeCheckpoint()
	}
	if t.write && len(t.undo) > 0 {
		t.s.maybeGC()
	}
	return lsn, nil
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
			u.table.removeEntriesFor(u.v.row, u.rid, nil)
			if slot.head.Load() == nil {
				u.table.free = append(u.table.free, u.rid)
			}
		case OpDelete:
			u.old.end.Store(0)
		case OpUpdate:
			slot.head.Store(u.v.next.Load())
			u.old.end.Store(0)
			u.table.removeEntriesFor(u.v.row, u.rid, u.old.row)
		}
	}
	t.s.releaseLatches(t.id, t.latched)
}

// --- durability -------------------------------------------------------------

// EnableDurability attaches a segmented on-disk log to the store. It must be
// called on a fresh store (before any logged commit); opening an existing
// directory loads the retained commit records into the in-memory WAL so
// Recover can replay them and resumed subscribers can re-read them. The
// heaps stay empty until Recover runs.
func (s *Store) EnableDurability(opts DurabilityOptions) error {
	if s.durable != nil {
		return errors.New("storage: durability already enabled")
	}
	if s.wal.Len() > 0 || s.wal.End() != 1 {
		return errors.New("storage: durability must be enabled on a fresh store")
	}
	d, recs, ckptLSN, stats, err := openDiskWAL(opts)
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
	s.durOpts = opts
	s.openStats = stats
	s.ckptLSN.Store(int64(ckptLSN))
	s.published.Store(&snapMark{ts: 0, walEnd: s.wal.End()})
	d.start()
	return nil
}

// Durable reports whether the store has an on-disk log.
func (s *Store) Durable() bool { return s.durable != nil }

// SyncedLSN reports the highest LSN the on-disk log has fsynced (0 when the
// store is not durable). Race tests assert on it.
func (s *Store) SyncedLSN() LSN {
	if s.durable == nil {
		return 0
	}
	return s.durable.DurableLSN()
}

// Sync forces buffered log records to disk (used by SyncInterval/SyncNone
// stores before a planned shutdown, and by checkpoints).
func (s *Store) Sync() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.flush(true)
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

// HasDurableState reports whether dir holds a prior store's log or
// checkpoint (the recover-on-boot decision). fsys nil means the OS.
func HasDurableState(fsys FS, dir string) bool {
	if fsys == nil {
		fsys = OSFS()
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, name := range names {
		if _, ok := parseSeqName(name, "wal-", ".seg"); ok {
			return true
		}
		if _, ok := parseSeqName(name, "ckpt-", ".ckpt"); ok {
			return true
		}
	}
	return false
}
