// Package repl implements transactional replication in the style of SQL
// Server (paper §2.2): a publish–subscribe pipeline where
//
//   - a publisher defines articles — select-project expressions over a table
//     or materialized view;
//   - a subscriber (a cache) holds one subscription: a publication of the
//     articles its cached views are fed from and the highest LSN it has
//     acknowledged, however many views it has;
//   - the publisher's transaction log (our storage WAL) is the distribution
//     database: a pull reads the subscription's share of it straight from the
//     log, past the subscription's ack — one TxnBatch per commit record that
//     touches an article, carrying every article's share of that transaction;
//   - a distribution agent on the subscriber (Subscriber, the paper's "pull
//     subscription") wakes up periodically, pulls its pending transactions
//     and applies them one complete committed transaction at a time, in
//     commit order and each in one local transaction — so a subscriber always
//     sees a transactionally consistent (if slightly stale) state across all
//     of its views;
//   - changes are deleted from the log once every subscriber has acknowledged
//     them (WAL truncation); a subscription whose oldest unacknowledged change
//     is older than the retention period is expired by the truncation agent,
//     so a subscriber that stays behind — silent, or pulling without
//     applying — cannot pin the log. A subscriber the publisher no longer
//     holds — expired, or forgotten by a publisher restart — is told so
//     (ErrNoSubscription) and attaches again by name (Provision);
//     subscription IDs are never handed out twice, so it cannot pull another
//     subscriber's stream;
//   - a subscriber resumes only on the log it applied: Provision resumes a
//     view only when the publisher's log names the subscriber's position by
//     the subscriber's ID for it (storage.Store.IDAt) and still holds it.
//     Subscription ids keep their random base anyway: it names a publisher
//     process, which a durable restart replaces while keeping the log, so a
//     pull carries no ID.
//
// Server is the publisher half (articles, subscriptions, the pull that reads
// the log, truncation); Subscriber is the subscriber half (cursor, dedup,
// apply). Both can run from background goroutines with a poll interval (the
// paper's "separate agent process that wakes up periodically") or be stepped
// manually for deterministic tests.
package repl

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Article is a select-project publication unit over one source table or
// materialized view. Its compiled form is the ChangeMap a backend maintains a
// materialized view of the same definition with.
type Article struct {
	Name    string
	Table   string   // source table/MV name on the publisher
	Columns []string // projected source columns (nil = all, in table order)
	Filter  sql.Expr // row filter over source columns (nil = all rows)

	*opt.ChangeMap
}

// feed is one article of a subscription: the article's changes from start on
// travel in the subscription's stream addressed to target.
type feed struct {
	*Article
	target string      // the subscriber's table (a cached view)
	start  storage.LSN // the target was seeded through start-1
}

// Subscription is the publisher's record of one subscriber — the paper's
// publication: the articles the subscriber's tables are fed from and how far
// it has acknowledged the stream. Its pending transactions are the WAL past
// acked, which truncation keeps. Both fields are guarded by Server.mu; feeds
// is replaced, never changed in place, so a pull may filter through the slice
// it read after releasing the lock.
type Subscription struct {
	Name string // the subscriber's name

	feeds []feed
	acked storage.LSN // the highest LSN the subscriber has acknowledged
}

// filter maps a commit record through feeds, in the record's change order —
// one transaction's share for every target — appending the changes to
// changes and their projected rows' values to vals.
func filter(changes []storage.ChangeRec, vals []types.Value, feeds []feed, rec storage.CommitRecord) ([]storage.ChangeRec, []types.Value) {
	for _, ch := range rec.Changes {
		for _, f := range feeds {
			if f.start <= rec.LSN && strings.EqualFold(ch.Table, f.Table) {
				c, v, ok, err := f.AppendMap(vals, ch)
				if err != nil {
					// Passed over, as a row the filter rejects is; the counter is
					// the trace that it could not be evaluated.
					metrics.Default.Counter("repl.filter_errors").Add(1)
				}
				if ok {
					c.Table, vals = f.target, v
					changes = append(changes, c)
				}
			}
		}
	}
	return changes, vals
}

// answerSize bounds what filtering recs through feeds makes: the records that
// touch a feed's table, every feed's change for each of their changes to it,
// and the values of those changes' images (ChangeMap.Values: no Before image
// on an update that keeps the key). It is exact when no feed filters rows and
// no limit cuts the answer short.
func answerSize(feeds []feed, recs []storage.CommitRecord) (batches, changes, vals int) {
	for _, rec := range recs {
		before := changes
		for _, ch := range rec.Changes {
			for _, f := range feeds {
				if f.start <= rec.LSN && strings.EqualFold(ch.Table, f.Table) {
					changes++
					vals += f.Values(ch)
				}
			}
		}
		if changes > before {
			batches++
		}
	}
	return batches, changes, vals
}

// Slabs are the arrays a pull answer is built in (PullInto): its batches,
// their changes and the values of every projected row. A pull reuses them
// when they are long enough and replaces them with arrays sized for its
// answer when not.
type Slabs struct {
	batches []TxnBatch
	changes []storage.ChangeRec
	vals    []types.Value
}

// keepBatches, keepChanges and keepVals bound the arrays Slabs keep past
// Clear, so that what an idle holder pins stays small whatever one pull
// answered (a subscriber catching up after an outage). They sit above the
// largest answer measured on the fleet benchmark's four workloads in steady
// state — 6 batches, 11 changes and 147 values on browsing, 15, 36 and 407 on
// ordering, where more than 32 changes came once in about 5 500 answers — and
// below the catch-up answer each adhoc round starts with (25 to 63 batches,
// 550 to 1 386 values), whose arrays are dropped.
const (
	keepBatches = 16
	keepChanges = 32
	keepVals    = 512
)

// room returns s emptied when it has room for n elements, and a new empty
// slice of capacity n when not.
func room[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
}

// Clear drops what the last answer left in s, so that s refers to no row, and
// an array above its keep bound.
func (s *Slabs) Clear() {
	clear(s.batches)
	clear(s.changes)
	clear(s.vals)
	if cap(s.batches) > keepBatches {
		s.batches = nil
	}
	if cap(s.changes) > keepChanges {
		s.changes = nil
	}
	if cap(s.vals) > keepVals {
		s.vals = nil
	}
	s.batches, s.changes, s.vals = s.batches[:0], s.changes[:0], s.vals[:0]
}

// Stats reports the publisher's replication overheads, used by the
// replication experiments (paper §6.2.2). The subscriber's half is
// ApplyStats.
type Stats struct {
	ReaderTime *metrics.Counter // ns pulls spent reading and filtering the log (backend overhead)
}

// Server is the replication runtime for one publisher: its articles, its
// subscriptions and the truncation agent.
type Server struct {
	publisher *engine.Database

	// mu guards the lists and every subscription's feeds and ack. A pull reads
	// the log under it, so attaching an article (Provision) is atomic
	// with respect to every pull.
	mu       sync.Mutex
	articles []*Article
	subs     map[int]*Subscription // by the id a subscriber pulls with
	nextID   int                   // the id the next subscription gets

	truncator Agent

	Stats Stats
}

// ErrNoSubscription is a pull's answer when the publisher does not hold the
// subscription it names: it expired, or the publisher restarted since it was
// made. Retrying cannot help; the subscriber attaches its tables again
// (Provision), which makes a new subscription.
var ErrNoSubscription = errors.New("repl: unknown subscription")

// retention is how old a subscription's oldest unacknowledged commit may grow
// before the truncation agent expires it — keyed on the commit's age, since
// what it bounds is the log held in memory. 30 s is three times the longest a
// live subscriber's ack lags (two pull rounds and one pull's retry budget,
// about 8.5 s); EXPERIMENTS.md has the log growth and reseed cost it was
// set against.
const retention = 30 * time.Second

// NewServer creates the replication runtime for a publisher database. Its
// subscription ids count up from a random base, so a subscriber holding an id
// from an earlier server over the same database — one that restarted — finds
// no subscription rather than another subscriber's.
func NewServer(publisher *engine.Database) *Server {
	return &Server{publisher: publisher, subs: map[int]*Subscription{}, nextID: rand.IntN(math.MaxInt / 2),
		Stats: Stats{ReaderTime: &metrics.Counter{}}}
}

// EnsureArticle finds or creates an article matching (table, columns,
// filter). Mirrors the paper's "if no suitable publication exists, one is
// automatically created" (§4).
func (s *Server) EnsureArticle(table string, columns []string, filter sql.Expr) (*Article, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := articleKey(table, columns, filter)
	for _, a := range s.articles {
		if articleKey(a.Table, a.Columns, a.Filter) == key {
			return a, nil
		}
	}
	src := s.publisher.Catalog().Table(table)
	if src == nil {
		return nil, fmt.Errorf("repl: source table %s does not exist on publisher", table)
	}
	sp, err := catalog.NewSelectProject(src, columns, filter)
	if err != nil {
		return nil, fmt.Errorf("repl: article: %w", err)
	}
	m, err := opt.CompileChangeMap(sp)
	if err != nil {
		return nil, fmt.Errorf("repl: article: %w", err)
	}
	a := &Article{
		Name:      fmt.Sprintf("art_%s_%d", strings.ToLower(table), len(s.articles)+1),
		Table:     src.Name,
		Columns:   columns,
		Filter:    filter,
		ChangeMap: m,
	}
	s.articles = append(s.articles, a)
	return a, nil
}

func articleKey(table string, columns []string, filter sql.Expr) string {
	k := strings.ToLower(table) + "|" + strings.ToLower(strings.Join(columns, ","))
	if filter != nil {
		k += "|" + sql.DeparseExpr(filter)
	}
	return k
}

// TruncateLog is the truncation agent's pass: it expires every subscription
// whose oldest unacknowledged commit is older than the retention period,
// truncates the log and publishes each remaining subscription's staleness
// gauge (Health's, at the time of the pass). Only this pass expires; a pull
// truncates but never expires, so a backend that runs no agent keeps every
// subscription.
func (s *Server) TruncateLog() { s.truncateLog(time.Now()) }

func (s *Server) truncateLog(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sub := range s.subs {
		pending, stale := s.lag(sub, now)
		if stale <= retention {
			metrics.Default.Gauge("repl.staleness_seconds." + sub.Name).Set(stale.Seconds())
			continue
		}
		delete(s.subs, id)
		metrics.Default.Event("repl.subscription_expired", "sub", sub.Name,
			"acked_lsn", strconv.FormatInt(int64(sub.acked), 10), "pending", strconv.Itoa(pending))
	}
	s.truncate()
}

// truncate drops the WAL below every subscription's first unacknowledged LSN
// — below the visible end when there are no subscriptions ("once changes have
// been propagated to all subscribers, they are deleted", §2.2). Callers hold
// s.mu.
func (s *Server) truncate() {
	keep := s.publisher.Store().VisibleEnd()
	for _, sub := range s.subs {
		keep = min(keep, sub.acked+1)
	}
	s.publisher.Store().WAL().Truncate(keep)
}

// lag returns how far sub trails the publisher: the number of visible commits
// past its ack and the age of the oldest of them — zero when it has
// acknowledged everything visible. Callers hold s.mu.
func (s *Server) lag(sub *Subscription, now time.Time) (int, time.Duration) {
	end := s.publisher.Store().VisibleEnd()
	if sub.acked+1 >= end {
		return 0, 0
	}
	var age time.Duration
	if recs := s.publisher.Store().WAL().ReadFrom(sub.acked+1, 1); len(recs) > 0 {
		age = now.Sub(recs[0].CommitTime)
	}
	return int(end - 1 - sub.acked), age
}

// Agent is a background agent: Start runs a function at every tick of its
// interval (the paper's "separate agent process that wakes up
// periodically") until Stop.
type Agent struct {
	mu     sync.Mutex
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// Start launches the agent; it is a no-op while the agent is running.
func (a *Agent) Start(interval time.Duration, fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopCh != nil {
		return
	}
	stop := make(chan struct{})
	a.stopCh = stop
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// Stop halts the agent and waits for it to exit.
func (a *Agent) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.stopCh == nil {
		return
	}
	close(a.stopCh)
	a.stopCh = nil
	a.wg.Wait()
}

// Start launches the background truncation agent, waking at its interval, so
// a log no subscriber pulls from is still truncated. (The distribution agents
// run on the subscribers: Subscriber.Pull.)
func (s *Server) Start(interval time.Duration) {
	s.truncator.Start(interval, s.TruncateLog)
}

// Stop halts the truncation agent and waits for it to exit.
func (s *Server) Stop() { s.truncator.Stop() }

// SubHealth is one subscription's health snapshot for the obs endpoint. The
// apply-failure record lives with the subscriber (its sys.repl_status).
type SubHealth struct {
	Name             string      `json:"name"`
	AckedLSN         storage.LSN `json:"acked_lsn"`
	Pending          int         `json:"pending"` // visible commits past AckedLSN
	StalenessSeconds float64     `json:"staleness_seconds"`
}

// Health reports the replication health of each subscription, by the id its
// subscriber pulls with, as the publisher sees it at now: the acknowledged
// position, the visible commits past it and the age of the oldest of those.
// Served at /debug/status by the obs handler.
func (s *Server) Health(now time.Time) map[int]SubHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]SubHealth, len(s.subs))
	for id, sub := range s.subs {
		pending, stale := s.lag(sub, now)
		out[id] = SubHealth{Name: sub.Name, AckedLSN: sub.acked, Pending: pending, StalenessSeconds: stale.Seconds()}
	}
	return out
}
