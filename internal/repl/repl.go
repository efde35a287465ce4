// Package repl implements transactional replication in the style of SQL
// Server (paper §2.2): a publish–subscribe pipeline where
//
//   - a publisher defines articles — select-project expressions over a table
//     or materialized view;
//   - a subscriber (a cache) holds one subscription: a publication of the
//     articles its cached views are fed from, one distribution queue and one
//     log-reader cursor, however many views it has;
//   - a log reader agent collects committed changes by sniffing the
//     publisher's transaction log (our storage WAL) and inserts them into the
//     distribution database — one TxnBatch per commit record and subscription,
//     carrying every article's share of that transaction;
//   - a distribution agent on the subscriber (Subscriber, the paper's "pull
//     subscription") wakes up periodically, pulls its pending transactions
//     and applies them one complete committed transaction at a time, in
//     commit order and each in one local transaction — so a subscriber always
//     sees a transactionally consistent (if slightly stale) state across all
//     of its views;
//   - changes are deleted from the distribution database once the subscriber
//     has acknowledged them, and from the log once every subscriber has
//     (WAL truncation).
//
// Server is the publisher half (articles, subscriptions, log reader);
// Subscriber is the subscriber half (cursor, dedup, apply). Both can run
// from background goroutines with a poll interval (the paper's "separate
// agent process that wakes up periodically") or be stepped manually for
// deterministic tests.
package repl

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
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
// publication plus its distribution queue: the articles the subscriber's
// tables are fed from and the one queue a remote Subscriber drains with pulls
// and acks.
type Subscription struct {
	Name string // the subscriber's name

	feeds []feed // guarded by Server.mu

	mu      sync.Mutex
	queue   []TxnBatch  // the distribution database's pending transactions
	nextLSN storage.LSN // the log-reader cursor: first LSN not yet enqueued; written under Server.mu too
	acked   storage.LSN // highest LSN acknowledged off the queue

	// currentAsOf is the moment the subscriber is known to have been handed
	// everything: advanced to the log reader's pass start whenever the queue
	// is fully acknowledged.
	currentAsOf time.Time
}

// filter maps a commit record through the subscription's articles, in the
// record's change order: one transaction's share for every target.
func (sub *Subscription) filter(rec storage.CommitRecord) []storage.ChangeRec {
	var out []storage.ChangeRec
	for _, ch := range rec.Changes {
		for _, f := range sub.feeds {
			if f.start <= rec.LSN && strings.EqualFold(ch.Table, f.Table) {
				c, ok, err := f.Map(ch)
				if err != nil {
					// Passed over, as a row the filter rejects is; the counter is
					// the trace that it could not be evaluated.
					metrics.Default.Counter("repl.filter_errors").Add(1)
				}
				if ok {
					c.Table = f.target
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// Staleness returns the publisher's upper bound on how far the subscriber
// trails it. With unacknowledged transactions it is the age of the oldest
// one; otherwise the time since the subscription was last known current.
func (sub *Subscription) Staleness(now time.Time) time.Duration {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.queue) > 0 {
		return now.Sub(sub.queue[0].CommitTime)
	}
	return now.Sub(sub.currentAsOf)
}

// Stats reports the publisher's replication overheads, used by the
// replication experiments (paper §6.2.2). The subscriber's half is
// ApplyStats.
type Stats struct {
	TxnsQueued *metrics.Counter
	ReaderTime *metrics.Counter // ns spent by the log reader (backend overhead)
}

// Server is the replication runtime for one publisher: its articles, its
// subscriptions and the log reader.
type Server struct {
	publisher *engine.Database

	// mu guards the lists and is held for a whole log-reader pass, so
	// attaching an article (Provision, Resume) is atomic with respect to the
	// reader.
	mu       sync.Mutex
	articles []*Article
	subs     []*Subscription // the index is the id a subscriber pulls with
	readerOn bool

	reader Agent

	Stats Stats
}

// NewServer creates the replication runtime for a publisher database.
func NewServer(publisher *engine.Database) *Server {
	return &Server{
		publisher: publisher,
		readerOn:  true,
		Stats:     Stats{TxnsQueued: &metrics.Counter{}, ReaderTime: &metrics.Counter{}},
	}
}

// SetLogReader turns the log reader on or off (experiment §6.2.2 measures
// backend overhead by comparing throughput with the reader on vs off).
func (s *Server) SetLogReader(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readerOn = on
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

// RunLogReader performs one log-reader pass: transactions committed since the
// subscriptions' cursors are filtered per subscription and enqueued in the
// distribution database, one batch per commit record. Returns the number of
// commit records processed.
func (s *Server) RunLogReader() int {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.Stats.ReaderTime.Add(int64(d))
		metrics.Default.Histogram("repl.reader_seconds").ObserveDuration(d)
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.readerOn {
		return 0
	}
	wal := s.publisher.Store().WAL()
	end := s.publisher.Store().VisibleEnd()
	from := end
	for _, sub := range s.subs {
		from = min(from, sub.nextLSN)
	}
	var recs []storage.CommitRecord
	if from < end {
		recs = wal.ReadFrom(from, int(end-from))
	}
	for _, rec := range recs {
		for _, sub := range s.subs {
			if sub.nextLSN > rec.LSN {
				continue // delivered by an earlier pass
			}
			changes := sub.filter(rec)
			// Advance the cursor and enqueue in ONE critical section: the
			// cursor doubles as the stream-completeness position
			// (DrainAfterThrough reports nextLSN-1), so a cursor advanced
			// before its record is queued would let a concurrent drain claim
			// completeness through a record it did not deliver.
			sub.mu.Lock()
			sub.nextLSN = rec.LSN + 1
			if len(changes) > 0 {
				sub.queue = append(sub.queue, TxnBatch{LSN: rec.LSN, CommitTime: rec.CommitTime, Changes: changes})
			}
			sub.mu.Unlock()
			if len(changes) > 0 {
				s.Stats.TxnsQueued.Add(1)
			}
		}
	}

	// Drop distribution/WAL entries every subscription has consumed ("once
	// changes have been propagated to all subscribers, they are deleted from
	// the distribution database", §2.2). A subscription still needs everything
	// from its oldest unacknowledged batch — or, with an empty queue, from its
	// cursor — onward. Subscriptions with empty queues are also current as of
	// this pass start (any later commit will be seen by the next pass).
	keep := end
	for _, sub := range s.subs {
		sub.mu.Lock()
		if len(sub.queue) > 0 {
			keep = min(keep, sub.queue[0].LSN)
		} else if start.After(sub.currentAsOf) {
			sub.currentAsOf = start
		}
		keep = min(keep, sub.nextLSN)
		sub.mu.Unlock()
		metrics.Default.Gauge("repl.staleness_seconds." + sub.Name).
			Set(sub.Staleness(time.Now()).Seconds())
	}
	wal.Truncate(keep)
	return len(recs)
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

// Start launches the background log-reader agent, waking at its interval.
// (The distribution agents run on the subscribers: Subscriber.Pull.)
func (s *Server) Start(readerInterval time.Duration) {
	s.reader.Start(readerInterval, func() { s.RunLogReader() })
}

// Stop halts the log-reader agent and waits for it to exit.
func (s *Server) Stop() { s.reader.Stop() }

// Subscriptions returns the current subscription list.
func (s *Server) Subscriptions() []*Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Subscription(nil), s.subs...)
}

// PendingFor reports the queued transaction count for a subscription.
func (s *Server) PendingFor(sub *Subscription) int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.queue)
}

// SubHealth is one subscription's health snapshot for the obs endpoint. The
// apply-failure record lives with the subscriber (its sys.repl_status).
type SubHealth struct {
	Name             string  `json:"name"`
	Pending          int     `json:"pending"`
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// Health reports per-subscription replication health as the publisher sees
// it: unacknowledged queue depth and staleness. Served at /debug/status by
// the obs handler.
func (s *Server) Health() []SubHealth {
	now := time.Now()
	subs := s.Subscriptions()
	out := make([]SubHealth, 0, len(subs))
	for _, sub := range subs {
		out = append(out, SubHealth{
			Name:             sub.Name,
			Pending:          s.PendingFor(sub),
			StalenessSeconds: sub.Staleness(now).Seconds(),
		})
	}
	return out
}
