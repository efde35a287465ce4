// Package eventlog is the process's structured event log: a bounded ring of
// discrete occurrences worth a DBA's attention, which storage, wire, repl,
// core and engine emit and sys.events, the shells' \events and obs's
// /debug/events read. It imports only internal/metrics and the standard
// library, so every layer can emit without an import cycle.
package eventlog

import (
	"strings"
	"sync"
	"time"

	"mtcache/internal/metrics"
)

// Event is one discrete occurrence worth a DBA's attention: a repl
// resubscribe, a group-commit wedge, a checkpoint, a GC run, a plan
// eviction, a deadlock abort, retry exhaustion. Events are cheap,
// structured, and bounded — the SQL-visible cousin of a log line.
type Event struct {
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`
	Fields []Field   `json:"fields,omitempty"`
}

// Field is one key/value pair attached to an event. A slice (not a map)
// keeps emission allocation-light and the rendering order stable.
type Field struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Detail renders the fields as "k=v k=v" for one-line display
// (sys.events, the shell, text debug endpoints).
func (e Event) Detail() string {
	if len(e.Fields) == 0 {
		return ""
	}
	var b strings.Builder
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f.K)
		b.WriteByte('=')
		b.WriteString(f.V)
	}
	return b.String()
}

// ring is a fixed-size ring buffer of events. Writers never block on
// readers and memory is bounded by the capacity regardless of event rate.
type ring struct {
	mu   sync.Mutex
	buf  []Event
	next int   // ring write position
	seq  int64 // monotonically increasing event sequence number
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Event, 0, capacity)}
}

// emit records one event. kv is alternating key, value strings; a trailing
// odd key is recorded with an empty value rather than dropped.
func (l *ring) emit(kind string, kv ...string) {
	e := Event{Time: time.Now(), Kind: kind}
	if len(kv) > 0 {
		e.Fields = make([]Field, 0, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			f := Field{K: kv[i]}
			if i+1 < len(kv) {
				f.V = kv[i+1]
			}
			e.Fields = append(e.Fields, f)
		}
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.buf)
	l.mu.Unlock()
	metrics.Default.Counter("querystore.events").Add(1)
}

// recent returns up to n events, newest first (all retained events when
// n <= 0).
func (l *ring) recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := len(l.buf)
	if total == 0 {
		return nil
	}
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, 0, n)
	// next-1 is the most recently written slot.
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + total) % total
		out = append(out, l.buf[idx])
	}
	return out
}

// events is the process-wide log, shared by every subsystem so a single
// sys.events query tells the whole story in order.
var events = newRing(1024)

// Emit records an event on the process-wide log.
func Emit(kind string, kv ...string) { events.emit(kind, kv...) }

// Recent returns up to n of the process-wide log's events, newest first (all
// retained events when n <= 0).
func Recent(n int) []Event { return events.recent(n) }
