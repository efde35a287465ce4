package wire

import (
	"fmt"
	"sync"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/resilience"
)

// Pool is a sized set of multiplexed client connections to one backend
// address. Because each connection is itself multiplexed, Get never checks
// a connection out — it hands back a shared *Client round-robin, dialing
// slots lazily on first use and re-dialing slots whose connection broke.
// The pool therefore spreads concurrent load over up to size TCP
// connections while any single slow dial or dead slot costs only the
// requests routed to it.
//
// Dialing happens under a per-slot lock, never the pool lock: a slow dial
// delays only the requests round-robined onto that cold slot, while Gets
// routed to warm slots proceed untouched. And when a slot's dial fails, Get
// falls back to any other slot already holding a live connection before
// reporting failure — one bad dial must not fail a request the rest of the
// pool could serve.
//
// Metrics (on the registry passed to NewPool):
//
//	wire.pool_open          gauge: currently open pooled connections
//	wire.pool_wait_seconds  histogram: time Get spent producing a connection
//	                        (≈0 on the hot path, dial time on a cold slot)
//	wire.dial_failures      counter: failed dials
//	wire.reconnects         counter: re-dials of a slot that had a live
//	                        connection before
//	wire.pool_fallbacks     counter: Gets served by another slot's live
//	                        connection after their own slot's dial failed
type Pool struct {
	addr    string
	size    int
	timeout time.Duration
	reg     *metrics.Registry
	wait    *metrics.Histogram                                        // wire.pool_wait_seconds
	dialFn  func(addr string, timeout time.Duration) (*Client, error) // test seam

	slots []*poolSlot

	mu     sync.Mutex // guards next, closed
	next   int
	closed bool
}

// poolSlot is one pooled connection position. dialMu is held for the
// duration of a (re-)dial; mu only for quick reads and writes of the slot
// state, so observers (Open, fallback scans, Invalidate) never wait behind
// an in-progress dial.
type poolSlot struct {
	dialMu sync.Mutex

	mu     sync.Mutex
	c      *Client
	dialed bool // slot ever held a connection (distinguishes re-dials)
}

// client returns the slot's connection if it is live, else nil.
func (s *poolSlot) client() *Client {
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	if c != nil && !c.Broken() {
		return c
	}
	return nil
}

// NewPool creates a pool of up to size connections to addr. No connection
// is dialed until the first Get. size < 1 is clamped to 1; reg may be nil
// to use metrics.Default. timeout is passed through to each Dial and bounds
// every round trip on the pooled connections.
func NewPool(addr string, size int, timeout time.Duration, reg *metrics.Registry) *Pool {
	if size < 1 {
		size = 1
	}
	if reg == nil {
		reg = metrics.Default
	}
	p := &Pool{
		addr:    addr,
		size:    size,
		timeout: timeout,
		reg:     reg,
		wait:    reg.Histogram("wire.pool_wait_seconds"),
		dialFn:  Dial,
		slots:   make([]*poolSlot, size),
	}
	for i := range p.slots {
		p.slots[i] = &poolSlot{}
	}
	return p
}

// Size returns the pool's slot count.
func (p *Pool) Size() int { return p.size }

// Open returns the number of currently live pooled connections.
func (p *Pool) Open() int {
	n := 0
	for _, s := range p.slots {
		if s.client() != nil {
			n++
		}
	}
	return n
}

// Get returns the next connection round-robin, dialing the slot if it is
// empty or its connection broke. Only requests routed to the cold slot wait
// on its dial; if the dial fails, Get answers with any other slot's live
// connection before giving up.
func (p *Pool) Get() (*Client, error) {
	start := time.Now()
	defer func() { p.wait.ObserveDuration(time.Since(start)) }()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, resilience.Terminal(fmt.Errorf("wire: pool closed: %w", resilience.ErrBackendDown))
	}
	slot := p.next
	p.next = (p.next + 1) % p.size
	p.mu.Unlock()

	c, err := p.getSlot(p.slots[slot])
	if err == nil {
		return c, nil
	}
	// This slot's dial failed — scan the rest of the pool for a live
	// connection. The scan takes only the quick per-slot lock, so it never
	// waits behind another slot's in-progress dial.
	for i, s := range p.slots {
		if i == slot {
			continue
		}
		if lc := s.client(); lc != nil {
			p.reg.Counter("wire.pool_fallbacks").Add(1)
			return lc, nil
		}
	}
	return nil, err
}

// getSlot returns the slot's live connection, dialing under the slot lock
// when it is cold or broken.
func (p *Pool) getSlot(s *poolSlot) (*Client, error) {
	if c := s.client(); c != nil {
		return c, nil
	}
	s.dialMu.Lock()
	defer s.dialMu.Unlock()
	// Re-check: a Get that held dialMu ahead of us may have just re-dialed.
	s.mu.Lock()
	old := s.c
	s.mu.Unlock()
	if old != nil && !old.Broken() {
		return old, nil
	}
	if old != nil {
		old.Close()
		s.mu.Lock()
		s.c = nil
		s.mu.Unlock()
		p.publishOpen()
	}
	c, err := p.dialFn(p.addr, p.timeout)
	if err != nil {
		p.reg.Counter("wire.dial_failures").Add(1)
		return nil, err
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		c.Close()
		return nil, resilience.Terminal(fmt.Errorf("wire: pool closed: %w", resilience.ErrBackendDown))
	}
	s.mu.Lock()
	if s.dialed {
		p.reg.Counter("wire.reconnects").Add(1)
	}
	s.dialed = true
	s.c = c
	s.mu.Unlock()
	p.publishOpen()
	return c, nil
}

// Invalidate drops a broken connection from its slot so the next Get
// re-dials it. Requests still in flight on the connection fail with the
// connection; callers on other pooled connections are untouched.
func (p *Pool) Invalidate(c *Client) {
	for _, s := range p.slots {
		s.mu.Lock()
		if s.c == c {
			s.c = nil
			s.mu.Unlock()
			break
		}
		s.mu.Unlock()
	}
	p.publishOpen()
	c.Close()
}

// Close closes every pooled connection and refuses further Gets.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	var first error
	for _, s := range p.slots {
		s.mu.Lock()
		c := s.c
		s.c = nil
		s.mu.Unlock()
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	p.publishOpen()
	return first
}

func (p *Pool) publishOpen() {
	p.reg.Gauge("wire.pool_open").Set(float64(p.Open()))
}
