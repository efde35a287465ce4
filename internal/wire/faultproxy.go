package wire

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultConfig describes the failures a FaultProxy injects, rolled
// independently per forwarded chunk.
type FaultConfig struct {
	DropRate     float64       // probability a chunk is silently dropped (conn then closed)
	ResetRate    float64       // probability the connection is reset mid-stream
	TruncateRate float64       // probability a chunk is cut short before forwarding
	Delay        time.Duration // added latency per chunk
}

// FaultProxyStats counts injected faults.
type FaultProxyStats struct {
	Conns     int64
	Drops     int64
	Resets    int64
	Truncates int64
}

// FaultProxy is a TCP proxy that forwards traffic to a target address while
// injecting faults: dropped chunks, connection resets, truncated frames and
// added latency. Tests (chaos_test.go) put it between a cache's wire client and
// the backend server to exercise the retry/re-dial/degradation paths.
//
// Partition simulates a full network partition: every active connection is
// severed and new ones are refused until Heal is called.
type FaultProxy struct {
	ln     net.Listener
	target string

	mu          sync.Mutex
	cfg         FaultConfig
	rng         *rand.Rand
	partitioned bool
	closed      bool
	conns       map[net.Conn]bool
	stats       FaultProxyStats
	wg          sync.WaitGroup
}

// NewFaultProxy listens on addr (use "127.0.0.1:0") and forwards to target.
// seed makes the fault rolls reproducible.
func NewFaultProxy(addr, target string, seed int64) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{
		ln:     ln,
		target: target,
		rng:    rand.New(rand.NewSource(seed)),
		conns:  map[net.Conn]bool{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; dial this instead of the target.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// SetFaults swaps the active fault configuration.
func (p *FaultProxy) SetFaults(cfg FaultConfig) {
	p.mu.Lock()
	p.cfg = cfg
	p.mu.Unlock()
}

// Partition severs every connection and refuses new ones until Heal.
func (p *FaultProxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Heal ends a partition: new connections are accepted again.
func (p *FaultProxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (p *FaultProxy) Stats() FaultProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close shuts the proxy down and waits for its goroutines.
func (p *FaultProxy) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *FaultProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.partitioned {
		return false
	}
	p.conns[c] = true
	return true
}

func (p *FaultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *FaultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(client) {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.stats.Conns++
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer p.untrack(client)
			p.serve(client)
		}()
	}
}

func (p *FaultProxy) serve(client net.Conn) {
	defer client.Close()
	backend, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		return
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()
	done := make(chan struct{}, 2)
	go func() { p.pump(backend, client); done <- struct{}{} }()
	go func() { p.pump(client, backend); done <- struct{}{} }()
	// Either direction failing (or a fault closing a conn) ends the pair:
	// closing both sides unblocks the other pump.
	<-done
	client.Close()
	backend.Close()
	<-done
}

// roll draws the per-chunk fault decision under the proxy lock.
type faultRoll struct {
	drop, reset bool
	truncate    bool
	delay       time.Duration
}

func (p *FaultProxy) roll() faultRoll {
	p.mu.Lock()
	defer p.mu.Unlock()
	var r faultRoll
	cfg := p.cfg
	r.delay = cfg.Delay
	switch {
	case cfg.DropRate > 0 && p.rng.Float64() < cfg.DropRate:
		r.drop = true
		p.stats.Drops++
	case cfg.ResetRate > 0 && p.rng.Float64() < cfg.ResetRate:
		r.reset = true
		p.stats.Resets++
	case cfg.TruncateRate > 0 && p.rng.Float64() < cfg.TruncateRate:
		r.truncate = true
		p.stats.Truncates++
	}
	return r
}

// pump copies src→dst chunk by chunk, rolling a fault per chunk.
func (p *FaultProxy) pump(dst, src net.Conn) {
	buf := make([]byte, 16*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r := p.roll()
			if r.delay > 0 {
				time.Sleep(r.delay)
			}
			switch {
			case r.drop:
				// Swallow the chunk. The peers now disagree about where the
				// next frame starts, so sever the pair to surface the fault
				// promptly.
				return
			case r.reset:
				if tc, ok := dst.(*net.TCPConn); ok {
					tc.SetLinger(0) // RST instead of FIN
				}
				return
			case r.truncate:
				if n > 1 {
					n = n / 2
				}
				dst.Write(buf[:n]) //nolint:errcheck — pair torn down next
				return
			default:
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				return
			}
			return
		}
	}
}
