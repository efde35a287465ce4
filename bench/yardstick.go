package main

import "time"

// yardstick samples the host's speed while a round runs: every 50 ms one
// goroutine executes a fixed integer loop (about 0.4 ms on the sandbox when it
// is quiet, so under 1 % of one core) and records how long it took. The
// sandbox shares its cores with other tenants; the samples let a reader tell a
// disturbed round from a slow program.
type yardstick struct {
	samples []float64 // µs
	stop    chan struct{}
	done    chan struct{}
}

var yardstickSink uint64

func spinOnce() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 200_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	yardstickSink += x
	return time.Since(start)
}

func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-y.stop:
				return
			case <-t.C:
				y.samples = append(y.samples, float64(spinOnce())/1e3)
			}
		}
	}()
	return y
}

// finish stops the sampler and returns its samples in ascending order.
func (y *yardstick) finish() []float64 {
	close(y.stop)
	<-y.done
	return sortedCopy(y.samples)
}
