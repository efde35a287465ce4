package storage

import (
	"sync/atomic"
	"testing"

	"mtcache/internal/types"
)

// BenchmarkMVCCReadsUnderApply measures snapshot point-read latency while a
// background writer continuously applies multi-row update batches — the
// replication-apply workload that blocked readers under the seed's
// store-wide 2PL. Reported ns/op is the reader-side cost with the apply
// loop running.
func BenchmarkMVCCReadsUnderApply(b *testing.B) {
	s := newCustStore(b)
	const rows = 2048
	wtx := s.Begin(true)
	for i := 0; i < rows; i++ {
		if _, err := wtx.Insert("customer", types.Row{types.NewInt(int64(i)), types.NewString("seed")}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := wtx.Commit(); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	applyDone := make(chan struct{})
	go func() {
		defer close(applyDone)
		gen := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			tx := s.Begin(true)
			td := view(tx, "customer")
			for i := 0; i < rows; i += 8 {
				rid := td.PKLookup(types.Row{types.NewInt(int64(i))})
				if rid < 0 {
					continue
				}
				if err := tx.Update("customer", rid, types.Row{types.NewInt(int64(i)), types.NewString("gen")}); err != nil {
					tx.Abort()
					return
				}
			}
			if _, err := tx.Commit(); err != nil {
				return
			}
		}
	}()

	var id atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := id.Add(1) % rows
			rtx := s.Begin(false)
			td := view(rtx, "customer")
			rid := td.PKLookup(types.Row{types.NewInt(k)})
			if rid >= 0 {
				_ = td.Get(rid)
			}
			rtx.Abort()
		}
	})
	b.StopTimer()
	close(stop)
	<-applyDone
}
