package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mtcache"
	"mtcache/internal/tpcw"
)

// errStopped is what a load that stops short panics with: the process dies
// there, and nothing after it in boot runs.
var errStopped = errors.New("the load stopped")

// countItems reads SELECT COUNT(*) FROM item on b (-1: no item table).
func countItems(t *testing.T, b *mtcache.Backend) int64 {
	t.Helper()
	res, err := b.DB.Exec("SELECT COUNT(*) FROM item", nil)
	if err != nil {
		return -1
	}
	return res.Rows[0][0].Int()
}

// TestLoadAndFirstCheckpointAreOneStep: a durable backend's TPC-W load that
// stops after its DDL — no row loaded, no checkpoint written — leaves nothing
// the next boot recovers, so that boot loads TPC-W again and finds every
// item; the boot after it loads nothing and finds them too.
func TestLoadAndFirstCheckpointAreOneStep(t *testing.T) {
	const items = 40
	dir := filepath.Join(t.TempDir(), "backend")
	durable := &mtcache.DurabilityOptions{Dir: dir}
	loads := 0
	load := func(b *mtcache.Backend) error {
		loads++
		return loadTPCW(b, items, 40)
	}

	var stopped *mtcache.Backend
	func() {
		defer func() {
			if r := recover(); r != errStopped {
				t.Fatalf("the first boot: %v, want it to stop in its load", r)
			}
		}()
		boot(bootOptions{durable: durable, load: func(b *mtcache.Backend) error {
			stopped = b
			if err := b.ExecScript(tpcw.SchemaDDL); err != nil {
				t.Fatal(err)
			}
			panic(errStopped)
		}})
	}()
	if err := stopped.DB.CloseStore(); err != nil { // a dead process's files are closed
		t.Fatal(err)
	}

	for boots := 1; boots <= 2; boots++ {
		b, err := boot(bootOptions{durable: durable, load: load})
		if err != nil {
			t.Fatal(err)
		}
		if got := countItems(t, b); got != items || loads != 1 {
			t.Errorf("boot %d after the stopped load: %d items after %d loads, want %d after 1", boots, got, loads, items)
		}
		if err := b.DB.CloseStore(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(stagingDir(dir)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("boot %d left the staging directory: %v", boots, err)
		}
	}
}

// TestEmptyBootsLoadNothing: -empty makes a durable backend that holds no
// TPC-W data, and it stays so: a later boot without -empty does not load into
// a directory that holds something, even an empty catalog.
func TestEmptyBootsLoadNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "backend")
	durable := &mtcache.DurabilityOptions{Dir: dir}
	for _, empty := range []bool{true, false} {
		b, err := boot(bootOptions{durable: durable, empty: empty, load: func(*mtcache.Backend) error {
			t.Fatal("a boot loaded into a directory that holds something")
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if got := countItems(t, b); got != -1 {
			t.Errorf("empty=%v: the item table holds %d rows, want no table", empty, got)
		}
		if err := b.DB.CloseStore(); err != nil {
			t.Fatal(err)
		}
	}
}
