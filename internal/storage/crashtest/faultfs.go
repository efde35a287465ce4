// Package crashtest injects write faults into the durable log's filesystem
// layer to simulate crashes. A FaultFS passes every operation through to a
// real filesystem until a trigger point — the Nth data write — is reached.
// The triggering write is then corrupted in one of the ways a real crash can
// corrupt it (dropped entirely, torn short, or bit-flipped) and from that
// moment the FaultFS behaves like a dead machine: every later operation
// fails with ErrCrashed. What is left on disk is exactly what a kernel would
// have persisted at the instant of the crash, so recovery can be exercised
// against it with the real OS filesystem.
package crashtest

import (
	"errors"
	"fmt"
	"sync"

	"mtcache/internal/storage"
)

// ErrCrashed is returned by every filesystem operation after the fault has
// triggered. Commits in flight at the crash observe it and are never
// acknowledged.
var ErrCrashed = errors.New("crashtest: simulated crash")

// FaultKind selects how the triggering write is damaged.
type FaultKind int

const (
	// DropWrite loses the triggering write entirely — nothing reaches disk.
	DropWrite FaultKind = iota
	// TornWrite persists only a prefix of the triggering write, the way a
	// crash mid-way through a multi-sector write does.
	TornWrite
	// BitFlip persists the full write with one byte corrupted — a misdirected
	// or damaged sector that the frame CRC must catch.
	BitFlip
)

func (k FaultKind) String() string {
	switch k {
	case DropWrite:
		return "drop"
	case TornWrite:
		return "torn"
	case BitFlip:
		return "bitflip"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultFS wraps a storage.FS and crashes it at the Nth write.
type FaultFS struct {
	inner storage.FS
	kind  FaultKind

	mu         sync.Mutex
	writesLeft int  // writes that still pass through untouched
	frac       int  // for TornWrite: numerator/8 of the write to keep
	flipAt     int  // for BitFlip: byte offset factor within the write
	crashed    bool // every op fails once set
}

// New returns a FaultFS over inner that crashes at the writesUntilCrash-th
// Write call (1 = the very first write). jitter varies where inside the
// triggering write the damage lands, so different seeds tear frames at
// different byte offsets.
func New(inner storage.FS, kind FaultKind, writesUntilCrash, jitter int) *FaultFS {
	if writesUntilCrash < 1 {
		writesUntilCrash = 1
	}
	if jitter < 0 {
		jitter = -jitter
	}
	return &FaultFS{
		inner:      inner,
		kind:       kind,
		writesLeft: writesUntilCrash - 1,
		frac:       1 + jitter%7, // keep 1/8 .. 7/8 of a torn write
		flipAt:     jitter,
	}
}

// Crashed reports whether the fault has triggered.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

func (f *FaultFS) Create(name string) (storage.File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Open(name string) (storage.File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile counts writes across the whole FaultFS (the crash point is
// global, not per file) and damages the one that hits the trigger.
type faultFile struct {
	fs    *FaultFS
	inner storage.File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.fs.check(); err != nil {
		return 0, err
	}
	return ff.inner.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	if ff.fs.crashed {
		ff.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	if ff.fs.writesLeft > 0 {
		ff.fs.writesLeft--
		ff.fs.mu.Unlock()
		return ff.inner.Write(p)
	}
	// This write triggers the crash. Persist the damaged form, then report
	// the machine dead — the caller never learns the write "succeeded".
	kind, frac, flipAt := ff.fs.kind, ff.fs.frac, ff.fs.flipAt
	ff.fs.crashed = true
	ff.fs.mu.Unlock()

	switch kind {
	case DropWrite:
		// nothing reaches disk
	case TornWrite:
		keep := len(p) * frac / 8
		if keep > 0 {
			ff.inner.Write(p[:keep]) //nolint:errcheck
		}
	case BitFlip:
		if len(p) > 0 {
			damaged := make([]byte, len(p))
			copy(damaged, p)
			damaged[flipAt%len(p)] ^= 0x80
			ff.inner.Write(damaged) //nolint:errcheck
		}
	}
	ff.inner.Sync() //nolint:errcheck // persist the damage itself
	return 0, ErrCrashed
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.check(); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	// Close always passes through so the property test can release file
	// handles after the simulated crash.
	return ff.inner.Close()
}
