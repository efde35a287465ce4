package repl

import (
	"time"

	"mtcache/internal/storage"
)

// Retention is the retention period, for tests that step past it.
const Retention = retention

// TruncateLogAt is the truncation agent's pass as if it ran at now.
func (s *Server) TruncateLogAt(now time.Time) { s.truncateLog(now) }

// IDAt is the ID of the publisher's position lsn, for tests that resume as
// a subscriber of that log does.
func (s *Server) IDAt(lsn storage.LSN) uint64 { return s.publisher.Store().IDAt(lsn) }
