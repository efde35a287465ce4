package repl

import "time"

// Retention is the retention period, for tests that step past it.
const Retention = retention

// TruncateLogAt is the truncation agent's pass as if it ran at now.
func (s *Server) TruncateLogAt(now time.Time) { s.truncateLog(now) }

// LogID is the publisher's log ID, for tests that resume as a subscriber of
// that log does.
func (s *Server) LogID() uint64 { return s.publisher.Store().LogID() }
