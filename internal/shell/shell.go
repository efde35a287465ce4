// Package shell implements the interactive SQL shell shared by
// mtcache-server and backend-server: plain SQL statements plus backslash
// commands, including the workload-introspection commands built on the
// sys.* virtual tables:
//
//	\top [n]     hottest query shapes by total time (sys.query_stats)
//	\slow [n]    captured slow-query plans with EXPLAIN ANALYZE trees
//	             (sys.query_plans)
//	\events [n]  recent structured events (sys.events)
//	\imcache [n] admitted intermediate results by hit count
//	             (sys.intermediate_results)
//	\explain <q> the optimizer's plan for a query
//	\trace       the last statement's span tree, with the backend's half
//	             of each remote round trip under it
//	\metrics     the metrics registry
//	\pull        one replication pull round (caches only)
//	\checkpoint  force a checkpoint (when the server is durable)
//	\quit, \q    exit
package shell

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/trace"
)

// Config wires a shell to one server. Exec is required; nil optional hooks
// disable their commands with a clear message instead of crashing.
type Config struct {
	Name       string // prompt-less banner name, e.g. "cache1"
	Exec       func(sqlText string) (*engine.Result, error)
	Explain    func(sqlText string) (string, error)
	Trace      func() (*trace.Record, *trace.WireSpan) // the server's last statement and its stitched tree (engine.Database.LastTrace)
	Pull       func() (int, error)                     // caches: one pull round
	Checkpoint func() error                            // durable servers: force a checkpoint
	In         io.Reader
	Out        io.Writer
}

// Run reads commands from cfg.In until EOF or \quit.
func Run(cfg Config) {
	out := cfg.Out
	fmt.Fprintln(out, `type SQL statements; \top [n], \slow [n], \events [n], \imcache [n], \explain <q>, \trace, \pull, \checkpoint, \metrics, \quit`)
	sc := bufio.NewScanner(cfg.In)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\quit` || line == `\q`:
			return
		case line == `\pull`:
			if cfg.Pull == nil {
				fmt.Fprintln(out, "\\pull is not available on this server")
				break
			}
			n, err := cfg.Pull()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintf(out, "applied %d transactions\n", n)
			}
		case line == `\checkpoint`:
			if cfg.Checkpoint == nil {
				fmt.Fprintln(out, "\\checkpoint is not available on this server")
				break
			}
			if err := cfg.Checkpoint(); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprintln(out, "checkpoint written")
			}
		case line == `\metrics`:
			if s := metrics.Default.String(); s == "" {
				fmt.Fprintln(out, "(no metrics yet)")
			} else {
				fmt.Fprint(out, s)
			}
		case line == `\trace`:
			if cfg.Trace == nil {
				fmt.Fprintln(out, "\\trace is not available on this server")
				break
			}
			fmt.Fprint(out, trace.RenderTree(cfg.Trace()))
		case strings.HasPrefix(line, `\explain `):
			if cfg.Explain == nil {
				fmt.Fprintln(out, "\\explain is not available on this server")
				break
			}
			text, err := cfg.Explain(strings.TrimPrefix(line, `\explain `))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				fmt.Fprint(out, text)
			}
		case line == `\top` || strings.HasPrefix(line, `\top `):
			n := argN(line, `\top`, 10)
			runSQL(cfg, out, fmt.Sprintf(`SELECT TOP %d shape, executions, total_ms, mean_ms, p95_ms,
				local_execs, remote_execs, max_staleness_seconds
				FROM sys.query_stats ORDER BY total_ms DESC`, n))
		case line == `\events` || strings.HasPrefix(line, `\events `):
			n := argN(line, `\events`, 20)
			runSQL(cfg, out, fmt.Sprintf(
				`SELECT TOP %d seq, ts, kind, detail FROM sys.events ORDER BY seq DESC`, n))
		case line == `\imcache` || strings.HasPrefix(line, `\imcache `):
			n := argN(line, `\imcache`, 10)
			runSQL(cfg, out, fmt.Sprintf(`SELECT TOP %d shape, literals, rows, bytes,
				hits, saved_ns, lineage, stale
				FROM sys.intermediate_results ORDER BY hits DESC`, n))
		case line == `\slow` || strings.HasPrefix(line, `\slow `):
			n := argN(line, `\slow`, 5)
			printSlow(cfg, out, n)
		default:
			res, err := cfg.Exec(line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			PrintResult(out, res)
		}
		fmt.Fprint(out, "> ")
	}
}

// argN parses the optional integer argument of "\cmd [n]".
func argN(line, cmd string, def int) int {
	rest := strings.TrimSpace(strings.TrimPrefix(line, cmd))
	if rest == "" {
		return def
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return def
	}
	return n
}

// runSQL executes a query and prints the result table.
func runSQL(cfg Config, out io.Writer, sqlText string) {
	res, err := cfg.Exec(sqlText)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	PrintResult(out, res)
}

// printSlow lists the slowest captured shapes and their EXPLAIN ANALYZE
// trees from sys.query_plans.
func printSlow(cfg Config, out io.Writer, n int) {
	res, err := cfg.Exec(fmt.Sprintf(`SELECT TOP %d shape, variant, executions, last_ms, analyzed
		FROM sys.query_plans WHERE analyzed <> '' ORDER BY last_ms DESC`, n))
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if len(res.Rows) == 0 {
		fmt.Fprintln(out, "(no slow-query captures; adjust the threshold with -slow-query)")
		return
	}
	for _, row := range res.Rows {
		fmt.Fprintf(out, "-- %s [%s] execs=%d last=%.2fms\n",
			row[0].Str(), row[1].Str(), row[2].Int(), row[3].Float())
		analyzed := row[4].Str()
		fmt.Fprint(out, analyzed)
		if !strings.HasSuffix(analyzed, "\n") {
			fmt.Fprintln(out)
		}
	}
}

// PrintResult renders one statement result as a column-separated table,
// truncated at 25 rows.
func PrintResult(out io.Writer, res *engine.Result) {
	if len(res.Cols) == 0 {
		fmt.Fprintf(out, "ok (%d rows affected)\n", res.RowsAffected)
		return
	}
	var names []string
	for _, c := range res.Cols {
		names = append(names, c.Name)
	}
	fmt.Fprintln(out, strings.Join(names, " | "))
	limit := len(res.Rows)
	if limit > 25 {
		limit = 25
	}
	for _, row := range res.Rows[:limit] {
		var vals []string
		for _, v := range row {
			vals = append(vals, v.Display())
		}
		fmt.Fprintln(out, strings.Join(vals, " | "))
	}
	if len(res.Rows) > limit {
		fmt.Fprintf(out, "... %d more rows\n", len(res.Rows)-limit)
	}
	fmt.Fprintf(out, "(%d rows; remote queries: %d)\n", len(res.Rows), res.Counters.RemoteQueries)
}
