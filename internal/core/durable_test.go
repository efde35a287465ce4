package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mtcache/internal/catalog"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

func openDurable(t *testing.T, dir string) *BackendServer {
	t.Helper()
	b, err := NewBackendDurable("backend", storage.DurabilityOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustExec(t *testing.T, b *BackendServer, text string) storage.LSN {
	t.Helper()
	lsn, err := execLSN(b, text)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// execLSN runs text and returns its commit LSN: mustExec for a goroutine
// other than the test's.
func execLSN(b *BackendServer, text string) (storage.LSN, error) {
	res, err := b.Exec(text, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", text, err)
	}
	defer res.Release()
	return res.CommitLSN, nil
}

// dump is what a restart must keep of a backend: the catalog as a cache
// imports it (the shadow script and the procedure texts) and every stored
// relation's rows, sorted.
func dump(t *testing.T, b *BackendServer) string {
	t.Helper()
	snap := catalog.ExportSnapshot(b.DB.Catalog())
	var out strings.Builder
	out.WriteString(snap.Script)
	for _, p := range snap.Procs {
		fmt.Fprintf(&out, "%s: %s\n", p.Name, p.Text)
	}
	for _, tbl := range b.DB.Catalog().Tables() {
		if tbl.IsView && !tbl.Materialized {
			continue
		}
		fmt.Fprintf(&out, "%s: %s\n", tbl.Name, rowsOf(t, b, "SELECT * FROM "+tbl.Name))
	}
	return out.String()
}

func rowsOf(t *testing.T, b *BackendServer, query string) string {
	t.Helper()
	res, err := b.Exec(query, nil)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	defer res.Release()
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	slices.Sort(rows)
	return strings.Join(rows, " ")
}

// TestDurableBackendRecoversItsOwnSchema: a table created at run time keeps
// its acknowledged rows across a restart with no script and no recovery
// call, and so does DDL logged after the last checkpoint — a second table,
// indexes, a materialized view, plain views (one named to sort before the
// view it reads) and a procedure. Two restarts, the first
// replaying that DDL from the log and the second loading it from a
// checkpoint's catalog, give back the same catalog and the same rows, and
// the recovered view is maintained and the procedure runs.
func TestDurableBackendRecoversItsOwnSchema(t *testing.T) {
	dir := t.TempDir()
	b := openDurable(t, dir)
	mustExec(t, b, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	if lsn := mustExec(t, b, "INSERT INTO t (id, v) VALUES (1, 10)"); lsn == 0 {
		t.Fatal("the insert reported no commit")
	}
	if _, err := b.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"CREATE TABLE u (id INT PRIMARY KEY, t_id INT, note VARCHAR)",
		"INSERT INTO u (id, t_id, note) VALUES (1, 1, 'one')",
		"INSERT INTO t (id, v) VALUES (2, 20)",
		"INSERT INTO t (id, v) VALUES (3, 30)",
		"CREATE INDEX u_t ON u (t_id)",
		"CREATE MATERIALIZED VIEW big_t AS SELECT id, v FROM t WHERE v > 15",
		"CREATE INDEX big_v ON big_t (v)",
		"UPDATE t SET v = 5 WHERE id = 3",
		"CREATE VIEW t_u AS SELECT t.id, u.note FROM t, u WHERE t.id = u.t_id",
		"CREATE VIEW a_big AS SELECT id FROM big_t", // sorts before the view it reads
		"CREATE PROCEDURE bump @id INT AS BEGIN UPDATE t SET v = v + 1 WHERE id = @id; END",
		"EXEC bump @id = 2",
	} {
		mustExec(t, b, text)
	}
	want := dump(t, b)
	for _, part := range []string{"CREATE TABLE u", "u_t", "big_t", "big_v", "t_u", "a_big", "bump", "big_t: [2 21]"} {
		if !strings.Contains(want, part) {
			t.Fatalf("the backend before the restart lacks %q:\n%s", part, want)
		}
	}
	if err := b.DB.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// The first restart replays the DDL past the checkpoint from the log.
	b = openDurable(t, dir)
	if got := dump(t, b); got != want {
		t.Fatalf("after a restart from the log:\n%s\nwant:\n%s", got, want)
	}
	if st := b.DB.Store().Recovered(); st.CheckpointLSN == 0 || st.ReplayedTxns < 10 {
		t.Fatalf("recovery %+v: want the checkpoint and the ten statements after it", st)
	}
	// The second restarts from a checkpoint whose catalog holds all of it.
	ck, err := b.DB.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b.DB.CloseStore() //nolint:errcheck
	b = openDurable(t, dir)
	defer b.DB.CloseStore() //nolint:errcheck
	if got := dump(t, b); got != want {
		t.Fatalf("after a restart from a checkpoint:\n%s\nwant:\n%s", got, want)
	}
	if st := b.DB.Store().Recovered(); st.CheckpointLSN != ck || st.ReplayedTxns != 0 {
		t.Fatalf("recovery %+v: want checkpoint %d and nothing to replay", st, ck)
	}
	mustExec(t, b, "EXEC bump @id = 3")
	mustExec(t, b, "UPDATE t SET v = 50 WHERE id = 3")
	if got := rowsOf(t, b, "SELECT id, v FROM big_t"); got != "[2 21] [3 50]" {
		t.Fatalf("the recovered view holds %s; its maintenance did not come back", got)
	}
}

// TestCheckpointCatalogIsAsOfItsLSN: tables created, and written, while
// checkpoints run leave every image with exactly the tables whose CREATE
// committed below the image's LSN, each with exactly its rows committed
// below it.
func TestCheckpointCatalogIsAsOfItsLSN(t *testing.T) {
	dir := t.TempDir()
	b := openDurable(t, dir)
	defer b.DB.CloseStore() //nolint:errcheck
	const tables = 30
	created := make([]storage.LSN, tables)
	inserted := make([][]storage.LSN, tables)
	written := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < tables && err == nil; i++ {
			created[i], err = execLSN(b, fmt.Sprintf("CREATE TABLE c%d (id INT PRIMARY KEY)", i))
			for j := 0; j < 3 && err == nil; j++ {
				var lsn storage.LSN
				lsn, err = execLSN(b, fmt.Sprintf("INSERT INTO c%d (id) VALUES (%d)", i, j))
				inserted[i] = append(inserted[i], lsn)
			}
		}
		written <- err
	}()
	var images []*storage.Image
	for done := false; !done; {
		select {
		case err := <-written:
			if err != nil {
				t.Fatal(err)
			}
			done = true // one more checkpoint, after the last write
		default:
		}
		ck, err := b.DB.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		img, err := storage.ReadImage(storage.OSFS(), filepath.Join(dir, fmt.Sprintf("ckpt-%020d.ckpt", ck)))
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	if len(images) < 3 {
		t.Fatalf("only %d checkpoints ran", len(images))
	}
	for _, img := range images {
		for i, lsn := range created {
			name := fmt.Sprintf("c%d", i)
			inScript := strings.Contains(img.Script, fmt.Sprintf("CREATE TABLE %s (", name))
			if inScript != (lsn < img.LSN) {
				t.Fatalf("image at %d: %s (created at %d) in its catalog: %v", img.LSN, name, lsn, inScript)
			}
			want := 0
			for _, l := range inserted[i] {
				if l < img.LSN {
					want++
				}
			}
			got := 0
			for _, set := range img.Sets {
				if strings.EqualFold(set.Name, name) {
					got = len(set.Rows)
				}
			}
			if got != want {
				t.Fatalf("image at %d holds %d rows of %s, want the %d committed below it", img.LSN, got, name, want)
			}
		}
	}
}

// TestReplayedViewPopulationIsItsPrefix: a materialized view created while
// its base table takes inserts and updates holds what its definition gives,
// and a restart that replays its CREATE from the log populates it from the
// same prefix of the base table: the same rows.
func TestReplayedViewPopulationIsItsPrefix(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		b := openDurable(t, dir)
		mustExec(t, b, "CREATE TABLE base (id INT PRIMARY KEY, v INT)")
		for i := 0; i < 20; i++ {
			mustExec(t, b, fmt.Sprintf("INSERT INTO base (id, v) VALUES (%d, %d)", i, i))
		}
		if _, err := b.DB.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		stop, written := make(chan struct{}), make(chan error, 1)
		go func() {
			var err error
			for i := 20; err == nil; i++ {
				select {
				case <-stop:
					written <- nil
					return
				default:
				}
				if _, err = execLSN(b, fmt.Sprintf("INSERT INTO base (id, v) VALUES (%d, %d)", i, i)); err == nil {
					_, err = execLSN(b, fmt.Sprintf("UPDATE base SET v = v + 7 WHERE id = %d", i%20))
				}
			}
			written <- err
		}()
		mustExec(t, b, "CREATE MATERIALIZED VIEW odd AS SELECT id, v FROM base WHERE v > 10")
		close(stop)
		if err := <-written; err != nil {
			t.Fatal(err)
		}
		want := rowsOf(t, b, "SELECT id, v FROM odd")
		if def := rowsOf(t, b, "SELECT id, v FROM base WHERE v > 10 AND id >= 0"); def != want {
			t.Fatalf("round %d: the view holds %s, its definition gives %s", round, want, def)
		}
		b.DB.CloseStore() //nolint:errcheck
		b = openDurable(t, dir)
		if got := rowsOf(t, b, "SELECT id, v FROM odd"); got != want {
			t.Fatalf("round %d: the replayed view holds %s, want %s", round, got, want)
		}
		b.DB.CloseStore() //nolint:errcheck
	}
}

// TestEmptyDirectoryIsAnEmptyBackend: opening an empty directory, and the
// directory of a backend that only ever logged DDL, recovers what is there
// and no more.
func TestEmptyDirectoryIsAnEmptyBackend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	b := openDurable(t, dir)
	if n := len(b.DB.Catalog().Tables()); n != 0 {
		t.Fatalf("an empty directory recovered %d tables", n)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
	mustExec(t, b, "CREATE TABLE only (id INT PRIMARY KEY)")
	b.DB.CloseStore() //nolint:errcheck
	b = openDurable(t, dir)
	defer b.DB.CloseStore() //nolint:errcheck
	if tbl := b.DB.Catalog().Table("only"); tbl == nil || len(tbl.Columns) != 1 || tbl.Columns[0].Type != types.KindInt {
		t.Fatalf("recovered %v, want table only (id INT)", tbl)
	}
}

// TestDropOfAReadRelationIsRefused: a table or view that a plain or
// materialized view reads cannot be dropped, so a checkpoint's shadow script
// never names a relation it does not create and the directory opens again.
// Once its readers are gone it drops, and stays dropped across a restart.
func TestDropOfAReadRelationIsRefused(t *testing.T) {
	dir := t.TempDir()
	b := openDurable(t, dir)
	for _, text := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v INT)",
		"INSERT INTO t (id, v) VALUES (1, 10)",
		"CREATE VIEW v AS SELECT id FROM t",
		"CREATE MATERIALIZED VIEW mv AS SELECT id, v FROM t WHERE v > 5",
		"CREATE VIEW over_mv AS SELECT id FROM mv",
	} {
		mustExec(t, b, text)
	}
	for _, text := range []string{"DROP TABLE t", "DROP VIEW mv"} {
		if _, err := b.Exec(text, nil); err == nil {
			t.Fatalf("%s succeeded while a view reads it", text)
		}
	}
	want := dump(t, b)
	if _, err := b.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.DB.CloseStore() //nolint:errcheck
	b = openDurable(t, dir)
	if got := dump(t, b); got != want {
		t.Fatalf("after a restart:\n%s\nwant:\n%s", got, want)
	}
	for _, text := range []string{"DROP VIEW v", "DROP VIEW over_mv", "DROP VIEW mv", "DROP TABLE t"} {
		mustExec(t, b, text)
	}
	if _, err := b.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.DB.CloseStore() //nolint:errcheck
	b = openDurable(t, dir)
	defer b.DB.CloseStore() //nolint:errcheck
	if n := len(b.DB.Catalog().Tables()); n != 0 {
		t.Fatalf("%d relations came back after every one was dropped", n)
	}
}

// TestPullPassesOverDDL: a backend's DDL record reaches no cached view, and
// the pull that reads past it reports the cache applied through it, as for
// any commit no view sees.
func TestPullPassesOverDDL(t *testing.T) {
	b := NewBackend("backend")
	mustExec(t, b, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, b, "INSERT INTO t (id, v) VALUES (1, 10)")
	c, err := NewCache("cache", b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCachedView("CREATE CACHED VIEW cv AS SELECT id, v FROM t"); err != nil {
		t.Fatal(err)
	}
	ddl := mustExec(t, b, "CREATE TABLE other (id INT PRIMARY KEY)")
	if ddl == 0 {
		t.Fatal("the CREATE TABLE reported no commit")
	}
	if n, err := c.Pull(); err != nil || n != 0 || c.AppliedLSN() != ddl {
		t.Fatalf("pull applied %d, err %v, through %d; want nothing applied, through the DDL record %d", n, err, c.AppliedLSN(), ddl)
	}
	write := mustExec(t, b, "INSERT INTO t (id, v) VALUES (2, 20)")
	if n, err := c.Pull(); err != nil || n != 1 || c.AppliedLSN() != write {
		t.Fatalf("pull applied %d, err %v, through %d; want the insert at %d", n, err, c.AppliedLSN(), write)
	}
}
