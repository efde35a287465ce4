package engine

import (
	"fmt"
	"sync"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestLinkConcurrentQueries pins the Link's concurrency contract: the wire
// transport now carries many requests in flight on one connection, and the
// in-process Link must stay interchangeable with it — concurrent callers on
// one Link must each get their own correct answer, like concurrent round
// trips on a multiplexed connection do.
func TestLinkConcurrentQueries(t *testing.T) {
	backend := New(Config{Name: "backend", Role: Backend})
	if _, err := backend.Exec("CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40))", nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		stmt := fmt.Sprintf("INSERT INTO part (id, name) VALUES (%d, 'part%d')", i, i)
		if _, err := backend.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	backend.Analyze()
	link := NewLink(backend)

	const workers = 16
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < perWorker; q++ {
				id := int64(1 + (w*perWorker+q)%200)
				rs, err := link.Query("SELECT id, name FROM part WHERE id = @id",
					exec.Params{"id": types.NewInt(id)})
				if err != nil {
					errs <- err
					return
				}
				if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != id {
					errs <- fmt.Errorf("query for id %d got %v", id, rs.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLinkConcurrentReadsWithWrites mixes forwarded DML with reads on the
// same Link: the store's locking must keep every read consistent (a row is
// seen either before or after an update, never torn).
func TestLinkConcurrentReadsWithWrites(t *testing.T) {
	backend := New(Config{Name: "backend", Role: Backend})
	if _, err := backend.Exec("CREATE TABLE counter (id INT PRIMARY KEY, v INT)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Exec("INSERT INTO counter (id, v) VALUES (1, 0)", nil); err != nil {
		t.Fatal(err)
	}
	link := NewLink(backend)

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 20; q++ {
				rs, err := link.Query("SELECT v FROM counter WHERE id = 1", nil)
				if err != nil {
					errs <- err
					return
				}
				if v := rs.Rows[0][0].Int(); v < 0 || v > 100 {
					errs <- fmt.Errorf("torn read: v=%d", v)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 100; i++ {
			rs, err := link.Query("UPDATE counter SET v = @v WHERE id = 1",
				exec.Params{"v": types.NewInt(int64(i))})
			if err != nil {
				errs <- err
				return
			}
			if rs.RowsAffected != 1 || rs.CommitLSN == 0 {
				errs <- fmt.Errorf("update %d: %d rows at commit LSN %d", i, rs.RowsAffected, rs.CommitLSN)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
