package sql

import "testing"

// FuzzParse checks that the parser never panics: arbitrary input must come
// back as a statement or an error, even when truncated mid-token, riddled
// with unterminated strings, or nesting expressions deeply.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT cid, cname FROM customer WHERE cid <= 1000",
		"SELECT cid, cname, caddress FROM customer WHERE cid = @cid",
		"SELECT c.name, o.total FROM customer c INNER JOIN orders o ON c.ckey = o.ckey WHERE c.ckey <= @key",
		"SELECT TOP 50 i_id, COUNT(*) AS cnt, SUM(ol_qty) FROM order_line GROUP BY i_id HAVING COUNT(*) > 2 ORDER BY cnt DESC, i_id",
		"SELECT * FROM item WHERE i_subject IN ('ARTS','BIOGRAPHIES') AND i_cost BETWEEN 5 AND 10 AND i_title LIKE '%god%' AND i_pub_date IS NOT NULL AND i_id NOT IN (1,2)",
		"SELECT a -- trailing\nFROM t /* block\ncomment */ WHERE a > 1",
		"SELECT * FROM t WHERE name = 'O''Brien'",
		"SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t",
		"SELECT a FROM t WHERE a > 1 WITH FRESHNESS 30",
		"CREATE TABLE part (id INT PRIMARY KEY, name VARCHAR(40) NOT NULL, qty INT)",
		"CREATE CACHED VIEW hot AS SELECT cid, cname FROM customer WHERE cid <= 1000",
		"CREATE INDEX idx_qty ON part(qty)",
		"CREATE PROCEDURE p @x INT AS BEGIN SELECT @x END",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"UPDATE part SET qty = qty + 1 WHERE id = 7",
		"DELETE FROM part WHERE id = 7",
		"DROP TABLE part",
		"EXEC p @x = 1",
		// Malformed inputs from the parser's error tests.
		"SELECT FROM",
		"SELECT a FROM t WHERE",
		"INSERT INTO t VALUES (1,",
		"SELECT 'unterminated",
		"SELECT ((((((((((a))))))))))",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Must not panic; errors are fine.
		stmt, err := Parse(input)
		if err == nil && stmt != nil {
			// A successful parse must deparse and re-parse cleanly: Deparse
			// output is the plan-cache key and the wire format for remote
			// subexpressions, so it must round-trip.
			text := Deparse(stmt)
			if _, err := Parse(text); err != nil {
				t.Fatalf("deparse of %q does not re-parse: %q: %v", input, text, err)
			}
		}
		ParseScript(input) //nolint:errcheck — only panics matter
		ParseExpr(input)   //nolint:errcheck — only panics matter
	})
}

// TestFunctionNameFoldIsASCIIOnly is FuzzParse's first crasher, kept as a
// plain test: a function name with a byte that is not UTF-8 used to be
// upper-cased rune by rune, which rewrote the byte to U+FFFD — text the lexer
// rejects. Both texts, the written one and its deparse, must parse, to the
// same tree.
func TestFunctionNameFoldIsASCIIOnly(t *testing.T) {
	const written = "SELECT a\xe2(0), sum(b) FROM t"
	stmt, err := Parse(written)
	if err != nil {
		t.Fatal(err)
	}
	text := Deparse(stmt)
	if want := "SELECT A\xe2(0), SUM(b) FROM t"; text != want {
		t.Fatalf("deparse %q, want %q", text, want)
	}
	again, err := Parse(text)
	if err != nil {
		t.Fatalf("deparse %q does not re-parse: %v", text, err)
	}
	if Deparse(again) != text {
		t.Fatalf("second deparse %q differs from the first %q", Deparse(again), text)
	}
	// The normalizer folds the same way, so its key names the same function.
	var n Normalizer
	if key, _, ok := n.Normalize(written); !ok || string(key) != "SELECT A\xe2 ( @__p0 ) , SUM ( b ) FROM t" {
		t.Fatalf("Normalize(%q) = %q, %v", written, key, ok)
	}
}
