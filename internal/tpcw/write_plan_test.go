package tpcw

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// TestSharedWritePlanUnderConcurrency: four clients call updateCartLine and
// adminUpdate at once on keys of their own, and send literal INSERT, UPDATE
// and DELETE texts of one shape each, so every execution of each body
// statement or text shape runs the one write plan the backend keeps for it.
// Each call writes exactly its own row, and every row reads back as its
// caller last wrote it.
// Then a cart's DELETE, clearCart's and doBuyConfirm's, seeks the cart's
// lines by the key's first column: it examines those lines and no other
// cart's.
func TestSharedWritePlanUnderConcurrency(t *testing.T) {
	b := core.NewBackend("backend")
	if err := Load(b, Config{Items: 200, Customers: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := b.DB.Analyze(); err != nil {
		t.Fatal(err)
	}
	const clients, calls = 4, 50
	cart := func(g int) int64 { return 900000 + int64(g) }
	item := func(g int) int64 { return 10 + int64(g) }
	now := types.NewTime(time.Date(2024, 2, 29, 0, 0, 0, 0, time.UTC))
	for g := 0; g < clients; g++ {
		_, err := b.DB.CallProcedure("createCartWithLine", exec.Params{
			"sc_id": types.NewInt(cart(g)), "t": now, "i_id": types.NewInt(item(g)), "qty": types.NewInt(1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= calls; i++ {
				v := int64(g*1000 + i)
				for _, c := range []struct {
					proc   string
					params exec.Params
				}{
					{"updateCartLine", exec.Params{"sc_id": types.NewInt(cart(g)), "i_id": types.NewInt(item(g)), "qty": types.NewInt(v)}},
					{"adminUpdate", exec.Params{"i_id": types.NewInt(item(g)), "cost": types.NewFloat(float64(v) / 4), "related": types.NewInt(v)}},
				} {
					res, err := b.DB.CallProcedure(c.proc, c.params)
					if err != nil || res.RowsAffected != 1 {
						t.Errorf("client %d: %s %v: %+v, %v", g, c.proc, c.params, res, err)
						return
					}
				}
				// A line of the client's cart, inserted and deleted again.
				line := item(g) + 100 + int64(i)
				for _, text := range []string{
					fmt.Sprintf("UPDATE item SET i_stock = %d WHERE i_id = %d", v, item(g)),
					fmt.Sprintf("INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (%d, %d, %d)", cart(g), line, v),
					fmt.Sprintf("DELETE FROM shopping_cart_line WHERE scl_sc_id = %d AND scl_i_id = %d", cart(g), line),
				} {
					res, err := b.DB.Exec(text, nil)
					if err != nil || res.RowsAffected != 1 {
						t.Errorf("client %d: %s: %+v, %v", g, text, res, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < clients; g++ {
		v := int64(g*1000 + calls)
		for _, c := range []struct{ query, want string }{
			{fmt.Sprintf("SELECT scl_qty FROM shopping_cart_line WHERE scl_sc_id = %d AND scl_i_id = %d", cart(g), item(g)), fmt.Sprintf("[[%d]]", v)},
			{fmt.Sprintf("SELECT i_cost, i_related1, i_stock FROM item WHERE i_id = %d", item(g)), fmt.Sprint([]types.Row{{types.NewFloat(float64(v) / 4), types.NewInt(v), types.NewInt(v)}})},
			{fmt.Sprintf("SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = %d", cart(g)), "[[1]]"},
		} {
			res, err := b.DB.Exec(c.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows); got != c.want {
				t.Errorf("client %d: %s gave %s, want %s", g, c.query, got, c.want)
			}
		}
	}

	for g := 0; g < clients; g++ {
		_, err := b.DB.CallProcedure("addCartLine", exec.Params{
			"sc_id": types.NewInt(cart(g)), "i_id": types.NewInt(item(g) + 100), "qty": types.NewInt(1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		proc               string
		params             exec.Params
		affected, examined int64
	}{
		{"clearCart", exec.Params{"sc_id": types.NewInt(cart(0))}, 2, 2},
		// One order, one order line, one item (sought by its key), one card
		// transaction and the cart's two lines.
		{"doBuyConfirm", exec.Params{"o_id": types.NewInt(900001), "c_id": types.NewInt(3), "t": now,
			"sub": types.NewFloat(10), "total": types.NewFloat(10.8), "ship": types.NewString("AIR"),
			"i_id": types.NewInt(6), "qty": types.NewInt(1), "disc": types.NewFloat(0.05), "sc_id": types.NewInt(cart(1))}, 6, 3},
	} {
		res, err := b.DB.CallProcedure(c.proc, c.params)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != c.affected || res.Counters.RowsScanned != c.examined {
			t.Errorf("%s: %d rows affected and %d examined, want %d and %d",
				c.proc, res.RowsAffected, res.Counters.RowsScanned, c.affected, c.examined)
		}
	}
}
