package tpcw

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/exec"
	"mtcache/internal/types"
)

// Interaction enumerates the fourteen TPC-W web interactions.
type Interaction uint8

const (
	Home Interaction = iota
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm
	numInteractions
)

var interactionNames = [numInteractions]string{
	"Home", "NewProducts", "BestSellers", "ProductDetail", "SearchRequest",
	"SearchResults", "ShoppingCart", "CustomerRegistration", "BuyRequest",
	"BuyConfirm", "OrderInquiry", "OrderDisplay", "AdminRequest", "AdminConfirm",
}

// String returns the interaction's benchmark name.
func (i Interaction) String() string {
	if int(i) < len(interactionNames) {
		return interactionNames[i]
	}
	return fmt.Sprintf("Interaction(%d)", uint8(i))
}

// MarshalText and UnmarshalText encode an interaction by name, so cost
// models keyed by interaction (sim.Costs) serialize readably.
func (i Interaction) MarshalText() ([]byte, error) { return []byte(i.String()), nil }

func (i *Interaction) UnmarshalText(text []byte) error {
	for n, name := range interactionNames {
		if name == string(text) {
			*i = Interaction(n)
			return nil
		}
	}
	return fmt.Errorf("tpcw: unknown interaction %q", text)
}

// IsBrowse classifies interactions into the paper's Browse / Order activity
// classes (§6.1: Browse = home, search, detail pages; Order = cart,
// registration, buying, order status, admin).
func (i Interaction) IsBrowse() bool {
	switch i {
	case Home, NewProducts, BestSellers, ProductDetail, SearchRequest, SearchResults:
		return true
	}
	return false
}

// Interactions lists all fourteen in benchmark order.
func Interactions() []Interaction {
	out := make([]Interaction, numInteractions)
	for i := range out {
		out[i] = Interaction(i)
	}
	return out
}

// idGen hands out unique ids for orders, carts and customers created at run
// time, shared by all emulated browsers of one benchmark run.
type idGen struct {
	order int64
	cart  int64
	cust  int64
	addr  int64
}

// Session is one emulated browser's state.
type Session struct {
	CID    int // logged-in customer
	CartID int // current shopping cart, 0 if none
	rng    *rand.Rand
	cfg    Config
	ids    *idGen
	now    func() time.Time
}

// App is the web-application layer: TPC-W interaction logic issuing stored
// procedure calls through a Conn. One App per web server; Sessions are the
// emulated browsers it serves. The App cannot tell whether its Conn points
// at the backend or at an MTCache server.
type App struct {
	conn *core.Conn
	cfg  Config
	ids  *idGen
	now  func() time.Time
}

// NewApp builds the application layer over a connection. Id pools for
// orders, carts and customers start beyond whatever the database already
// holds, so multiple App instances over time do not collide.
func NewApp(conn *core.Conn, cfg Config) *App {
	a := &App{conn: conn, cfg: cfg, ids: &idGen{
		order: int64(cfg.numOrders()),
		cart:  0,
		cust:  int64(cfg.Customers),
		addr:  int64(cfg.Customers * 2),
	}, now: time.Now}
	seed := func(dst *int64, query string) {
		res, err := conn.Exec(query, nil)
		if err == nil && len(res.Rows) == 1 && !res.Rows[0][0].IsNull() {
			if v := res.Rows[0][0].Int(); v > *dst {
				*dst = v
			}
		}
	}
	seed(&a.ids.order, "SELECT MAX(o_id) FROM orders")
	seed(&a.ids.cart, "SELECT MAX(sc_id) FROM shopping_cart")
	seed(&a.ids.cust, "SELECT MAX(c_id) FROM customer")
	return a
}

// ShareIDsWith makes two Apps (e.g. several web servers against one
// backend) allocate ids from the same pool.
func (a *App) ShareIDsWith(other *App) { a.ids = other.ids }

// NewSession starts an emulated browser with its own deterministic RNG.
func (a *App) NewSession(seed int64) *Session {
	r := rand.New(rand.NewSource(seed))
	return &Session{
		CID: r.Intn(a.cfg.Customers) + 1,
		rng: r,
		cfg: a.cfg,
		ids: a.ids,
		now: a.now,
	}
}

func (s *Session) randItem() int64     { return int64(s.rng.Intn(s.cfg.Items) + 1) }
func (s *Session) randSubject() string { return Subjects[s.rng.Intn(len(Subjects))] }

// Run executes one interaction for the session, returning the number of
// stored-procedure calls made.
func (a *App) Run(s *Session, in Interaction) (int, error) {
	switch in {
	case Home:
		return a.home(s)
	case NewProducts:
		return a.newProducts(s)
	case BestSellers:
		return a.bestSellers(s)
	case ProductDetail:
		return a.productDetail(s)
	case SearchRequest:
		return a.searchRequest(s)
	case SearchResults:
		return a.searchResults(s)
	case ShoppingCart:
		return a.shoppingCart(s)
	case CustomerRegistration:
		return a.customerRegistration(s)
	case BuyRequest:
		return a.buyRequest(s)
	case BuyConfirm:
		return a.buyConfirm(s)
	case OrderInquiry:
		return a.orderInquiry(s)
	case OrderDisplay:
		return a.orderDisplay(s)
	case AdminRequest:
		return a.adminRequest(s)
	case AdminConfirm:
		return a.adminConfirm(s)
	}
	return 0, fmt.Errorf("tpcw: unknown interaction %d", in)
}

func (a *App) call(proc string, params exec.Params) error {
	_, err := a.conn.Call(proc, params)
	if err != nil {
		return fmt.Errorf("tpcw: %s: %w", proc, err)
	}
	return nil
}

func (a *App) home(s *Session) (int, error) {
	if err := a.call("getName", exec.Params{"c_id": types.NewInt(int64(s.CID))}); err != nil {
		return 0, err
	}
	if err := a.call("getRelated", exec.Params{"i_id": types.NewInt(s.randItem())}); err != nil {
		return 1, err
	}
	return 2, nil
}

func (a *App) newProducts(s *Session) (int, error) {
	err := a.call("getNewProducts", exec.Params{"subject": types.NewString(s.randSubject())})
	return 1, err
}

func (a *App) bestSellers(s *Session) (int, error) {
	err := a.call("getBestSellers", exec.Params{"subject": types.NewString(s.randSubject())})
	return 1, err
}

func (a *App) productDetail(s *Session) (int, error) {
	err := a.call("getBook", exec.Params{"i_id": types.NewInt(s.randItem())})
	return 1, err
}

func (a *App) searchRequest(*Session) (int, error) {
	// Page generation only; the search form needs no database work.
	return 0, nil
}

func (a *App) searchResults(s *Session) (int, error) {
	switch s.rng.Intn(3) {
	case 0:
		return 1, a.call("doSubjectSearch", exec.Params{"subject": types.NewString(s.randSubject())})
	case 1:
		word := titleWords[s.rng.Intn(len(titleWords))]
		return 1, a.call("doTitleSearch", exec.Params{"title": types.NewString("%" + word + "%")})
	default:
		name := lastNames[s.rng.Intn(len(lastNames))]
		return 1, a.call("doAuthorSearch", exec.Params{"author": types.NewString(name + "%")})
	}
}

func (a *App) shoppingCart(s *Session) (int, error) {
	calls := 0
	now := types.NewTime(a.now())
	if s.CartID == 0 {
		s.CartID = int(atomic.AddInt64(&s.ids.cart, 1))
		if err := a.call("createCartWithLine", exec.Params{
			"sc_id": types.NewInt(int64(s.CartID)), "t": now,
			"i_id": types.NewInt(s.randItem()), "qty": types.NewInt(int64(s.rng.Intn(3) + 1)),
		}); err != nil {
			return calls, err
		}
		calls++
	} else {
		if err := a.call("refreshCart", exec.Params{"sc_id": types.NewInt(int64(s.CartID)), "t": now}); err != nil {
			return calls, err
		}
		calls++
	}
	err := a.call("getCart", exec.Params{"sc_id": types.NewInt(int64(s.CartID))})
	return calls + 1, err
}

func (a *App) customerRegistration(s *Session) (int, error) {
	// 20% new customers, 80% returning (spec's returning/new split).
	if s.rng.Intn(5) == 0 {
		cid := atomic.AddInt64(&s.ids.cust, 1)
		addr := atomic.AddInt64(&s.ids.addr, 1) % int64(a.cfg.Customers*2)
		if addr == 0 {
			addr = 1
		}
		err := a.call("createNewCustomer", exec.Params{
			"c_id": types.NewInt(cid), "uname": types.NewString(Uname(int(cid))),
			"passwd": types.NewString("pw"), "fname": types.NewString("NEW"),
			"lname": types.NewString("CUSTOMER"), "addr_id": types.NewInt(addr),
			"email": types.NewString("new@example.com"), "t": types.NewTime(a.now()),
		})
		if err != nil {
			return 0, err
		}
		s.CID = int(cid)
		return 1, nil
	}
	err := a.call("getCustomer", exec.Params{"uname": types.NewString(Uname(s.CID))})
	return 1, err
}

func (a *App) buyRequest(s *Session) (int, error) {
	if err := a.call("getCustomer", exec.Params{"uname": types.NewString(Uname(s.CID))}); err != nil {
		return 0, err
	}
	if s.CartID == 0 {
		if n, err := a.shoppingCart(s); err != nil {
			return 1 + n, err
		}
		return 4, nil
	}
	err := a.call("getCart", exec.Params{"sc_id": types.NewInt(int64(s.CartID))})
	return 2, err
}

func (a *App) buyConfirm(s *Session) (int, error) {
	calls := 0
	if s.CartID == 0 {
		n, err := a.shoppingCart(s)
		calls += n
		if err != nil {
			return calls, err
		}
	}
	now := types.NewTime(a.now())
	if err := a.call("getCDiscount", exec.Params{"c_id": types.NewInt(int64(s.CID))}); err != nil {
		return calls, err
	}
	calls++
	oid := atomic.AddInt64(&s.ids.order, 1)
	total := float64(s.rng.Intn(20000)) / 100.0
	if err := a.call("doBuyConfirm", exec.Params{
		"o_id": types.NewInt(oid), "c_id": types.NewInt(int64(s.CID)), "t": now,
		"sub": types.NewFloat(total), "total": types.NewFloat(total * 1.08),
		"ship": types.NewString(ships[s.rng.Intn(len(ships))]),
		"i_id": types.NewInt(s.randItem()), "qty": types.NewInt(int64(s.rng.Intn(3) + 1)),
		"disc": types.NewFloat(0.05), "sc_id": types.NewInt(int64(s.CartID)),
	}); err != nil {
		return calls, err
	}
	calls++
	// Orders occasionally have extra lines beyond the one doBuyConfirm adds.
	for l := 2; l <= s.rng.Intn(3)+1; l++ {
		if err := a.call("addOrderLine", exec.Params{
			"o_id": types.NewInt(oid), "ol_id": types.NewInt(int64(l)),
			"i_id": types.NewInt(s.randItem()), "qty": types.NewInt(int64(s.rng.Intn(3) + 1)),
			"disc": types.NewFloat(0.05),
		}); err != nil {
			return calls, err
		}
		calls++
	}
	s.CartID = 0
	return calls, nil
}

func (a *App) orderInquiry(s *Session) (int, error) {
	err := a.call("getPassword", exec.Params{"uname": types.NewString(Uname(s.CID))})
	return 1, err
}

func (a *App) orderDisplay(s *Session) (int, error) {
	res, err := a.conn.Call("getMostRecentOrder", exec.Params{"uname": types.NewString(Uname(s.CID))})
	if err != nil {
		return 0, fmt.Errorf("tpcw: getMostRecentOrder: %w", err)
	}
	if len(res.Rows) == 0 {
		return 1, nil // customer has no orders yet
	}
	err = a.call("getOrderLines", exec.Params{"o_id": res.Rows[0][0]})
	return 2, err
}

func (a *App) adminRequest(s *Session) (int, error) {
	err := a.call("getBook", exec.Params{"i_id": types.NewInt(s.randItem())})
	return 1, err
}

func (a *App) adminConfirm(s *Session) (int, error) {
	if err := a.call("adminUpdate", exec.Params{
		"i_id": types.NewInt(s.randItem()), "cost": types.NewFloat(float64(s.rng.Intn(9900)+100) / 100.0),
		"related": types.NewInt(s.randItem()),
	}); err != nil {
		return 0, err
	}
	err := a.call("getBook", exec.Params{"i_id": types.NewInt(s.randItem())})
	return 2, err
}
