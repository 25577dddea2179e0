package router

import "fmt"

// TieOrder orders the path search's entries of equal key, for tests that
// check that routability does not rest on one order.
type TieOrder struct {
	Name  string
	order tieOrder
}

// The tie orders: arrival (production), reverse arrival, and seeded
// shuffles (TieShuffle).
var (
	TieFIFO = TieOrder{Name: "fifo"}
	TieLIFO = TieOrder{Name: "lifo", order: tieOrder{reverse: true}}
)

// TieShuffle pops equal keys in an order shuffled by seed.
func TieShuffle(seed uint64) TieOrder {
	return TieOrder{Name: fmt.Sprint("shuffle", seed), order: tieOrder{shuffle: seed*0x9e3779b97f4a7c15 | 1}}
}

// SetTieOrder makes r's searches order entries of equal key by o.
func SetTieOrder(r *Router, o TieOrder) { r.tie = o.order }
