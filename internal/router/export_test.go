package router

// TieOrder orders the path search's entries of equal key, for tests that
// check that routability does not rest on one order.
type TieOrder struct {
	Name string
	rank tieRank
}

// tieBits is how many low mantissa bits of a key a tie rank replaces:
// keys that agree to a relative 2^-32 count as equal.
const tieBits = 20

// The tie orders: the heap's own (production), push order, reverse push
// order, and seeded shuffles (TieShuffle).
var (
	TieHeap = TieOrder{Name: "heap"}
	TieFIFO = TieOrder{Name: "fifo", rank: tieRank{mask: 1<<tieBits - 1, mul: 1}}
	TieLIFO = TieOrder{Name: "lifo", rank: tieRank{mask: 1<<tieBits - 1, mul: 1, xor: 1<<tieBits - 1}}
)

// TieShuffle orders equal keys pseudo-randomly by seed: multiplying the
// push count by an odd constant and xoring a seeded word permutes the
// counts.
func TieShuffle(seed uint64) TieOrder {
	return TieOrder{Name: "shuffle", rank: tieRank{mask: 1<<tieBits - 1, mul: 0x9e3779b97f4a7c15, xor: seed * 0xbf58476d1ce4e5b9}}
}

// SetTieOrder makes r's searches order entries of equal key by o.
func SetTieOrder(r *Router, o TieOrder) { r.tie = o.rank }
