package containers

import (
	"fmt"

	"rhtm"
)

// NodeCompare orders an external probe key against the key a node carries,
// both read as sequences of words compared lexicographically. It returns c
// <0, 0 or >0 as key sorts before, equal to, or after the node's key, and
// same, how many leading words the two keys share (any smaller count is safe;
// it only costs loads). The caller passes from, a count of leading words it
// knows the two share, so the comparator may start there. All tree
// operations are probe-driven, so the tree never compares two nodes directly
// and everything past a node's header stays opaque to it (the store keeps a
// record's key words there).
type NodeCompare func(tx rhtm.Tx, key []byte, node rhtm.Addr, from int) (c, same int)

// OrderedTree header layout, in words, at the front of every node. A side is
// the offset of its child link: the link on side s (otLeft or otRight) is the
// word n+s, its mirror n+1-s, so each CLRS ch. 13 case is written once.
const (
	otLeft   = 0
	otRight  = 1
	otParent = 2
	otColor  = 3
	// OTHeaderWords is the space the tree owns at the front of a node; the
	// words after it are the caller's.
	OTHeaderWords = 4
)

// OrderedTree is a transactional intrusive red-black tree ordered by a
// caller-supplied comparator over variable-length keys held in simulated
// memory: the comparator loads and compares them under the caller's
// transaction. A node is a block the caller allocates and frees; the tree
// links it through its first OTHeaderWords words and never moves or copies
// it, so a node's address identifies its entry from Insert until its own
// Delete. It is the index layer of the store package, and RBTree (the
// paper's uint64-keyed benchmark tree) links, rebalances and unlinks through
// it after a descent of its own.
type OrderedTree struct {
	sys  *rhtm.System
	cmp  NodeCompare
	root rhtm.Addr // one-word cell holding the root node address
}

// NewOrderedTree allocates an empty tree on s. The root cell gets a cache
// line of its own: every operation loads it, so a neighbour's write must not
// abort them all.
func NewOrderedTree(s *rhtm.System, cmp NodeCompare) *OrderedTree {
	return &OrderedTree{sys: s, cmp: cmp, root: s.MustAllocLines(1)}
}

// Lookup returns the node stored under key.
func (t *OrderedTree) Lookup(tx rhtm.Tx, key []byte) (rhtm.Addr, bool) {
	n, _, _ := t.descend(tx, key)
	return n, n != rhtm.NilAddr
}

// Insert links node under key; the caller has already written the key the
// comparator reads into it. If the key is already present nothing is linked
// and the existing node is returned with inserted=false.
func (t *OrderedTree) Insert(tx rhtm.Tx, key []byte, node rhtm.Addr) (existing rhtm.Addr, inserted bool) {
	n, parent, side := t.descend(tx, key)
	if n != rhtm.NilAddr {
		return n, false
	}
	t.link(tx, parent, side, node)
	return node, true
}

// descend walks from the root toward key. It returns the node holding key
// (nil when absent) and the last node it left, with the side the walk left
// it by: where Insert hangs a new node.
//
// The walk is the lcp-bounded search of Manber and Myers ("Suffix Arrays: A
// New Method for On-Line String Searches", SIAM J. Comput. 1993).
// shared[s] counts the leading words the probe shares with the last node
// the walk left by side s, the nearest node passed on the probe's other
// side. Every key in the subtree the walk enters lies between those two
// nodes, so it shares at least the smaller count with the probe, and the
// comparator starts past it: a prefix both bounds share with the probe is
// never loaded again.
func (t *OrderedTree) descend(tx rhtm.Tx, key []byte) (n, parent, side rhtm.Addr) {
	var shared [2]int
	n = rhtm.Addr(tx.Load(t.root))
	for n != rhtm.NilAddr {
		c, same := t.cmp(tx, key, n, min(shared[otLeft], shared[otRight]))
		if c == 0 {
			return n, parent, side
		}
		parent, side = n, toward(c < 0)
		shared[side], n = same, rhtm.Addr(tx.Load(n+side))
	}
	return rhtm.NilAddr, parent, side
}

// toward is the side a walk leaves a node by: left when the probe sorts
// before the node's key.
func toward(before bool) rhtm.Addr {
	if before {
		return otLeft
	}
	return otRight
}

// link hangs node, red and childless, as parent's child on side s (as the
// root when parent is nil) and rebalances: Insert after its descent.
func (t *OrderedTree) link(tx rhtm.Tx, parent, s, node rhtm.Addr) {
	tx.Store(node+otLeft, uint64(rhtm.NilAddr))
	tx.Store(node+otRight, uint64(rhtm.NilAddr))
	tx.Store(node+otParent, uint64(parent))
	tx.Store(node+otColor, red)
	if parent == rhtm.NilAddr {
		tx.Store(t.root, uint64(node))
	} else {
		tx.Store(parent+s, uint64(node))
	}
	t.insertFixup(tx, uint64(node))
}

// Unlink removes a node from the tree: za must be what a Lookup or Insert
// under tx returned. Removal is by pointer transplant (CLRS RB-TRANSPLANT):
// when the node has two children its successor takes over its position,
// links and color, so no other entry changes address.
func (t *OrderedTree) Unlink(tx rhtm.Tx, za rhtm.Addr) {
	z := uint64(za)
	zl, zr := tx.Load(za+otLeft), tx.Load(za+otRight)

	// x is the child that moves into the vacated position (it may be nil, so
	// its parent xp is tracked explicitly); removed is the color that left
	// that position.
	var x, xp uint64
	removed := tx.Load(za + otColor)
	switch {
	case zl == uint64(rhtm.NilAddr):
		x = zr
		xp = t.transplant(tx, z, x)
	case zr == uint64(rhtm.NilAddr):
		x = zl
		xp = t.transplant(tx, z, x)
	default:
		// Successor: minimum of the right subtree. It has no left child.
		y := zr
		for l := tx.Load(rhtm.Addr(y) + otLeft); l != uint64(rhtm.NilAddr); l = tx.Load(rhtm.Addr(y) + otLeft) {
			y = l
		}
		ya := rhtm.Addr(y)
		x, xp = tx.Load(ya+otRight), y
		if y != zr {
			xp = t.transplant(tx, y, x)
			tx.Store(ya+otRight, zr)
			tx.Store(rhtm.Addr(zr)+otParent, y)
		}
		t.transplant(tx, z, y)
		tx.Store(ya+otLeft, zl)
		tx.Store(rhtm.Addr(zl)+otParent, y)
		zc := removed
		removed = tx.Load(ya + otColor)
		tx.Store(ya+otColor, zc)
	}
	if removed == black {
		t.deleteFixup(tx, x, xp)
	}
}

// transplant puts v (which may be nil) where u hangs from its parent, and
// returns that parent.
func (t *OrderedTree) transplant(tx rhtm.Tx, u, v uint64) uint64 {
	p := tx.Load(rhtm.Addr(u) + otParent)
	t.replaceChild(tx, p, u, v)
	if v != uint64(rhtm.NilAddr) {
		tx.Store(rhtm.Addr(v)+otParent, p)
	}
	return p
}

// replaceChild points p's link to u at v instead; a nil p is the root cell.
func (t *OrderedTree) replaceChild(tx rhtm.Tx, p, u, v uint64) {
	if p == uint64(rhtm.NilAddr) {
		tx.Store(t.root, v)
		return
	}
	tx.Store(rhtm.Addr(p)+sideOf(tx, p, u), v)
}

// sideOf returns the side of p that u hangs on, telling by p's left link.
func sideOf(tx rhtm.Tx, p, u uint64) rhtm.Addr {
	return toward(tx.Load(rhtm.Addr(p)+otLeft) == u)
}

// Scan visits the nodes whose keys fall in [start, end) in ascending key
// order. A nil start means "from the smallest key"; a nil end means "to the
// largest". Visiting stops early when fn returns false.
//
// A scan under tx is its own phantom protection (Eswaran et al., "The
// Notions of Consistency and Predicate Locks in a Database System", CACM
// 1976). It loads every link that an insert into the part of the range it
// covered, or a delete from it, must write: the link into each node it
// visits, both links of each node it yields, and the nil link where its walk
// runs out at either end, which is where a key inserted into an empty range
// hangs. The engine checks those loads like any other, so a concurrent
// change to the range's membership conflicts with tx and its transaction
// runs again. That is why kv.Local records no scanned ranges; the dbtest
// battery's DBPhantom section pins it on every backend.
func (t *OrderedTree) Scan(tx rhtm.Tx, start, end []byte, fn func(node rhtm.Addr) bool) {
	t.scan(tx, rhtm.Addr(tx.Load(t.root)), start, end, fn)
}

// scan is the recursive range traversal; it returns false to stop.
func (t *OrderedTree) scan(tx rhtm.Tx, n rhtm.Addr, start, end []byte, fn func(node rhtm.Addr) bool) bool {
	if n == rhtm.NilAddr {
		return true
	}
	aboveStart := start == nil || t.compare(tx, start, n) <= 0
	belowEnd := end == nil || t.compare(tx, end, n) > 0
	// The left subtree holds smaller keys: it can only intersect the range
	// if this node is not already below start — and if this node is below
	// end, so is all of it, and the bound is dropped. Symmetrically for the
	// right.
	if aboveStart {
		leftEnd := end
		if belowEnd {
			leftEnd = nil
		}
		if !t.scan(tx, rhtm.Addr(tx.Load(n+otLeft)), start, leftEnd, fn) {
			return false
		}
	}
	if aboveStart && belowEnd {
		if !fn(n) {
			return false
		}
	}
	if belowEnd {
		if aboveStart {
			start = nil
		}
		return t.scan(tx, rhtm.Addr(tx.Load(n+otRight)), start, end, fn)
	}
	return true
}

// compare orders key against n's key from its first word.
func (t *OrderedTree) compare(tx rhtm.Tx, key []byte, n rhtm.Addr) int {
	c, _ := t.cmp(tx, key, n, 0)
	return c
}

// Len counts the entries by traversal (O(n); tests and setup only — the
// store maintains its own O(1) count word).
func (t *OrderedTree) Len(tx rhtm.Tx) int {
	count := 0
	t.Scan(tx, nil, nil, func(rhtm.Addr) bool { count++; return true })
	return count
}

// --- rotations and fixups (CLRS ch. 13) ---

// rotate turns x down to side s: x's child on the other side takes x's
// place, and that child's subtree on side s moves across to x. rotate(x,
// otLeft) is CLRS's LEFT-ROTATE.
func (t *OrderedTree) rotate(tx rhtm.Tx, x uint64, s rhtm.Addr) {
	xa := rhtm.Addr(x)
	y := tx.Load(xa + 1 - s)
	ya := rhtm.Addr(y)
	ys := tx.Load(ya + s)
	tx.Store(xa+1-s, ys)
	if ys != uint64(rhtm.NilAddr) {
		tx.Store(rhtm.Addr(ys)+otParent, x)
	}
	p := tx.Load(xa + otParent)
	tx.Store(ya+otParent, p)
	t.replaceChild(tx, p, x, y)
	tx.Store(ya+s, x)
	tx.Store(xa+otParent, y)
}

// insertFixup restores the red-black invariants after inserting z; s is the
// side of grandparent g that z's parent p hangs on, u is g's other child.
func (t *OrderedTree) insertFixup(tx rhtm.Tx, z uint64) {
	for {
		p := tx.Load(rhtm.Addr(z) + otParent)
		if p == uint64(rhtm.NilAddr) || tx.Load(rhtm.Addr(p)+otColor) == black {
			break
		}
		g := tx.Load(rhtm.Addr(p) + otParent) // grandparent exists: p is red, root is black
		ga := rhtm.Addr(g)
		s := sideOf(tx, g, p)
		u := tx.Load(ga + 1 - s)
		if u != uint64(rhtm.NilAddr) && tx.Load(rhtm.Addr(u)+otColor) == red {
			tx.Store(rhtm.Addr(p)+otColor, black)
			tx.Store(rhtm.Addr(u)+otColor, black)
			tx.Store(ga+otColor, red)
			z = g
			continue
		}
		if z == tx.Load(rhtm.Addr(p)+1-s) {
			z = p
			t.rotate(tx, z, s)
			p = tx.Load(rhtm.Addr(z) + otParent)
		}
		tx.Store(rhtm.Addr(p)+otColor, black)
		tx.Store(ga+otColor, red)
		t.rotate(tx, g, 1-s)
	}
	r := tx.Load(t.root)
	tx.Store(rhtm.Addr(r)+otColor, black)
}

// deleteFixup restores the invariants after unlinking a black node; x (which
// may be nil) carries an extra black, xp is its parent. s is x's side of xp,
// and its sibling w hangs on the other. w's children are loaded and tested
// left before right for either s, not near before far: the simulated access
// counts follow that order (TestOrderedTreeStructureTrace pins it).
func (t *OrderedTree) deleteFixup(tx rhtm.Tx, x, xp uint64) {
	for x != tx.Load(t.root) && t.colorOf(tx, x) == black {
		if xp == uint64(rhtm.NilAddr) {
			break
		}
		xpa := rhtm.Addr(xp)
		s := sideOf(tx, xp, x)
		w := tx.Load(xpa + 1 - s)
		if t.colorOf(tx, w) == red {
			tx.Store(rhtm.Addr(w)+otColor, black)
			tx.Store(xpa+otColor, red)
			t.rotate(tx, xp, s)
			w = tx.Load(xpa + 1 - s)
		}
		wc := [2]uint64{tx.Load(rhtm.Addr(w) + otLeft), tx.Load(rhtm.Addr(w) + otRight)}
		if t.colorOf(tx, wc[otLeft]) == black && t.colorOf(tx, wc[otRight]) == black {
			tx.Store(rhtm.Addr(w)+otColor, red)
			x = xp
			xp = tx.Load(rhtm.Addr(x) + otParent)
			continue
		}
		near, far := wc[s], wc[1-s]
		if t.colorOf(tx, far) == black {
			if near != uint64(rhtm.NilAddr) {
				tx.Store(rhtm.Addr(near)+otColor, black)
			}
			tx.Store(rhtm.Addr(w)+otColor, red)
			t.rotate(tx, w, 1-s)
			w = tx.Load(xpa + 1 - s)
			far = tx.Load(rhtm.Addr(w) + 1 - s)
		}
		tx.Store(rhtm.Addr(w)+otColor, tx.Load(xpa+otColor))
		tx.Store(xpa+otColor, black)
		if far != uint64(rhtm.NilAddr) {
			tx.Store(rhtm.Addr(far)+otColor, black)
		}
		t.rotate(tx, xp, s)
		x = tx.Load(t.root)
		break
	}
	if x != uint64(rhtm.NilAddr) {
		tx.Store(rhtm.Addr(x)+otColor, black)
	}
}

// colorOf treats nil as black, per the red-black convention.
func (t *OrderedTree) colorOf(tx rhtm.Tx, n uint64) uint64 {
	if n == uint64(rhtm.NilAddr) {
		return black
	}
	return tx.Load(rhtm.Addr(n) + otColor)
}

// --- validation (setup/verification contexts only) ---

// Validate checks the red-black structural invariants (root color, red-red,
// black height, parent pointers, links inside the heap) over the whole tree
// using raw memory access. Key ordering is the comparator's business and is
// checked by Scan output in the callers' tests. Only call while no
// transactions are in flight.
func (t *OrderedTree) Validate() error {
	tx := SetupTx(t.sys)
	root := tx.Load(t.root)
	if _, err := t.validateNode(tx, root, uint64(rhtm.NilAddr)); err != nil {
		return err
	}
	if t.colorOf(tx, root) != black {
		return fmt.Errorf("orderedtree: root is red")
	}
	return nil
}

// validateNode checks the subtree at n, which hangs from p, and returns its
// black height. A link is followed only once it is known to be in the heap.
func (t *OrderedTree) validateNode(tx rhtm.Tx, n, p uint64) (int, error) {
	if n == uint64(rhtm.NilAddr) {
		return 1, nil
	}
	if n >= uint64(t.sys.Internal().Mem.Words()) {
		return 0, fmt.Errorf("orderedtree: node %d links to %d, outside the heap", p, n)
	}
	a := rhtm.Addr(n)
	if tx.Load(a+otParent) != p {
		return 0, fmt.Errorf("orderedtree: node %d has a wrong parent pointer", n)
	}
	c := tx.Load(a + otColor)
	if c == red && t.colorOf(tx, p) == red {
		return 0, fmt.Errorf("orderedtree: red node %d has a red child", p)
	}
	lh, err := t.validateNode(tx, tx.Load(a+otLeft), n)
	if err != nil {
		return 0, err
	}
	rh, err := t.validateNode(tx, tx.Load(a+otRight), n)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("orderedtree: black-height mismatch at node %d: %d vs %d", n, lh, rh)
	}
	if c == black {
		lh++
	}
	return lh, nil
}
