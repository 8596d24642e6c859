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

// OrderedTree header layout, in words, at the front of every node.
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
	n, parent, left := t.descend(tx, key)
	if n != rhtm.NilAddr {
		return n, false
	}
	t.link(tx, parent, left, node)
	return node, true
}

// descend walks from the root toward key. It returns the node holding key
// (nil when absent) and the last node it left, with the side the walk left
// it by: where Insert hangs a new node.
//
// The walk is the lcp-bounded search of Manber and Myers ("Suffix Arrays: A
// New Method for On-Line String Searches", SIAM J. Comput. 1993). lo and hi
// count the leading words the probe shares with the nearest node passed on
// its left and on its right. Every key in the subtree the walk enters lies
// between those two, so it shares at least min(lo, hi) words with the probe,
// and the comparator starts past them: a prefix both bounds share with the
// probe is never loaded again.
func (t *OrderedTree) descend(tx rhtm.Tx, key []byte) (n, parent rhtm.Addr, left bool) {
	lo, hi := 0, 0
	n = rhtm.Addr(tx.Load(t.root))
	for n != rhtm.NilAddr {
		c, same := t.cmp(tx, key, n, min(lo, hi))
		if c == 0 {
			return n, parent, left
		}
		parent, left = n, c < 0
		if left {
			hi, n = same, rhtm.Addr(tx.Load(n+otLeft))
		} else {
			lo, n = same, rhtm.Addr(tx.Load(n+otRight))
		}
	}
	return rhtm.NilAddr, parent, left
}

// link hangs node, red and childless, as parent's left or right child (as the
// root when parent is nil) and rebalances: Insert after its descent.
func (t *OrderedTree) link(tx rhtm.Tx, parent rhtm.Addr, left bool, node rhtm.Addr) {
	tx.Store(node+otLeft, uint64(rhtm.NilAddr))
	tx.Store(node+otRight, uint64(rhtm.NilAddr))
	tx.Store(node+otParent, uint64(parent))
	tx.Store(node+otColor, red)
	if parent == rhtm.NilAddr {
		tx.Store(t.root, uint64(node))
	} else if left {
		tx.Store(parent+otLeft, uint64(node))
	} else {
		tx.Store(parent+otRight, uint64(node))
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
	} else if tx.Load(rhtm.Addr(p)+otLeft) == u {
		tx.Store(rhtm.Addr(p)+otLeft, v)
	} else {
		tx.Store(rhtm.Addr(p)+otRight, v)
	}
}

// Scan visits the nodes whose keys fall in [start, end) in ascending key
// order. A nil start means "from the smallest key"; a nil end means "to the
// largest". Visiting stops early when fn returns false.
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

// rotateLeft performs a left rotation around x.
func (t *OrderedTree) rotateLeft(tx rhtm.Tx, x uint64) {
	xa := rhtm.Addr(x)
	y := tx.Load(xa + otRight)
	ya := rhtm.Addr(y)
	yl := tx.Load(ya + otLeft)
	tx.Store(xa+otRight, yl)
	if yl != uint64(rhtm.NilAddr) {
		tx.Store(rhtm.Addr(yl)+otParent, x)
	}
	p := tx.Load(xa + otParent)
	tx.Store(ya+otParent, p)
	t.replaceChild(tx, p, x, y)
	tx.Store(ya+otLeft, x)
	tx.Store(xa+otParent, y)
}

// rotateRight performs a right rotation around x.
func (t *OrderedTree) rotateRight(tx rhtm.Tx, x uint64) {
	xa := rhtm.Addr(x)
	y := tx.Load(xa + otLeft)
	ya := rhtm.Addr(y)
	yr := tx.Load(ya + otRight)
	tx.Store(xa+otLeft, yr)
	if yr != uint64(rhtm.NilAddr) {
		tx.Store(rhtm.Addr(yr)+otParent, x)
	}
	p := tx.Load(xa + otParent)
	tx.Store(ya+otParent, p)
	t.replaceChild(tx, p, x, y)
	tx.Store(ya+otRight, x)
	tx.Store(xa+otParent, y)
}

// insertFixup restores the red-black invariants after inserting z.
func (t *OrderedTree) insertFixup(tx rhtm.Tx, z uint64) {
	for {
		p := tx.Load(rhtm.Addr(z) + otParent)
		if p == uint64(rhtm.NilAddr) || tx.Load(rhtm.Addr(p)+otColor) == black {
			break
		}
		g := tx.Load(rhtm.Addr(p) + otParent) // grandparent exists: p is red, root is black
		ga := rhtm.Addr(g)
		if p == tx.Load(ga+otLeft) {
			u := tx.Load(ga + otRight)
			if u != uint64(rhtm.NilAddr) && tx.Load(rhtm.Addr(u)+otColor) == red {
				tx.Store(rhtm.Addr(p)+otColor, black)
				tx.Store(rhtm.Addr(u)+otColor, black)
				tx.Store(ga+otColor, red)
				z = g
				continue
			}
			if z == tx.Load(rhtm.Addr(p)+otRight) {
				z = p
				t.rotateLeft(tx, z)
				p = tx.Load(rhtm.Addr(z) + otParent)
			}
			tx.Store(rhtm.Addr(p)+otColor, black)
			tx.Store(ga+otColor, red)
			t.rotateRight(tx, g)
		} else {
			u := tx.Load(ga + otLeft)
			if u != uint64(rhtm.NilAddr) && tx.Load(rhtm.Addr(u)+otColor) == red {
				tx.Store(rhtm.Addr(p)+otColor, black)
				tx.Store(rhtm.Addr(u)+otColor, black)
				tx.Store(ga+otColor, red)
				z = g
				continue
			}
			if z == tx.Load(rhtm.Addr(p)+otLeft) {
				z = p
				t.rotateRight(tx, z)
				p = tx.Load(rhtm.Addr(z) + otParent)
			}
			tx.Store(rhtm.Addr(p)+otColor, black)
			tx.Store(ga+otColor, red)
			t.rotateLeft(tx, g)
		}
	}
	r := tx.Load(t.root)
	tx.Store(rhtm.Addr(r)+otColor, black)
}

// deleteFixup restores the invariants after unlinking a black node; x (which
// may be nil) carries an extra black, xp is its parent.
func (t *OrderedTree) deleteFixup(tx rhtm.Tx, x, xp uint64) {
	for x != tx.Load(t.root) && t.colorOf(tx, x) == black {
		if xp == uint64(rhtm.NilAddr) {
			break
		}
		xpa := rhtm.Addr(xp)
		if x == tx.Load(xpa+otLeft) {
			w := tx.Load(xpa + otRight)
			if t.colorOf(tx, w) == red {
				tx.Store(rhtm.Addr(w)+otColor, black)
				tx.Store(xpa+otColor, red)
				t.rotateLeft(tx, xp)
				w = tx.Load(xpa + otRight)
			}
			wl := tx.Load(rhtm.Addr(w) + otLeft)
			wr := tx.Load(rhtm.Addr(w) + otRight)
			if t.colorOf(tx, wl) == black && t.colorOf(tx, wr) == black {
				tx.Store(rhtm.Addr(w)+otColor, red)
				x = xp
				xp = tx.Load(rhtm.Addr(x) + otParent)
				continue
			}
			if t.colorOf(tx, wr) == black {
				if wl != uint64(rhtm.NilAddr) {
					tx.Store(rhtm.Addr(wl)+otColor, black)
				}
				tx.Store(rhtm.Addr(w)+otColor, red)
				t.rotateRight(tx, w)
				w = tx.Load(xpa + otRight)
				wr = tx.Load(rhtm.Addr(w) + otRight)
			}
			tx.Store(rhtm.Addr(w)+otColor, tx.Load(xpa+otColor))
			tx.Store(xpa+otColor, black)
			if wr != uint64(rhtm.NilAddr) {
				tx.Store(rhtm.Addr(wr)+otColor, black)
			}
			t.rotateLeft(tx, xp)
			x = tx.Load(t.root)
			break
		}
		// Mirror image.
		w := tx.Load(xpa + otLeft)
		if t.colorOf(tx, w) == red {
			tx.Store(rhtm.Addr(w)+otColor, black)
			tx.Store(xpa+otColor, red)
			t.rotateRight(tx, xp)
			w = tx.Load(xpa + otLeft)
		}
		wl := tx.Load(rhtm.Addr(w) + otLeft)
		wr := tx.Load(rhtm.Addr(w) + otRight)
		if t.colorOf(tx, wl) == black && t.colorOf(tx, wr) == black {
			tx.Store(rhtm.Addr(w)+otColor, red)
			x = xp
			xp = tx.Load(rhtm.Addr(x) + otParent)
			continue
		}
		if t.colorOf(tx, wl) == black {
			if wr != uint64(rhtm.NilAddr) {
				tx.Store(rhtm.Addr(wr)+otColor, black)
			}
			tx.Store(rhtm.Addr(w)+otColor, red)
			t.rotateLeft(tx, w)
			w = tx.Load(xpa + otLeft)
			wl = tx.Load(rhtm.Addr(w) + otLeft)
		}
		tx.Store(rhtm.Addr(w)+otColor, tx.Load(xpa+otColor))
		tx.Store(xpa+otColor, black)
		if wl != uint64(rhtm.NilAddr) {
			tx.Store(rhtm.Addr(wl)+otColor, black)
		}
		t.rotateRight(tx, xp)
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
