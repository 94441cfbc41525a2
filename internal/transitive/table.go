package transitive

import (
	"slices"
	"sync"

	"repro/internal/num"
)

// Table is a sparse matrix held as rows in owned arenas: per row an int32
// start and an int32 length into one int32 column arena and one float64
// value arena, each row its entries in ascending column order. A table
// keeps width values beside each entry, one block of the row's length per
// plane, so row i's values are the width·length floats from width·start
// (core keeps a column's K and A values so, at one offset). A row is read
// as windows into the arenas built on the caller's stack (Row): a table
// keeps 8 bytes of offsets a row and no slice header of its own.
//
// A build (Layout, TableOf) writes every row in one counted pass, in row
// order, into arenas allocated once at exact size. A write (Set,
// SetEntry) that keeps a row's length, or shortens it, rewrites the row in
// place, the entries it gives up dead. A longer row grows in place where
// it ends the arena and the arena has room, or into the dead entries that
// follow it; any other moves to the arena's tail, which appends with
// amortized capacity, with headroom, and leaves its old slot dead. So a
// row whose pattern flips back and forth moves once and then stays in
// place. Once its dead entries outnumber its live ones a table repacks in
// row order, so churn cannot grow the arenas without bound. A read is
// valid until the next write.
type Table struct {
	spans []span
	cols  []int32
	vals  []float64
	width int
	dead  int // arena entries no row holds
}

// span locates one row in a Table's arenas.
type span struct{ start, n int32 }

// Layout returns a table of n rows, row i lens(i) entries long, laid out
// back to back in row order with width values per entry. Its entries are
// zero, for the caller to write through Row.
func Layout(n, width int, lens func(i int) int) Table {
	t := Table{spans: make([]span, n), width: width}
	size := 0
	for i := range t.spans {
		l := lens(i)
		t.spans[i] = span{start: int32(size), n: int32(l)}
		size += l
	}
	t.cols, t.vals = make([]int32, size), make([]float64, width*size)
	return t
}

// TableOf lays out n rows with width values per entry, row i as row(i)
// gives its columns and values, in one counted pass.
func TableOf(n, width int, row func(i int) ([]int32, []float64)) Table {
	t := Layout(n, width, func(i int) int {
		cols, _ := row(i)
		return len(cols)
	})
	for i := 0; i < n; i++ {
		cols, vals := t.Row(i)
		c, v := row(i)
		copy(cols, c)
		copy(vals, v)
	}
	return t
}

// Clone returns a copy of t packed in row order.
func (t *Table) Clone() Table { return TableOf(t.N(), t.width, t.Row) }

// N returns the number of rows.
func (t *Table) N() int { return len(t.spans) }

// Len returns the number of entries row i stores.
func (t *Table) Len(i int) int { return int(t.spans[i].n) }

// Row returns row i's columns and its values, width blocks of the row's
// length, as windows into the arenas capped at the row — nil for an empty
// row. A writer may write values through them in place.
func (t *Table) Row(i int) ([]int32, []float64) {
	s := t.spans[i]
	if s.n == 0 {
		return nil, nil
	}
	lo, hi := int(s.start), int(s.start)+int(s.n)
	return t.cols[lo:hi:hi], t.vals[t.width*lo : t.width*hi : t.width*hi]
}

// Put writes entry x of row i, which has room for it — its column and its
// values, one per plane — as a build fills a table Layout laid out.
func (t *Table) Put(i, x int, col int32, vals ...float64) {
	s := t.spans[i]
	lo := int(s.start)
	t.cols[lo+x] = col
	for p, v := range vals {
		t.vals[t.width*lo+p*int(s.n)+x] = v
	}
}

// Live returns the entries the rows hold; Dead those they gave up.
func (t *Table) Live() int { return len(t.cols) - t.dead }
func (t *Table) Dead() int { return t.dead }

// Bytes returns the memory the table holds: its offsets and its arenas'
// capacity, dead slots included.
func (t *Table) Bytes() int { return 8*cap(t.spans) + 4*cap(t.cols) + 8*cap(t.vals) }

// Grow appends k empty rows, with amortized capacity.
func (t *Table) Grow(k int) { t.spans = append(t.spans, make([]span, k)...) }

// Set writes row i as cols, ascending, and vals, width blocks of len(cols)
// values; neither may alias the table.
func (t *Table) Set(i int, cols []int32, vals []float64) {
	c, v := t.resize(i, len(cols))
	copy(c, cols)
	copy(v, vals)
	t.settle()
}

// SetEntry sets entry (i, j) of a table of one value per entry to v. A
// value whose column stays stored is written over in place; exact zeros
// are unstored, so an entry that appears or vanishes rewrites the row as
// Set would.
func (t *Table) SetEntry(i, j int, v float64) {
	cols, vals := t.Row(i)
	k, present := slices.BinarySearch(cols, int32(j))
	switch {
	case present && !num.IsZero(v):
		vals[k] = v
		return
	case !present && num.IsZero(v):
		return
	case present: // remove: shift the rest down and shorten in place
		copy(cols[k:], cols[k+1:])
		copy(vals[k:], vals[k+1:])
		t.resize(i, len(cols)-1)
	default: // insert at k, after the entries the row kept
		nc, nv := t.resize(i, len(cols)+1)
		copy(nc[k+1:], nc[k:len(cols)])
		copy(nv[k+1:], nv[k:len(cols)])
		nc[k], nv[k] = int32(j), v
	}
	t.settle()
}

// resize makes row i n entries long and returns its windows. A row that
// shortens keeps its slot, the entries it gives up dead. A row that grows
// takes the dead entries that follow it, or the arena's room where it ends
// the arena, or else moves to the tail with headroom of n/8+1 dead entries
// after it, so the next growth is in place too. Dead entries hold column
// -1, which no row stores; that is how a row finds them after it. A row of
// one value per entry keeps its first entries, up to the shorter length.
func (t *Table) resize(i, n int) ([]int32, []float64) {
	s := &t.spans[i]
	lo, old, w := int(s.start), int(s.n), t.width
	end := lo + old
	switch {
	case n <= old:
		t.free(lo+n, end)
	case lo+n <= len(t.cols) && !slices.ContainsFunc(t.cols[end:lo+n], func(c int32) bool { return c >= 0 }):
		t.dead -= n - old
	case end == len(t.cols) && lo+n <= cap(t.cols) && w*(lo+n) <= cap(t.vals):
		t.cols, t.vals = t.cols[:lo+n], t.vals[:w*(lo+n)]
	default:
		to, room := len(t.cols), n+n/8+1
		t.cols, t.vals = append(t.cols, make([]int32, room)...), append(t.vals, make([]float64, w*room)...)
		copy(t.cols[to:], t.cols[lo:end])
		copy(t.vals[w*to:], t.vals[w*lo:w*end])
		t.free(lo, end)
		t.free(to+n, to+room)
		lo = to
	}
	if n == 0 {
		lo = 0
	}
	*s = span{start: int32(lo), n: int32(n)}
	return t.cols[lo : lo+n : lo+n], t.vals[w*lo : w*(lo+n) : w*(lo+n)]
}

// free marks the arena entries [lo, hi) dead.
func (t *Table) free(lo, hi int) {
	for x := lo; x < hi; x++ {
		t.cols[x] = -1
	}
	t.dead += hi - lo
}

// settle repacks the table in row order once its dead entries outnumber
// its live ones: the live rows are gathered in a pooled buffer and copied
// back to the arenas' front, which keep their capacity, so a repack
// allocates nothing once the buffer has grown.
func (t *Table) settle() {
	if t.dead <= t.Live() {
		return
	}
	b := repackPool.Get().(*repackBuf)
	cols, vals := b.cols[:0], b.vals[:0]
	for i := range t.spans {
		c, v := t.Row(i)
		if len(c) > 0 {
			t.spans[i].start = int32(len(cols))
		}
		cols, vals = append(cols, c...), append(vals, v...)
	}
	t.cols, t.vals, t.dead = t.cols[:copy(t.cols, cols)], t.vals[:copy(t.vals, vals)], 0
	b.cols, b.vals = cols, vals
	repackPool.Put(b)
}

// repackBuf is settle's gathering buffer.
type repackBuf struct {
	cols []int32
	vals []float64
}

var repackPool = sync.Pool{New: func() any { return new(repackBuf) }}
