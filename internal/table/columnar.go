package table

// Columnar batch extraction: the vectorized executor's data layout.
// Each 256-row fragment (FragmentRows, shared with the zone maps) is
// materialized once into typed column arrays — int64/float64/string/
// bool slices plus a null bitmap — so the hot kernels in
// internal/logical/exec_vec.go run over machine types instead of
// interface-shaped Values. A column whose cells do not all match its
// extracted class keeps the original Values (Boxed); kernels fall back
// to per-Value evaluation there, so extraction never changes results.
//
// A catalog fragment's string and date columns also carry a per-batch
// dictionary (ColVec.Codes and Dict): one uint8 code per row into the
// batch's distinct values in first-seen order. It is built only where
// the catalog seals a fragment (fragmentsFrom), never by BatchRange on
// its own and never for Boxed columns, and it is not persisted — a
// snapshot holds rows, and a load derives the codes again. The
// group-by accumulator and the distinct kernel use it, through
// CodeMemo, to look a key up once per value per batch instead of once
// per row.

// Bitmap is a fixed-size bit set used for per-row null flags. A nil
// Bitmap reads as all-clear.
type Bitmap []uint64

// NewBitmap returns a cleared bitmap covering n bits.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set sets bit i. The bitmap must be non-nil and cover i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i; nil bitmaps report false.
func (b Bitmap) Get(i int) bool {
	return b != nil && b[i>>6]&(1<<(uint(i)&63)) != 0
}

// ColVec is one column of a Batch in typed array form. Exactly one of
// the typed slices (or Boxed) is populated, chosen by the column's
// schema type; Nulls marks NULL rows (typed slots of NULL rows hold
// zero values). When any non-null cell's dynamic kind disagrees with
// the schema type — possible for operator-built intermediates that
// bypass Append validation — the whole column is kept as Boxed Values
// and kernels use the exact row-interpreter semantics on it.
//
// Codes and Dict are the per-batch dictionary of an unboxed string or
// date column of a catalog fragment: Strs[i] == Dict[Codes[i]] for every
// non-NULL row i, Dict holds each distinct non-NULL value once in
// first-seen order (string headers shared with Strs, no bytes copied),
// and a NULL row's code is 0 — read Nulls first. A batch holds at most
// FragmentRows = 256 rows, so a uint8 code always fits. Both are nil on
// every other column and on batches BatchRange extracts on the fly.
type ColVec struct {
	Name   string
	Type   ColType
	Ints   []int64   // TypeInt
	Floats []float64 // TypeFloat
	Strs   []string  // TypeString and TypeDate (dates compare lexically)
	Bools  []bool    // TypeBool
	Nulls  Bitmap    // nil when the extracted rows hold no NULLs
	Boxed  []Value   // mixed-kind fallback; nil on the typed paths
	Codes  []uint8   // per-row index into Dict; catalog fragments only
	Dict   []string  // distinct non-NULL Strs in first-seen order
}

// ValueAt reconstructs the original cell at row i. For unboxed columns
// the result is bit-identical to the source Value (same kind, same
// payload); Boxed columns return the stored Value itself.
func (c *ColVec) ValueAt(i int) Value {
	if c.Boxed != nil {
		return c.Boxed[i]
	}
	if c.Nulls.Get(i) {
		return Null(c.Type)
	}
	switch c.Type {
	case TypeInt:
		return I(c.Ints[i])
	case TypeFloat:
		return F(c.Floats[i])
	case TypeBool:
		return B(c.Bools[i])
	case TypeDate:
		return D(c.Strs[i])
	default:
		return S(c.Strs[i])
	}
}

// AppendKey appends the key of the cell at row i (the package
// AppendKey of ValueAt(i)) to dst without boxing the cell.
func (c *ColVec) AppendKey(dst []byte, i int) []byte {
	switch {
	case c.Boxed != nil:
		return AppendKey(dst, c.Boxed[i])
	case c.Nulls.Get(i):
		return appendNullKey(dst)
	case c.Ints != nil:
		return appendNumKey(dst, float64(c.Ints[i]))
	case c.Floats != nil:
		return appendNumKey(dst, c.Floats[i])
	case c.Bools != nil:
		return appendBoolKey(dst, c.Bools[i])
	}
	return appendStrKey(dst, c.Strs[i])
}

// CodeMemo is the per-batch lookaside the group-by accumulator and the
// distinct kernel keep in front of their one key map when the key is a
// single column carrying dictionary codes (ColVec.Codes): one slot per
// code and one for NULL. A code's first row in a batch encodes its key
// and goes through the map as any row does; its later rows read the
// slot. Rows with one code hold one string, so the slot holds what the
// map would have answered, and results are those of the map alone.
type CodeMemo[T any] struct {
	col   *ColVec
	slots [256 + 1]T // uint8 codes 0..255, then NULL
}

// Reset clears the slots the previous batch used and points the memo at
// col, reporting whether col carries codes.
func (m *CodeMemo[T]) Reset(col *ColVec) bool {
	if m.col != nil {
		clear(m.slots[:len(m.col.Dict)])
		clear(m.slots[len(m.slots)-1:])
	}
	m.col = nil
	if col.Codes == nil {
		return false
	}
	m.col = col
	return true
}

// Slot is row ri's slot: its code's, or NULL's.
func (m *CodeMemo[T]) Slot(ri int) *T {
	if m.col.Nulls.Get(ri) {
		return &m.slots[len(m.slots)-1]
	}
	return &m.slots[m.col.Codes[ri]]
}

// ForSel calls fn for each row of an n-row batch that sel selects (nil:
// all of them), in row order.
func ForSel(n int, sel []int32, fn func(ri int)) {
	if sel == nil {
		for ri := 0; ri < n; ri++ {
			fn(ri)
		}
		return
	}
	for _, ri := range sel {
		fn(int(ri))
	}
}

// Batch is a row range of one table in columnar form: Len rows across
// Cols, in schema order.
type Batch struct {
	Schema Schema
	Len    int
	Cols   []ColVec
}

// BatchRange extracts rows [start, end) of t into a Batch. The range
// must be within bounds. Extraction is pure and deterministic; the
// resulting batch shares nothing mutable with t beyond boxed Values
// (which are immutable by convention).
func BatchRange(t *Table, start, end int) *Batch {
	n := end - start
	b := &Batch{Schema: t.Schema, Len: n, Cols: make([]ColVec, len(t.Schema))}
	for ci, col := range t.Schema {
		b.Cols[ci] = extractCol(t, ci, col, start, n)
	}
	return b
}

func extractCol(t *Table, ci int, col Column, start, n int) ColVec {
	cv := ColVec{Name: col.Name, Type: col.Type}
	switch col.Type {
	case TypeInt:
		cv.Ints = make([]int64, n)
	case TypeFloat:
		cv.Floats = make([]float64, n)
	case TypeBool:
		cv.Bools = make([]bool, n)
	default:
		cv.Strs = make([]string, n)
	}
	for i := 0; i < n; i++ {
		v := t.Rows[start+i][ci]
		if v.IsNull() {
			if cv.Nulls == nil {
				cv.Nulls = NewBitmap(n)
			}
			cv.Nulls.Set(i)
			continue
		}
		ok := false
		switch col.Type {
		case TypeInt:
			if ok = v.Kind() == TypeInt; ok {
				cv.Ints[i] = v.Int()
			}
		case TypeFloat:
			if ok = v.Kind() == TypeFloat; ok {
				cv.Floats[i] = v.Float()
			}
		case TypeBool:
			if ok = v.Kind() == TypeBool; ok {
				cv.Bools[i] = v.Bool()
			}
		case TypeDate:
			if ok = v.Kind() == TypeDate; ok {
				cv.Strs[i] = v.Str()
			}
		default:
			if ok = v.Kind() == TypeString; ok {
				cv.Strs[i] = v.Str()
			}
		}
		if !ok {
			// Kind anomaly: keep the column as exact Values so the
			// vectorized kernels reproduce interpreter semantics.
			return boxedCol(t, ci, col, start, n)
		}
	}
	return cv
}

func boxedCol(t *Table, ci int, col Column, start, n int) ColVec {
	cv := ColVec{Name: col.Name, Type: col.Type, Boxed: make([]Value, n)}
	for i := 0; i < n; i++ {
		cv.Boxed[i] = t.Rows[start+i][ci]
	}
	return cv
}

// encodeDicts gives every unboxed string or date column of b its
// dictionary (ColVec.Codes, Dict). seen is scratch shared by every
// column and batch of one fragment walk, cleared per column, so the only
// allocations are each column's Codes and Dict.
func (b *Batch) encodeDicts(seen map[string]uint8) {
	for ci := range b.Cols {
		cv := &b.Cols[ci]
		if cv.Strs == nil {
			continue // not a string or date column, or Boxed
		}
		clear(seen)
		cv.Codes = make([]uint8, b.Len)
		for i, s := range cv.Strs {
			if cv.Nulls.Get(i) {
				continue
			}
			code, ok := seen[s]
			if !ok {
				code = uint8(len(seen))
				seen[s] = code
			}
			cv.Codes[i] = code
		}
		cv.Dict = make([]string, len(seen))
		for i, code := range cv.Codes {
			if !cv.Nulls.Get(i) {
				cv.Dict[code] = cv.Strs[i]
			}
		}
	}
}

// Frags is the per-fragment columnar form of one table, aligned to the
// same FragmentRows grid as the zone maps — both come from the same
// walk (fragmentsFrom) — so zone-pruned row ranges map directly onto
// batches. Like Zones, a Frags value is immutable once published:
// appends extend into a fresh Frags that shares the sealed batches.
type Frags struct {
	Table   string
	Rows    int // rows covered
	Batches []*Batch
}
