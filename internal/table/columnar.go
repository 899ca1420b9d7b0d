package table

// Columnar batch extraction: the vectorized executor's data layout.
// Each 256-row fragment (FragmentRows, shared with the zone maps) is
// materialized once into typed column arrays — int64/float64/bool
// slices, a dictionary for strings and dates, plus a null bitmap — so
// the hot kernels in internal/logical/exec_vec.go run over machine
// types instead of interface-shaped Values. A column whose cells do not
// all match its extracted class keeps the original Values (Boxed);
// kernels fall back to per-Value evaluation there, so extraction never
// changes results.
//
// A string or date column is its dictionary: one uint8 code per row
// (ColVec.Codes) into the distinct values in first-seen order
// (ColVec.Dict), each held once. A batch holds at most FragmentRows =
// 256 rows, so a code always fits, and a string kernel decides once per
// dictionary entry and then selects rows by code.
//
// The catalog seals each fragment in one walk per column (sealCol,
// from fragmentsFrom): every cell is stored typed or as a NULL bit, a
// string or date cell as its code, each dictionary entry gets its
// value's table-wide ordinal (ColVec.Ords: the column's values numbered
// in first-seen order over the table's coded fragments), and the cell
// is folded into the fragment's zone map. BatchRange is the same walk
// without ordinals or zone map. Neither codes nor ordinals are
// persisted — a snapshot holds rows, and a load seals again. An Append
// seals only the open tail again, numbering its new values after those
// the table holds, so sealed fragments keep their ordinals.
//
// Group identity of a single coded column is its ordinal. The group-by
// accumulator (AggAcc.FoldBatches) keeps one array of groups indexed by
// ordinal and the distinct kernel one bitset over ordinals, each sized
// once per query (OrdinalSpan), so no key is encoded or looked up while
// they read rows. They take that path only when every batch they read
// carries ordinals for the column and the ordinals span no more than
// the rows read; otherwise every batch goes through the key map.

import "hash/maphash"

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
// Ints, Floats, Bools, Codes (or Boxed) is populated, chosen by the
// column's schema type; Nulls marks NULL rows (typed slots of NULL rows
// hold zero values). When any non-null cell's dynamic kind disagrees
// with the schema type — possible for operator-built intermediates that
// bypass Append validation — the whole column is kept as Boxed Values
// and kernels use the exact row-interpreter semantics on it.
//
// An unboxed string or date column is its dictionary: row i holds
// Dict[Codes[i]], and Dict holds each distinct non-NULL value once in
// first-seen order (the rows' own strings, no bytes copied). A NULL
// row's code is 0 — read Nulls first. Ords, set on a catalog fragment
// only, gives Dict[c]'s table-wide ordinal in Ords[c]: the column's
// distinct values numbered from 0 in first-seen order over the table's
// coded fragments, so rows of any two fragments hold one value exactly
// when their ordinals are equal.
type ColVec struct {
	Name   string
	Type   ColType
	Ints   []int64   // TypeInt
	Floats []float64 // TypeFloat
	Bools  []bool    // TypeBool
	Codes  []uint8   // TypeString and TypeDate: per-row index into Dict
	Dict   []string  // distinct non-NULL cells in first-seen order (dates compare lexically)
	Ords   []uint32  // table-wide ordinal of each Dict entry; catalog fragments only
	Nulls  Bitmap    // nil when the extracted rows hold no NULLs
	Boxed  []Value   // mixed-kind fallback; nil on the typed paths
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
		return D(c.Dict[c.Codes[i]])
	default:
		return S(c.Dict[c.Codes[i]])
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
	return appendStrKey(dst, c.Dict[c.Codes[i]])
}

// Batch is a row range of one table in columnar form: Len rows across
// Cols, in schema order.
type Batch struct {
	Schema Schema
	Len    int
	Cols   []ColVec
}

// BatchRange extracts rows [start, end) of t, at most FragmentRows of
// them, into a Batch by the walk that seals a catalog fragment
// (sealCol), without ordinals or zone map. The range must be within
// bounds. Extraction is pure and deterministic; the resulting batch
// shares nothing mutable with t beyond boxed Values (which are
// immutable by convention).
func BatchRange(t *Table, start, end int) *Batch {
	if end-start > FragmentRows {
		panic("table: BatchRange over more than FragmentRows rows")
	}
	b := &Batch{Schema: t.Schema, Len: end - start, Cols: make([]ColVec, len(t.Schema))}
	var s sealer
	for ci, col := range t.Schema {
		b.Cols[ci] = sealCol(t.Rows[start:end], ci, col, &s, nil)
	}
	return b
}

// sealer is the state of one fragment walk (fragmentsFrom, BatchRange),
// shared by every column and fragment it seals: the dictionary of the
// column in hand — an open-addressed table from a value's hash to its
// code, the codes given, and the row of each code's first cell, whose
// cell is the code's value — and, for a catalog walk, the table's
// value→ordinal maps (the catalog entry's ords). The table holds at
// most FragmentRows codes in twice as many slots, so a probe always
// ends, and no walk allocates for it.
type sealer struct {
	slots [2 * FragmentRows]uint16 // 1 + a code; 0: free
	codes int
	first [FragmentRows]uint8
	ords  []map[string]uint32
}

// sealSeed seeds the sealer's hash. Codes are given in first-seen
// order, so the seed moves no code, only where a probe looks.
var sealSeed = maphash.MakeSeed()

// code returns the dictionary code of the string cell of rows[i] in
// column ci, giving the next one to a value no earlier row of the
// column holds, and whether an earlier row holds it.
func (s *sealer) code(rows [][]Value, ci, i int) (code uint8, seen bool) {
	v := rows[i][ci].s
	mask := uint64(len(s.slots) - 1)
	for h := maphash.String(sealSeed, v); ; h++ {
		slot := &s.slots[h&mask]
		if *slot == 0 {
			c := s.codes
			*slot, s.first[c], s.codes = uint16(c+1), uint8(i), c+1
			return uint8(c), false
		}
		if c := *slot - 1; rows[s.first[c]][ci].s == v {
			return uint8(c), true
		}
	}
}

// ordinals numbers the dictionary of each coded column of bs, the
// fragments the walk sealed, table-wide: a value the table's coded
// fragments already hold keeps its ordinal, and a new one takes the
// next, fragment by fragment in the dictionary's (first-seen) order.
// Every column's ordinals are carved from one slab of the walk's own, so
// no later walk writes into a published fragment.
func (s *sealer) ordinals(bs []*Batch) {
	total := 0
	for _, b := range bs {
		for ci := range b.Cols {
			if b.Cols[ci].Codes != nil {
				total += len(b.Cols[ci].Dict)
			}
		}
	}
	slab := make([]uint32, total)
	for _, b := range bs {
		for ci := range b.Cols {
			cv := &b.Cols[ci]
			if cv.Codes == nil {
				continue
			}
			ids := s.ords[ci]
			if ids == nil {
				ids = make(map[string]uint32)
				s.ords[ci] = ids
			}
			cv.Ords, slab = slab[:len(cv.Dict):len(cv.Dict)], slab[len(cv.Dict):]
			for code, v := range cv.Dict {
				o, ok := ids[v]
				if !ok {
					o = uint32(len(ids))
					ids[v] = o
				}
				cv.Ords[code] = o
			}
		}
	}
}

// sealCol walks column ci of rows once. Each cell is stored typed, as
// its dictionary code or as its NULL bit; the first non-NULL cell whose
// kind differs from the schema type boxes the whole column instead
// (typed slices, codes and bitmap dropped), so the vectorized kernels
// reproduce the row interpreter's semantics there. Given a zone to fold
// into (a catalog walk, whose sealer.ordinals then numbers the
// dictionary entries table-wide), every cell is folded into the zone —
// a coded cell only at its value's first row, as its repeats are the
// same string and change no bound or value set.
func sealCol(rows [][]Value, ci int, col Column, s *sealer, zc *ZoneCol) ColVec {
	n := len(rows)
	cv := ColVec{Name: col.Name, Type: col.Type}
	switch col.Type {
	case TypeInt:
		cv.Ints = make([]int64, n)
	case TypeFloat:
		cv.Floats = make([]float64, n)
	case TypeBool:
		cv.Bools = make([]bool, n)
	default:
		s.slots, s.codes = [len(s.slots)]uint16{}, 0
		cv.Codes = make([]uint8, n)
	}
	for i, r := range rows {
		v := r[ci]
		if cv.Boxed == nil && !v.IsNull() && v.Kind() != col.Type {
			cv = ColVec{Name: col.Name, Type: col.Type, Boxed: make([]Value, n)}
			for j, r := range rows[:i] {
				cv.Boxed[j] = r[ci]
			}
		}
		fold := zc != nil
		switch {
		case cv.Boxed != nil:
			cv.Boxed[i] = v
		case v.IsNull():
			if cv.Nulls == nil {
				cv.Nulls = NewBitmap(n)
			}
			cv.Nulls.Set(i)
		case col.Type == TypeInt:
			cv.Ints[i] = v.Int()
		case col.Type == TypeFloat:
			cv.Floats[i] = v.Float()
		case col.Type == TypeBool:
			cv.Bools[i] = v.Bool()
		default:
			code, seen := s.code(rows, ci, i)
			cv.Codes[i], fold = code, fold && !seen
		}
		if fold {
			zc.fold(v)
		}
	}
	if cv.Codes != nil {
		cv.Dict = make([]string, s.codes)
		for code := range cv.Dict {
			cv.Dict[code] = rows[s.first[code]][ci].s
		}
	}
	return cv
}

// OrdinalSpan reports how many table-wide ordinals column ci of bs
// spans — one more than the greatest ordinal of a batch sels selects a
// row of (nil sels, or a nil entry: every row) — and whether a kernel
// may index that column's groups by ordinal: every batch it reads
// carries ordinals for the column, and the span is at most the rows
// selected, so an array over the span is never larger than the input.
func OrdinalSpan(bs []*Batch, sels [][]int32, ci int) (span int, ok bool) {
	rows := 0
	for bi, b := range bs {
		n := b.Len
		if sels != nil && sels[bi] != nil {
			n = len(sels[bi])
		}
		if n == 0 {
			continue
		}
		ords := b.Cols[ci].Ords
		if ords == nil {
			return 0, false
		}
		rows += n
		for _, o := range ords {
			span = max(span, int(o)+1)
		}
	}
	return span, span <= rows
}

// Frags is the per-fragment columnar form of one table, aligned to the
// same FragmentRows grid as the zone maps — each batch and its zone map
// come from the same walk (sealCol) — so zone-pruned row ranges map
// directly onto batches. Like Zones, a Frags value is immutable once
// published: appends extend into a fresh Frags that shares the sealed
// batches.
type Frags struct {
	Table   string
	Rows    int // rows covered
	Batches []*Batch
}
