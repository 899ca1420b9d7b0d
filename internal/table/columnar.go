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
// The catalog seals each fragment in one walk per column (sealCol,
// from fragmentsFrom): every cell is stored typed or as a NULL bit, a
// string or date cell gets its code in the batch's dictionary
// (ColVec.Codes and Dict: one uint8 per row into the distinct values in
// first-seen order), and the cell is folded into the fragment's zone
// map. BatchRange is the same walk without dictionary or zone map. The
// dictionary is not persisted — a snapshot holds rows, and a load seals
// again. The group-by accumulator (AggAcc.FoldBatch), the distinct
// kernel and the coded-equality filter use it in typed loops: the first
// two keep an array indexed by code (one slot per code, one for NULL)
// local to the batch in front of their key map, so a key is looked up
// once per value per batch instead of once per row.

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
// and a NULL row's code is 0 — read Nulls first. Each code is assigned
// in the same walk that stores the cell (sealCol). A batch holds at most
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

// Batch is a row range of one table in columnar form: Len rows across
// Cols, in schema order.
type Batch struct {
	Schema Schema
	Len    int
	Cols   []ColVec
}

// BatchRange extracts rows [start, end) of t into a Batch by the walk
// that seals a catalog fragment (sealCol), without dictionaries or zone
// map. The range must be within bounds. Extraction is pure and
// deterministic; the resulting batch shares nothing mutable with t
// beyond boxed Values (which are immutable by convention).
func BatchRange(t *Table, start, end int) *Batch {
	b := &Batch{Schema: t.Schema, Len: end - start, Cols: make([]ColVec, len(t.Schema))}
	for ci, col := range t.Schema {
		b.Cols[ci] = sealCol(t.Rows[start:end], ci, col, nil, nil)
	}
	return b
}

// sealer is the scratch of one catalog fragment walk (fragmentsFrom),
// shared by every column and fragment it seals: the dictionary codes of
// the column in hand, and the row of each code's first cell.
type sealer struct {
	codes map[string]uint8
	first [FragmentRows]uint8
}

// sealCol walks column ci of rows once. Each cell is stored typed or as
// its NULL bit; the first non-NULL cell whose kind differs from the
// schema type boxes the whole column instead (typed slices, bitmap and
// codes dropped), so the vectorized kernels reproduce the row
// interpreter's semantics there. Given a sealer and a zone to fold into,
// a string or date cell also gets its dictionary code, and every cell
// is folded into the zone — a coded cell only at its value's first row,
// as its repeats are the same string and change no bound or value set.
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
		cv.Strs = make([]string, n)
	}
	if s != nil && cv.Strs != nil {
		clear(s.codes)
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
			cv.Strs[i] = v.s
			if cv.Codes != nil {
				code, seen := s.codes[v.s]
				if !seen {
					code = uint8(len(s.codes))
					s.codes[v.s] = code
					s.first[code] = uint8(i)
				}
				cv.Codes[i], fold = code, !seen
			}
		}
		if fold {
			zc.fold(v)
		}
	}
	if cv.Codes != nil {
		cv.Dict = make([]string, len(s.codes))
		for code := range cv.Dict {
			cv.Dict[code] = cv.Strs[s.first[code]]
		}
	}
	return cv
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
