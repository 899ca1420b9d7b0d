// Package table implements the structured-data substrate: typed
// relational tables, a logical-operator execution engine (filter,
// project, join, group-by aggregation, sort, limit), and CSV
// interchange. It is the "TableQA engine" that the paper's hybrid
// pipeline feeds with SLM-generated tables (Section III.C).
//
// A cell is a Value of 32 bytes — a string, one payload word and a
// one-byte kind — and a statistics run entry (ValueCount) is 40 bytes.
// A result table is rows of Values; a table the Catalog holds is only
// its sealed fragments (the benchmark's 65 536 × 4 table: 8 MiB as
// rows, ≈ 1.6 MB as columns), its rows built on demand (Table.RowView).
//
// Beyond the row-oriented operators, the Catalog keeps one record per
// registered table and fills it through one function (derive), told
// the first row a registration does not cover — 0 for Catalog.Put,
// which replaces, the old row count for Catalog.Append, which extends —
// and handed the rows from there on, which it derives from and then
// drops (k = 0 being the full build). Derived are per-column
// statistics (TableStats — the planner's cost inputs, stamped with the
// catalog epoch), and, from one walk per column of each 256-row
// fragment (FragmentRows), per-fragment zone maps (Zones — plan-time
// pruning proofs) and columnar fragments (Frags — typed column arrays
// with null bitmaps and per-batch string dictionaries, the batch form
// internal/logical's vectorized executor consumes); the rollups over
// the table fold the same rows. Rollup materializations and tables read
// from a snapshot register the same way.
//
// None of the derived state is serialized: a snapshot holds rows
// (written from the fragments), schemas and rollup definitions, and a
// load derives the rest as a Put does, so it cannot disagree with the
// rows stored beside it ("stats"
// and "zones" keys of older files are ignored; files written now load
// in older builds, where a missing key already meant "derive"). On the
// benchmark's 65 536 × 4 table the statistics build is ≈ 13 ms and the
// fragment walk, one pass per column for batch, dictionary and zone map
// together, ≈ 11 ms (one core of a 2-core x86-64 box).
//
// The catalog's Epoch is the repo-wide invalidation convention:
// everything derived from table contents carries the epoch it was
// computed at and is re-derived when the epoch moves.
package table

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ColType is a column's data type. It is a byte so that a Value, which
// carries one, stays 32 bytes.
type ColType uint8

// Supported column types.
const (
	TypeString ColType = iota
	TypeInt
	TypeFloat
	TypeBool
	TypeDate // ISO-8601 string, compares lexically
)

// String names the type.
func (t ColType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeDate:
		return "date"
	default:
		return "unknown"
	}
}

// Value is a typed cell. The zero Value is a NULL: Null() reports true
// and it compares less than every non-null value.
//
// A Value is 32 bytes on a 64-bit platform (TestValueLayout): the text
// of a string or date, one payload word and the kind. The word holds an
// int, a float's IEEE-754 bits or 0/1 for a bool — the three never
// coexist in one cell — and is 0 for every other kind and for NULL. So
// == on two Values is bit identity (−0 ≠ +0, a NaN equals a NaN with
// the same bits), which is what a map keyed by Value counts; Compare
// and Equal are the order and the equality every operator uses.
type Value struct {
	s     string
	n     uint64
	kind  ColType
	valid bool
}

// Constructors.

// S returns a string value.
func S(v string) Value { return Value{kind: TypeString, valid: true, s: v} }

// I returns an int value.
func I(v int64) Value { return Value{kind: TypeInt, valid: true, n: uint64(v)} }

// F returns a float value.
func F(v float64) Value { return Value{kind: TypeFloat, valid: true, n: math.Float64bits(v)} }

// B returns a bool value.
func B(v bool) Value {
	if v {
		return Value{kind: TypeBool, valid: true, n: 1}
	}
	return Value{kind: TypeBool, valid: true}
}

// D returns a date value from an ISO-8601 string.
func D(v string) Value { return Value{kind: TypeDate, valid: true, s: v} }

// Null returns the NULL value of the given type.
func Null(t ColType) Value { return Value{kind: t} }

// Kind returns the value's type.
func (v Value) Kind() ColType { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return !v.valid }

// Str returns the string content (string/date values).
func (v Value) Str() string { return v.s }

// Int returns the content of an int value, and 0 for any other kind.
func (v Value) Int() int64 {
	if v.kind != TypeInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the numeric content of int or float values, and 0 for
// any other kind.
func (v Value) Float() float64 {
	switch v.kind {
	case TypeInt:
		return float64(int64(v.n))
	case TypeFloat:
		return math.Float64frombits(v.n)
	}
	return 0
}

// Bool returns the content of a bool value, and false for any other
// kind.
func (v Value) Bool() bool { return v.kind == TypeBool && v.n != 0 }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.kind == TypeInt || v.kind == TypeFloat }

// String renders the value for display; NULL renders as "NULL". A
// string or date is its own text, not a copy.
func (v Value) String() string {
	if v.isText() {
		return v.s
	}
	var buf [32]byte // the longest int or 'g' float is 24 bytes
	return string(v.AppendString(buf[:0]))
}

// isText reports whether the value is a non-NULL string or date, whose
// text String returns without formatting.
func (v Value) isText() bool { return v.valid && (v.kind == TypeString || v.kind == TypeDate) }

// AppendString appends the text String returns to dst, so a caller that
// writes many values into one buffer formats each number in place.
func (v Value) AppendString(dst []byte) []byte {
	if !v.valid {
		return append(dst, "NULL"...)
	}
	switch v.kind {
	case TypeString, TypeDate:
		return append(dst, v.s...)
	case TypeInt:
		return strconv.AppendInt(dst, v.Int(), 10)
	case TypeFloat:
		// 'g' writes an integral float below 1e6 in magnitude as its
		// digits, as AppendInt does; −0 keeps its sign through 'g'.
		if x := v.Float(); x == math.Trunc(x) && math.Abs(x) < 1e6 && (x != 0 || !math.Signbit(x)) {
			return strconv.AppendInt(dst, int64(x), 10)
		}
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case TypeBool:
		return strconv.AppendBool(dst, v.Bool())
	default:
		return append(dst, '?')
	}
}

// Compare is the one total order on values, and Equal and the key
// encoding (AppendKey) follow it. Values order by class first — NULL of
// any kind < bool < number < string and date — which is the byte order
// of the encoding's class prefixes. Within a class, bools order false <
// true; numbers by value across int and float (CompareFloat: −0 equals
// +0, NaN equals NaN and sorts above +Inf, PostgreSQL's rule); strings
// and dates by their text.
func Compare(a, b Value) int {
	ca, cb := a.keyClass(), b.keyClass()
	if ca != cb {
		return cmp.Compare(ca, cb)
	}
	switch ca {
	case 'n':
		return CompareFloat(a.Float(), b.Float())
	case 'b':
		return cmp.Compare(a.n, b.n) // 0 for false, 1 for true
	case 's':
		return strings.Compare(a.s, b.s)
	}
	return 0
}

// CompareFloat is Compare's order on numbers: by value, −0 equal to +0,
// and every NaN equal to every other and above +Inf.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// keyClass is a value's class under Compare, and the first byte of its
// key: 0 for NULL of any kind, then 'b' (bool), 'n' (int and float) and
// 's' (string and date).
func (v Value) keyClass() byte {
	switch {
	case !v.valid:
		return 0
	case v.IsNumeric():
		return 'n'
	case v.kind == TypeBool:
		return 'b'
	default:
		return 's'
	}
}

// keyEnd ends every key. Inside a string payload it is escaped as
// keyEnd, keyEsc; no class prefix is keyEsc, so a key ends at the first
// keyEnd not followed by keyEsc and a row's keys, written one after
// another, read back one way only.
const (
	keyEnd = 0x1f
	keyEsc = 0xff
)

// AppendKey appends v's key to dst: a class prefix, the payload and
// keyEnd — "\x00null" for NULL of any kind, "b:" and the bool, "n:" and
// the number's shortest text (−0 written as 0, every NaN as NaN), "s:"
// and the escaped text of a string or date. Two values have equal keys
// exactly when Compare calls them equal, and a row's cells appended in
// order key the row: hash joins, GROUP BY, DISTINCT, plan fingerprints
// and ingest dedupe all find values by these bytes.
func AppendKey(dst []byte, v Value) []byte {
	switch v.keyClass() {
	case 0:
		return appendNullKey(dst)
	case 'n':
		return appendNumKey(dst, v.Float())
	case 'b':
		return appendBoolKey(dst, v.Bool())
	}
	return appendStrKey(dst, v.s)
}

// Key is v's key (AppendKey) as a string, for a map that stores it.
func (v Value) Key() string {
	var buf [32]byte
	return string(AppendKey(buf[:0], v))
}

func appendNullKey(dst []byte) []byte { return append(append(dst, "\x00null"...), keyEnd) }

func appendNumKey(dst []byte, f float64) []byte {
	if f == 0 {
		f = 0 // −0 keys as +0, which Compare calls equal to it
	}
	dst = strconv.AppendFloat(append(dst, 'n', ':'), f, 'g', -1, 64)
	return append(dst, keyEnd)
}

func appendBoolKey(dst []byte, b bool) []byte {
	return append(strconv.AppendBool(append(dst, 'b', ':'), b), keyEnd)
}

func appendStrKey(dst []byte, s string) []byte {
	dst = append(dst, 's', ':')
	for {
		i := strings.IndexByte(s, keyEnd)
		if i < 0 {
			break
		}
		dst = append(append(dst, s[:i+1]...), keyEsc)
		s = s[i+1:]
	}
	return append(append(dst, s...), keyEnd)
}

// Parse converts raw text to a value of type t. Empty text parses to
// NULL. Parse errors are reported, not silently coerced.
func Parse(t ColType, raw string) (Value, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return Null(t), nil
	}
	switch t {
	case TypeString:
		return S(raw), nil
	case TypeDate:
		return D(raw), nil
	case TypeInt:
		n, err := strconv.ParseInt(strings.ReplaceAll(raw, ",", ""), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("table: parse int %q: %w", raw, err)
		}
		return I(n), nil
	case TypeFloat:
		clean := strings.TrimSuffix(strings.ReplaceAll(raw, ",", ""), "%")
		f, err := strconv.ParseFloat(clean, 64)
		if err != nil {
			return Value{}, fmt.Errorf("table: parse float %q: %w", raw, err)
		}
		return F(f), nil
	case TypeBool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return Value{}, fmt.Errorf("table: parse bool %q: %w", raw, err)
		}
		return B(b), nil
	default:
		return Value{}, fmt.Errorf("table: unknown type %v", t)
	}
}

// CoerceTo re-types a literal against the column type it is compared
// to, so "= 20" matches a float column and "= '5'" a string column.
// Numeric literals on numeric columns are left alone (Compare already
// crosses int/float exactly); NULLs and unparseable literals pass
// through unchanged. This is the one re-typing rule shared by semantic
// operator binding, the SQL entry path and the IR optimizer's
// constant-folding pass.
func CoerceTo(want ColType, v Value) Value {
	if v.IsNull() || v.Kind() == want {
		return v
	}
	if v.IsNumeric() && (want == TypeInt || want == TypeFloat) {
		return v
	}
	if parsed, err := Parse(want, v.String()); err == nil {
		return parsed
	}
	return v
}

// Infer guesses the tightest type for raw text: int, then float
// (including "12%" and "1,200" forms), then bool, then date, then
// string.
func Infer(raw string) ColType {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return TypeString
	}
	if _, err := strconv.ParseInt(strings.ReplaceAll(raw, ",", ""), 10, 64); err == nil {
		return TypeInt
	}
	clean := strings.TrimSuffix(strings.ReplaceAll(raw, ",", ""), "%")
	if _, err := strconv.ParseFloat(clean, 64); err == nil {
		return TypeFloat
	}
	if raw == "true" || raw == "false" {
		return TypeBool
	}
	if looksISODate(raw) {
		return TypeDate
	}
	return TypeString
}

// FormatNumber renders a numeric answer consistently across the
// system: rounded to two decimals with trailing zeros stripped, so
// pipeline answers and workload gold strings compare exactly.
func FormatNumber(f float64) string {
	r := math.Round(f*100) / 100
	return strconv.FormatFloat(r, 'f', -1, 64)
}

// FormatValue renders a cell as an answer string: numerics through
// FormatNumber, everything else through String.
func FormatValue(v Value) string {
	if !v.IsNull() && v.IsNumeric() {
		return FormatNumber(v.Float())
	}
	return v.String()
}

func looksISODate(s string) bool {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return false
	}
	for i, c := range s {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
