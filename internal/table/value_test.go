package table

import (
	"bytes"
	"cmp"
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

// A cell is 32 bytes and a statistics run entry 40: a field added to
// Value, or a kind wider than a byte, would give the heap back without
// failing anything else.
func TestValueLayout(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 32 {
		t.Errorf("Value is %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(ValueCount{}); s != 40 {
		t.Errorf("ValueCount is %d bytes, want 40", s)
	}
}

// Each accessor answers for the kind it reads and is zero for every
// other, whatever the payload word holds: Int of a float is not its
// bits, Float of a bool is not 5e-324, Bool of a non-zero int is false.
func TestAccessorsOnOtherKinds(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		v       Value
		i       int64
		f       float64
		b       bool
		str, sv string
	}{
		{S("x"), 0, 0, false, "x", "x"},
		{S("7"), 0, 0, false, "7", "7"},
		{D("2024-01-01"), 0, 0, false, "2024-01-01", "2024-01-01"},
		{I(7), 7, 7, false, "", "7"},
		{I(1), 1, 1, false, "", "1"},
		{I(-1), -1, -1, false, "", "-1"},
		{I(math.MinInt64), math.MinInt64, -9223372036854775808, false, "", "-9223372036854775808"},
		{I(math.MaxInt64), math.MaxInt64, 9223372036854775807, false, "", "9223372036854775807"},
		{F(2.5), 0, 2.5, false, "", "2.5"},
		{F(1), 0, 1, false, "", "1"},
		{F(negZero), 0, negZero, false, "", "-0"},
		{F(nan), 0, nan, false, "", "NaN"},
		{F(math.Inf(-1)), 0, math.Inf(-1), false, "", "-Inf"},
		{B(true), 0, 0, true, "", "true"},
		{B(false), 0, 0, false, "", "false"},
		{Value{}, 0, 0, false, "", "NULL"},
		{Null(TypeString), 0, 0, false, "", "NULL"},
		{Null(TypeInt), 0, 0, false, "", "NULL"},
		{Null(TypeFloat), 0, 0, false, "", "NULL"},
		{Null(TypeBool), 0, 0, false, "", "NULL"},
		{Null(TypeDate), 0, 0, false, "", "NULL"},
	} {
		if got := c.v.Int(); got != c.i {
			t.Errorf("%v %s: Int() = %d, want %d", c.v.Kind(), c.sv, got, c.i)
		}
		if got := c.v.Float(); math.Float64bits(got) != math.Float64bits(c.f) {
			t.Errorf("%v %s: Float() = %v, want %v", c.v.Kind(), c.sv, got, c.f)
		}
		if got := c.v.Bool(); got != c.b {
			t.Errorf("%v %s: Bool() = %v, want %v", c.v.Kind(), c.sv, got, c.b)
		}
		if got := c.v.Str(); got != c.str {
			t.Errorf("%v %s: Str() = %q, want %q", c.v.Kind(), c.sv, got, c.str)
		}
		if got := c.v.String(); got != c.sv {
			t.Errorf("%v: String() = %q, want %q", c.v.Kind(), got, c.sv)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := S("hi"); v.Kind() != TypeString || v.Str() != "hi" || v.IsNull() {
		t.Errorf("S: %+v", v)
	}
	if v := I(42); v.Int() != 42 || v.Float() != 42 {
		t.Errorf("I: %+v", v)
	}
	if v := F(2.5); v.Float() != 2.5 || !v.IsNumeric() {
		t.Errorf("F: %+v", v)
	}
	if v := B(true); !v.Bool() {
		t.Errorf("B: %+v", v)
	}
	if v := D("2024-05-01"); v.Kind() != TypeDate || v.Str() != "2024-05-01" {
		t.Errorf("D: %+v", v)
	}
	if v := Null(TypeInt); !v.IsNull() || v.String() != "NULL" {
		t.Errorf("Null: %+v", v)
	}
}

func TestCompareNumericCrossType(t *testing.T) {
	if Compare(I(2), F(2.0)) != 0 {
		t.Error("int 2 != float 2.0")
	}
	if Compare(I(1), F(1.5)) != -1 {
		t.Error("1 should be < 1.5")
	}
	if Compare(F(3.5), I(3)) != 1 {
		t.Error("3.5 should be > 3")
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(Null(TypeInt), I(0)) != -1 {
		t.Error("NULL should sort before values")
	}
	if Compare(Null(TypeInt), Null(TypeString)) != 0 {
		t.Error("NULLs should compare equal")
	}
	if Compare(S(""), Null(TypeString)) != 1 {
		t.Error("empty string should sort after NULL")
	}
}

func TestCompareStringsAndDates(t *testing.T) {
	if Compare(S("apple"), S("banana")) >= 0 {
		t.Error("string compare broken")
	}
	if Compare(D("2024-01-01"), D("2024-02-01")) >= 0 {
		t.Error("date compare broken")
	}
	if Compare(B(false), B(true)) != -1 {
		t.Error("bool compare broken")
	}
}

func TestKeyEquality(t *testing.T) {
	// Values that compare equal must share a key (hash-join invariant).
	if I(2).Key() != F(2.0).Key() {
		t.Error("int/float key mismatch")
	}
	if S("x").Key() == Null(TypeString).Key() {
		t.Error("null key collides with value key")
	}
}

// TestKeySignedZero: −0 compares equal to +0 and to int 0, so it keys
// as they do.
func TestKeySignedZero(t *testing.T) {
	negZero := F(math.Copysign(0, -1))
	if Compare(negZero, F(0)) != 0 || Compare(negZero, I(0)) != 0 {
		t.Fatal("−0 no longer compares equal to 0")
	}
	if negZero.Key() != F(0).Key() || negZero.Key() != I(0).Key() {
		t.Errorf("−0 keys as %q, 0 as %q", negZero.Key(), F(0).Key())
	}
	if got := F(-1.5).Key(); got != "n:-1.5\x1f" {
		t.Errorf("−1.5 keys as %q", got)
	}
}

// TestCompareClassOrder pins the order across classes and the NaN rule:
// NULL < bool < number < string and date, and NaN, whatever its
// payload, equals NaN and sorts above +Inf.
func TestCompareClassOrder(t *testing.T) {
	nan, otherNaN := F(math.NaN()), F(math.Float64frombits(0xfff8000000000001))
	ascending := []Value{Null(TypeString), B(false), B(true), F(math.Inf(-1)), I(-1), F(0), I(2),
		F(math.Inf(1)), nan, S(""), S("2"), D("2024-01-01"), S("n:2"), S("true")}
	for i := range ascending {
		for j := range ascending {
			want := cmp.Compare(i, j)
			if got := Compare(ascending[i], ascending[j]); got != want {
				t.Errorf("Compare(%v %v, %v %v) = %d, want %d",
					ascending[i].Kind(), ascending[i], ascending[j].Kind(), ascending[j], got, want)
			}
		}
	}
	if Compare(nan, otherNaN) != 0 || nan.Key() != otherNaN.Key() {
		t.Errorf("two NaN payloads: Compare %d, keys %q and %q", Compare(nan, otherNaN), nan.Key(), otherNaN.Key())
	}
}

// keyPool crosses every kind, NULLs of each type, ±0, ±Inf, NaN
// payloads, int against float (2^53 + 1 rounds onto 2^53), numbers and
// bools against strings of their rendering or of their key, strings
// holding the key separator, and strings against dates of the same text.
var keyPool = []Value{
	Null(TypeInt), Null(TypeFloat), Null(TypeString), Null(TypeBool), Null(TypeDate),
	I(0), I(-1), I(2), I(1 << 53), I(1<<53 + 1),
	F(0), F(math.Copysign(0, -1)), F(-1), F(2), F(1.5), F(-1.5), F(1 << 53),
	F(math.Inf(1)), F(math.Inf(-1)), F(1e300),
	F(math.NaN()), F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff8000000000000)),
	S(""), S("a"), S("b"), S("ab"), S("2"), S("true"), S("n:2"), S("\x00null"), S("x"),
	S("x\x1fs:y"), S("x\x1f"), S("x\x1f\xff"), S("2024-01-01"),
	D("2024-01-01"), D("2024-01-02"), D("a"), D("x"), D(""),
	B(true), B(false),
}

// TestKeyIffCompareEqual is the property hash joins, GROUP BY, DISTINCT
// and ingest dedupe rest on: over every pair of keyPool, two values
// share a key exactly when Compare calls them equal.
func TestKeyIffCompareEqual(t *testing.T) {
	for _, a := range keyPool {
		for _, b := range keyPool {
			if eq, same := Compare(a, b) == 0, a.Key() == b.Key(); eq != same {
				t.Errorf("Compare(%v %v, %v %v) == 0 is %v, equal keys %v (%q, %q)",
					a.Kind(), a, b.Kind(), b, eq, same, a.Key(), b.Key())
			}
		}
	}
}

// TestSameKeyIffKeyEqual holds the key writers that build no string to
// Key: over every pair of keyPool, the bytes AppendKey writes, and the
// bytes ColVec.AppendKey writes from a boxed mixed column and from a
// typed column of the value's own kind, are equal exactly when the Keys
// are, and each writer's bytes are the Key itself.
func TestSameKeyIffKeyEqual(t *testing.T) {
	// boxed holds the pool as one mixed column, which a batch boxes;
	// typed(i) is value i alone in a column of its own kind.
	boxed := New("pool", Schema{{Name: "v", Type: TypeString}})
	for _, v := range keyPool {
		boxed.Rows = append(boxed.Rows, []Value{v})
	}
	boxedCol := &BatchRange(boxed, 0, len(keyPool)).Cols[0]
	typed := func(i int) *ColVec {
		one := New("one", Schema{{Name: "v", Type: keyPool[i].Kind()}})
		one.Rows = [][]Value{{keyPool[i]}}
		return &BatchRange(one, 0, 1).Cols[0]
	}
	writers := []struct {
		name  string
		write func(i int) []byte
	}{
		{"AppendKey", func(i int) []byte { return AppendKey(nil, keyPool[i]) }},
		{"boxed ColVec.AppendKey", func(i int) []byte { return boxedCol.AppendKey(nil, i) }},
		{"typed ColVec.AppendKey", func(i int) []byte { return typed(i).AppendKey(nil, 0) }},
	}
	for _, w := range writers {
		for i, a := range keyPool {
			ka := w.write(i)
			if string(ka) != a.Key() {
				t.Errorf("%s of %v %v is %q, Key %q", w.name, a.Kind(), a, ka, a.Key())
			}
			for j, b := range keyPool {
				if same, keyEq := bytes.Equal(ka, w.write(j)), a.Key() == b.Key(); same != keyEq {
					t.Errorf("%s: %v %v, %v %v: equal bytes %v, equal keys %v (%q, %q)",
						w.name, a.Kind(), a, b.Kind(), b, same, keyEq, a.Key(), b.Key())
				}
			}
		}
	}
}

func TestKeyCompareConsistencyProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := I(a), I(b)
		if Compare(va, vb) == 0 {
			return va.Key() == vb.Key()
		}
		return va.Key() != vb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	tests := []struct {
		typ  ColType
		raw  string
		want string
	}{
		{TypeInt, "42", "42"},
		{TypeInt, "1,200", "1200"},
		{TypeFloat, "2.5", "2.5"},
		{TypeFloat, "15%", "15"},
		{TypeBool, "true", "true"},
		{TypeString, "hello", "hello"},
		{TypeDate, "2024-05-01", "2024-05-01"},
	}
	for _, tc := range tests {
		v, err := Parse(tc.typ, tc.raw)
		if err != nil {
			t.Errorf("Parse(%v, %q): %v", tc.typ, tc.raw, err)
			continue
		}
		if v.String() != tc.want {
			t.Errorf("Parse(%v, %q) = %q, want %q", tc.typ, tc.raw, v.String(), tc.want)
		}
	}
}

func TestParseEmptyIsNull(t *testing.T) {
	v, err := Parse(TypeInt, "  ")
	if err != nil || !v.IsNull() {
		t.Errorf("empty parse: %v %v", v, err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(TypeInt, "abc"); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := Parse(TypeFloat, "xyz"); err == nil {
		t.Error("bad float accepted")
	}
	if _, err := Parse(TypeBool, "maybe"); err == nil {
		t.Error("bad bool accepted")
	}
}

func TestInfer(t *testing.T) {
	tests := map[string]ColType{
		"42":         TypeInt,
		"3.14":       TypeFloat,
		"12%":        TypeFloat,
		"1,200":      TypeInt,
		"true":       TypeBool,
		"2024-05-01": TypeDate,
		"hello":      TypeString,
		"":           TypeString,
		"2024-5-1":   TypeString,
	}
	for raw, want := range tests {
		if got := Infer(raw); got != want {
			t.Errorf("Infer(%q) = %v, want %v", raw, got, want)
		}
	}
}

func TestColTypeString(t *testing.T) {
	if TypeInt.String() != "int" || TypeDate.String() != "date" || ColType(99).String() != "unknown" {
		t.Error("ColType.String broken")
	}
}

// TestAppendStringIntegralFloats holds AppendString's integer fast path
// to strconv's shortest 'g' text, which writes an integral float below
// 1e6 in magnitude as its digits and switches to an exponent at 1e6:
// every integer in ±2 000 000, the floats either side of ±1e6, ±0, NaN
// and ±Inf.
func TestAppendStringIntegralFloats(t *testing.T) {
	var got, want []byte
	check := func(x float64) {
		got = F(x).AppendString(got[:0])
		want = strconv.AppendFloat(want[:0], x, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("F(%v).AppendString = %q, AppendFloat 'g' writes %q", x, got, want)
		}
	}
	for n := -2_000_000; n <= 2_000_000; n++ {
		check(float64(n))
	}
	for _, edge := range []float64{1e6, -1e6} {
		check(math.Nextafter(edge, 0))
		check(math.Nextafter(edge, math.Inf(1)))
		check(math.Nextafter(edge, math.Inf(-1)))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.5, -999999.5} {
		check(x)
	}
}

func TestValueStringFormats(t *testing.T) {
	if F(2.50).String() != "2.5" {
		t.Errorf("float format: %q", F(2.50).String())
	}
	if I(-7).String() != "-7" {
		t.Errorf("int format: %q", I(-7).String())
	}
	if B(false).String() != "false" {
		t.Errorf("bool format: %q", B(false).String())
	}
}

// fuzzValue decodes a value: the first byte picks the kind, the rest is
// the payload — little-endian bits for numbers (every NaN payload, ±0
// and ±Inf reachable), a small integral float for kind 6, and the text
// itself for strings and dates.
func fuzzValue(data []byte) Value {
	if len(data) == 0 {
		return Value{}
	}
	payload := data[1:]
	var u uint64
	for i := 0; i < 8 && i < len(payload); i++ {
		u |= uint64(payload[i]) << (8 * i)
	}
	switch data[0] % 7 {
	case 0:
		return Null(ColType(data[0] / 7 % 5))
	case 1:
		return B(u&1 == 1)
	case 2:
		return I(int64(u))
	case 3:
		return F(math.Float64frombits(u))
	case 4:
		return S(string(payload))
	case 5:
		return D(string(payload))
	default:
		return F(float64(int8(u)))
	}
}

// FuzzValueOrder holds the laws the engine's one order rests on, over
// four fuzzed values: Compare is antisymmetric and transitive, two
// values compare equal exactly when their keys are equal bytes, and two
// rows' keys — their cells' keys one after another — are equal exactly
// when the rows have as many cells and are equal cell by cell.
func FuzzValueOrder(f *testing.F) {
	num := func(kind byte, bits uint64) []byte {
		b := []byte{kind}
		for i := 0; i < 8; i++ {
			b = append(b, byte(bits>>(8*i)))
		}
		return b
	}
	f.Add([]byte{4, 'x', 0x1f, 's', ':', 'y'}, []byte{4, 'z'}, []byte{4, 'x'}, []byte{4, 'y', 0x1f, 's', ':', 'z'})
	f.Add(num(3, math.Float64bits(math.NaN())), num(3, 0x7ff8000000000001), num(3, math.Float64bits(math.Inf(1))), num(3, 1<<63))
	f.Add([]byte{2, 2}, num(3, math.Float64bits(2)), []byte{4, '2'}, []byte{6, 2})
	f.Add([]byte{1, 1}, []byte{4, 't', 'r', 'u', 'e'}, []byte{0}, []byte{7})
	f.Add([]byte{4, '2', '0', '2', '4'}, []byte{5, '2', '0', '2', '4'}, []byte{4, 0x1f}, []byte{4, 0x1f, 0xff})
	f.Add(num(2, 1<<53+1), num(3, math.Float64bits(1<<53)), []byte{6, 0}, num(3, 1<<63))
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		vs := []Value{fuzzValue(a), fuzzValue(b), fuzzValue(c), fuzzValue(d)}
		for _, x := range vs {
			for _, y := range vs {
				xy, yx := Compare(x, y), Compare(y, x)
				if xy != -yx {
					t.Fatalf("Compare(%v %v, %v %v) = %d but the reverse is %d", x.Kind(), x, y.Kind(), y, xy, yx)
				}
				if eq := bytes.Equal(AppendKey(nil, x), AppendKey(nil, y)); (xy == 0) != eq {
					t.Fatalf("Compare(%v %v, %v %v) = %d, equal keys %v", x.Kind(), x, y.Kind(), y, xy, eq)
				}
				for _, z := range vs {
					if xy <= 0 && Compare(y, z) <= 0 && Compare(x, z) > 0 {
						t.Fatalf("%v %v <= %v %v <= %v %v, but the first > the last", x.Kind(), x, y.Kind(), y, z.Kind(), z)
					}
				}
			}
		}
		rowKey := func(row ...Value) []byte {
			var k []byte
			for _, v := range row {
				k = AppendKey(k, v)
			}
			return k
		}
		rows := [][]Value{{vs[0], vs[1]}, {vs[2], vs[3]}, {vs[0]}, {vs[2]}, {vs[1], vs[0], vs[3]}, {}}
		for _, r := range rows {
			for _, q := range rows {
				same := len(r) == len(q)
				for i := 0; same && i < len(r); i++ {
					same = Equal(r[i], q[i])
				}
				if eq := bytes.Equal(rowKey(r...), rowKey(q...)); eq != same {
					t.Fatalf("rows %v and %v: equal cell by cell %v, equal keys %v", r, q, same, eq)
				}
			}
		}
	})
}
