package table

import (
	"hash/maphash"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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
	if KeyFloat(math.Copysign(0, -1)) != 0 || math.Signbit(KeyFloat(math.Copysign(0, -1))) {
		t.Error("KeyFloat keeps the sign of −0")
	}
	if KeyFloat(-1.5) != -1.5 {
		t.Error("KeyFloat changes a non-zero number")
	}
}

// TestKeyIffCompareEqual is the property hash joins, GROUP BY and
// DISTINCT rest on: two values share a Key exactly when Compare calls
// them equal. The pool crosses every kind, NULLs of each type, ±0, ±Inf,
// int against float (2^53 + 1 rounds onto 2^53) and strings against
// dates, in pairs drawn often enough to collide. Two cases are left out
// on purpose, both open questions of the independent-oracle item in
// ROADMAP.md: NaN, which Compare ties with every number, so no key can
// agree with it; and a string whose text is a number's or a bool's
// rendering, which Compare's rendered-string fallback ties with that
// number or bool while the number ties with others the string does not.
func TestKeyIffCompareEqual(t *testing.T) {
	pool := []Value{
		Null(TypeInt), Null(TypeFloat), Null(TypeString), Null(TypeBool), Null(TypeDate),
		I(0), I(-1), I(2), I(1 << 53), I(1<<53 + 1),
		F(0), F(math.Copysign(0, -1)), F(-1), F(2), F(1.5), F(-1.5), F(1 << 53),
		F(math.Inf(1)), F(math.Inf(-1)), F(1e300),
		S(""), S("a"), S("b"), S("ab"), S("2024-01-01"),
		D("2024-01-01"), D("2024-01-02"), D("a"),
		B(true), B(false),
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if eq, same := Compare(a, b) == 0, a.Key() == b.Key(); eq != same {
			t.Fatalf("Compare(%v %v, %v %v) == 0 is %v, equal keys %v (%q, %q)",
				a.Kind(), a, b.Kind(), b, eq, same, a.Key(), b.Key())
		}
	}
}

// SameKey is Key equality without the strings, and HashKey agrees with
// it: over every pair of a pool that crosses NaN payloads, ±0, int
// against float, numbers and bools against strings of their rendering,
// strings against dates of the same text and NULLs of every kind,
// SameKey holds exactly when the Keys are equal, equal keys hash equal,
// and, on this pool, different keys hash different.
func TestSameKeyIffKeyEqual(t *testing.T) {
	pool := []Value{
		Null(TypeInt), Null(TypeFloat), Null(TypeString), Null(TypeBool), Null(TypeDate),
		I(0), I(2), I(-1), I(1 << 53), I(1<<53 + 1),
		F(0), F(math.Copysign(0, -1)), F(2), F(-1), F(1 << 53), F(1.5),
		F(math.NaN()), F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff8000000000000)),
		F(math.Inf(1)), F(math.Inf(-1)),
		S(""), S("2"), S("n:2"), S("true"), S("\x00null"), S("x"), S("x\x1fs:y"), S("2024-01-01"),
		D("2024-01-01"), D("x"), D(""),
		B(true), B(false),
	}
	seed := maphash.MakeSeed()
	hash := func(v Value) uint64 {
		var h maphash.Hash
		h.SetSeed(seed)
		v.HashKey(&h)
		return h.Sum64()
	}
	for _, a := range pool {
		for _, b := range pool {
			same, keyEq, hashEq := SameKey(a, b), a.Key() == b.Key(), hash(a) == hash(b)
			if same != keyEq || hashEq != keyEq {
				t.Errorf("%v %v, %v %v: SameKey %v, equal keys %v (%q, %q), equal hashes %v",
					a.Kind(), a, b.Kind(), b, same, keyEq, a.Key(), b.Key(), hashEq)
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
