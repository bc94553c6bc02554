package relation

import (
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Fatal("zero Value must be null")
	}
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{String("NY"), KindString, "NY"},
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Null, KindNull, "null"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: String %q, want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestCompareNullLowest(t *testing.T) {
	vals := []Value{String("a"), Int(-5), Float(0.1), String("")}
	for _, v := range vals {
		if Compare(Null, v) != -1 {
			t.Errorf("null should compare below %v", v)
		}
		if Compare(v, Null) != 1 {
			t.Errorf("%v should compare above null", v)
		}
	}
	if Compare(Null, Null) != 0 {
		t.Error("null == null")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 == 2.0 across kinds")
	}
	if Compare(Int(2), Float(2.5)) != -1 {
		t.Error("2 < 2.5")
	}
	if Compare(Float(3.5), Int(3)) != 1 {
		t.Error("3.5 > 3")
	}
}

func TestCompareStrings(t *testing.T) {
	if Compare(String("abc"), String("abd")) >= 0 {
		t.Error("abc < abd")
	}
	if !Equal(String("x"), String("x")) {
		t.Error("equal strings")
	}
}

func TestCompareAntisymmetryQuick(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	vals := []Value{Null, String("hello world"), String("with \"quotes\""), Int(-7), Float(3.25)}
	for _, v := range vals {
		got, err := ParseValue(v.Quote())
		if err != nil {
			t.Fatalf("parse %q: %v", v.Quote(), err)
		}
		if !Equal(got, v) {
			t.Fatalf("round-trip %v -> %q -> %v", v, v.Quote(), got)
		}
	}
}

func TestAppendQuoteMatchesQuote(t *testing.T) {
	vals := []Value{Null, String(""), String("hello world"), String("with \"quotes\"\n"),
		Int(0), Int(-7), Float(3.25), Float(1e21), Float(-0.5), {kind: Kind(9)}}
	for _, v := range vals {
		if got := string(v.AppendQuote([]byte("x"))); got != "x"+v.Quote() {
			t.Errorf("AppendQuote(%v) = %q, want %q", v, got, "x"+v.Quote())
		}
	}
}

func TestParseValueBareWord(t *testing.T) {
	v, err := ParseValue("NY")
	if err != nil || v.Kind() != KindString || v.Str() != "NY" {
		t.Fatalf("bare word: got %v err %v", v, err)
	}
	if _, err := ParseValue("  "); err == nil {
		t.Fatal("whitespace-only literal must fail")
	}
}

func TestSchemaBasics(t *testing.T) {
	s, err := NewSchema("name", "status", "city")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	a, ok := s.Attr("status")
	if !ok || s.Name(a) != "status" {
		t.Fatal("Attr lookup broken")
	}
	if _, ok := s.Attr("missing"); ok {
		t.Fatal("missing attr should not resolve")
	}
	if got := s.String(); got != "R(name, status, city)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatal("empty schema must fail")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Fatal("duplicate attr must fail")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Fatal("empty attr name must fail")
	}
}

func TestInstanceActiveDomain(t *testing.T) {
	s := MustSchema("city", "AC")
	in := NewInstance(s)
	in.MustAdd(Tuple{String("NY"), String("212")})
	in.MustAdd(Tuple{String("SFC"), String("415")})
	in.MustAdd(Tuple{String("NY"), String("213")})
	city := s.MustAttr("city")
	dom := in.ActiveDomain(city)
	if len(dom) != 2 {
		t.Fatalf("adom(city) = %v, want 2 values", dom)
	}
	if in.ActiveDomainSize(city) != 2 {
		t.Fatal("ActiveDomainSize mismatch")
	}
	if !in.HasConflict(city) {
		t.Fatal("city has conflicting values")
	}
	ac := s.MustAttr("AC")
	if got := in.ActiveDomainSize(ac); got != 3 {
		t.Fatalf("adom(AC) size = %d", got)
	}
}

func TestInstanceAddArity(t *testing.T) {
	s := MustSchema("a", "b")
	in := NewInstance(s)
	if _, err := in.Add(Tuple{Int(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

func TestInstanceCloneIsDeep(t *testing.T) {
	s := MustSchema("a")
	in := NewInstance(s)
	id := in.MustAdd(Tuple{Int(1)})
	cp := in.Clone()
	cp.Tuple(id)[0] = Int(99)
	if in.Value(id, 0).Int64() != 1 {
		t.Fatal("Clone must deep-copy tuples")
	}
}

func TestConflictingAttrs(t *testing.T) {
	s := MustSchema("name", "kids")
	in := NewInstance(s)
	in.MustAdd(Tuple{String("Edith"), Int(0)})
	in.MustAdd(Tuple{String("Edith"), Int(3)})
	got := in.ConflictingAttrs()
	if len(got) != 1 || s.Name(got[0]) != "kids" {
		t.Fatalf("ConflictingAttrs = %v", got)
	}
}

func TestNullInActiveDomain(t *testing.T) {
	s := MustSchema("kids")
	in := NewInstance(s)
	in.MustAdd(Tuple{Int(0)})
	in.MustAdd(Tuple{Null})
	dom := in.ActiveDomain(0)
	if len(dom) != 2 {
		t.Fatalf("null must appear in the active domain: %v", dom)
	}
}

func TestTupleEqualAndString(t *testing.T) {
	a := Tuple{String("x"), Int(1)}
	b := Tuple{String("x"), Int(1)}
	if !a.Equal(b) {
		t.Fatal("equal tuples")
	}
	if a.Equal(Tuple{String("x")}) {
		t.Fatal("different arity not equal")
	}
	if a.String() != "(x, 1)" {
		t.Fatalf("String = %q", a.String())
	}
}
