package vector

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZero(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("len = %d", len(v))
	}
	for _, x := range v {
		if x != 0 {
			t.Fatal("New must return a zero vector")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestCompareCases(t *testing.T) {
	cases := []struct {
		name string
		u, w V
		want Ordering
	}{
		{"equal", V{1, 2}, V{1, 2}, Equal},
		{"before strict all", V{0, 1}, V{1, 2}, Before},
		{"before one equal", V{1, 1}, V{1, 2}, Before},
		{"after", V{3, 2}, V{1, 2}, After},
		{"incomparable", V{1, 0}, V{0, 1}, Incomparable},
		{"length mismatch", V{1}, V{1, 2}, Incomparable},
		{"empty equal", V{}, V{}, Equal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Compare(tc.u, tc.w); got != tc.want {
				t.Fatalf("Compare = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPredicateHelpers(t *testing.T) {
	u, w := V{1, 1}, V{1, 2}
	if !Less(u, w) || Less(w, u) || Less(u, u) {
		t.Fatal("Less wrong")
	}
	if !Leq(u, w) || !Leq(u, u) || Leq(w, u) {
		t.Fatal("Leq wrong")
	}
	if !Concurrent(V{1, 0}, V{0, 1}) || Concurrent(u, w) {
		t.Fatal("Concurrent wrong")
	}
	if !Eq(u, u.Clone()) || Eq(u, w) {
		t.Fatal("Eq wrong")
	}
}

func TestMax(t *testing.T) {
	v := V{1, 5, 0}
	v.Max(V{3, 2, 0})
	want := V{3, 5, 0}
	for k := range want {
		if v[k] != want[k] {
			t.Fatalf("Max = %v, want %v", v, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Max with mismatched lengths did not panic")
		}
	}()
	v.Max(V{1})
}

func TestCloneIndependent(t *testing.T) {
	v := V{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestEncodedSizeGrowsWithValues(t *testing.T) {
	small := V{1, 1, 1}
	big := V{1 << 20, 1 << 20, 1 << 20}
	if small.EncodedSize() >= big.EncodedSize() {
		t.Fatal("EncodedSize should grow with component magnitude")
	}
	if New(0).EncodedSize() != 0 {
		t.Fatal("empty vector should have size 0")
	}
}

func TestString(t *testing.T) {
	if got := (V{1, 0, 2}).String(); got != "(1,0,2)" {
		t.Fatalf("String = %q", got)
	}
	if got := (V{}).String(); got != "()" {
		t.Fatalf("String = %q", got)
	}
	if Before.String() != "before" || Incomparable.String() != "incomparable" ||
		After.String() != "after" || Equal.String() != "equal" {
		t.Fatal("Ordering.String wrong")
	}
}

// Property: Compare is antisymmetric (Before/After swap under argument
// swap) and Max produces an upper bound of both arguments.
func TestQuickCompareMaxLaws(t *testing.T) {
	gen := func(rng *rand.Rand, d int) V {
		v := New(d)
		for k := range v {
			v[k] = rng.Intn(5)
		}
		return v
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		u, w := gen(rng, d), gen(rng, d)
		cu, cw := Compare(u, w), Compare(w, u)
		okSym := (cu == Before && cw == After) ||
			(cu == After && cw == Before) ||
			(cu == Equal && cw == Equal) ||
			(cu == Incomparable && cw == Incomparable)
		if !okSym {
			return false
		}
		m := u.Clone()
		m.Max(w)
		return Leq(u, m) && Leq(w, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
