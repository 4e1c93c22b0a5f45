package vector

import (
	"bytes"
	"testing"
)

// FuzzCompare checks comparison laws hold for arbitrary component values:
// antisymmetry of Before/After and consistency of the predicate helpers.
func FuzzCompare(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{5}, []byte{5})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) > 16 || len(b) > 16 {
			return
		}
		u := make(V, len(a))
		for i, x := range a {
			u[i] = int(x)
		}
		w := make(V, len(b))
		for i, x := range b {
			w[i] = int(x)
		}
		cu, cw := Compare(u, w), Compare(w, u)
		okSym := (cu == Before && cw == After) ||
			(cu == After && cw == Before) ||
			(cu == Equal && cw == Equal) ||
			(cu == Incomparable && cw == Incomparable)
		if !okSym {
			t.Fatalf("asymmetry violated: %v vs %v", cu, cw)
		}
		if Less(u, w) != (cu == Before) || Leq(u, w) != (cu == Before || cu == Equal) {
			t.Fatal("predicate helpers disagree with Compare")
		}
		if len(a) == len(b) && bytes.Equal(a, b) && cu != Equal {
			t.Fatal("equal byte vectors compare unequal")
		}
	})
}
