// Package vector implements the integer vectors and the vector order of
// Equation (2) of the paper:
//
//	u < v  ⟺  (∀k: u[k] ≤ v[k]) ∧ (∃j: u[j] < v[j])
//
// Vectors of different lengths are never comparable; all algorithms in this
// repository produce fixed-length vectors per computation (a property the
// paper highlights against variable-length schemes in Section 6).
package vector

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// V is a logical-clock vector. Components count messages, so int is ample.
type V []int

// New returns a zero vector with d components.
func New(d int) V {
	if d < 0 {
		panic(fmt.Sprintf("vector: negative dimension %d", d))
	}
	return make(V, d)
}

// Clone returns an independent copy of v.
func (v V) Clone() V {
	c := make(V, len(v))
	copy(c, v)
	return c
}

// Ordering is the result of comparing two vectors.
type Ordering int

// Comparison outcomes. Incomparable corresponds to concurrency (‖).
const (
	Equal Ordering = iota
	Before
	After
	Incomparable
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Incomparable:
		return "incomparable"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Compare classifies u against w. Vectors of different lengths are
// Incomparable by definition.
func Compare(u, w V) Ordering {
	if len(u) != len(w) {
		return Incomparable
	}
	less, greater := false, false
	for k := range u {
		switch {
		case u[k] < w[k]:
			less = true
		case u[k] > w[k]:
			greater = true
		}
		if less && greater {
			return Incomparable
		}
	}
	switch {
	case less && !greater:
		return Before
	case greater && !less:
		return After
	default:
		return Equal
	}
}

// Less reports u < w in the vector order of Equation (2).
func Less(u, w V) bool { return Compare(u, w) == Before }

// Leq reports u ≤ w (componentwise ≤, equality allowed). Vectors of
// different lengths are incomparable, so neither is ≤ the other. It stops
// at the first component where u exceeds w.
func Leq(u, w V) bool {
	if len(u) != len(w) {
		return false
	}
	for k := range u {
		if u[k] > w[k] {
			return false
		}
	}
	return true
}

// Concurrent reports that u and w are incomparable (u ‖ w).
func Concurrent(u, w V) bool { return Compare(u, w) == Incomparable }

// Eq reports componentwise equality.
func Eq(u, w V) bool { return Compare(u, w) == Equal }

// Max sets v to the componentwise maximum of v and w (line (5)/(9) of the
// online algorithm). The lengths must match.
func (v V) Max(w V) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vector: length mismatch %d vs %d", len(v), len(w)))
	}
	for k := range v {
		if w[k] > v[k] {
			v[k] = w[k]
		}
	}
}

// MaxTrunc sets v[k] to the maximum of v[k] and w[k] on the components the
// two vectors share (k < min(len(v), len(w))), leaving the rest of v
// untouched. It is the merge for vectors of different generations — e.g. a
// chain clock padding a predecessor's shorter stamp into a wider current
// vector — where Max's equal-length contract does not apply.
func (v V) MaxTrunc(w V) {
	n := len(v)
	if len(w) < n {
		n = len(w)
	}
	for k := 0; k < n; k++ {
		if w[k] > v[k] {
			v[k] = w[k]
		}
	}
}

// Diff returns the number of components in which u and w differ — the entry
// count a Singhal–Kshemkalyani differential piggyback would carry. The
// lengths must match.
func Diff(u, w V) int {
	if len(u) != len(w) {
		panic(fmt.Sprintf("vector: length mismatch %d vs %d", len(u), len(w)))
	}
	n := 0
	for k := range u {
		if u[k] != w[k] {
			n++
		}
	}
	return n
}

// EncodedSize returns the number of bytes needed to piggyback v using
// unsigned varints — the message-overhead metric of experiment E13.
func (v V) EncodedSize() int {
	var buf [binary.MaxVarintLen64]byte
	n := 0
	for _, x := range v {
		n += binary.PutUvarint(buf[:], uint64(x))
	}
	return n
}

// String renders the vector as "(1,0,2)".
func (v V) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for k, x := range v {
		if k > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte(')')
	return b.String()
}
