package decomp

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadText checks the decomposition parser never panics and that
// accepted decompositions round-trip through WriteText. Decompositions
// arrive from files (tsnode -decomp, tsstamp -decomp) and inside event
// files' meta records, so every input must parse or fail with an error.
func FuzzReadText(f *testing.F) {
	f.Add("n 3\nstar 0 0 1 0 2\n")
	f.Add("# K3\nn 3\ntriangle 2 0 1\n")
	f.Add("n 4\nstar 1 0 1 1 2\ntriangle 1 2 3\n")
	f.Add("n 0\n")
	f.Add("n 3\nstar 0 1 1\n")
	f.Add("n 3\ntriangle 0 0 1\n")
	f.Add("n 3\nstar 0 -1 2\n")
	f.Add("n 3\ntriangle 0 -1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		// New builds an n-vertex graph per group, so a mutated vertex count
		// could ask for gigabytes; the parser's checks need no large n.
		for _, w := range strings.Fields(in) {
			if v, err := strconv.Atoi(w); err == nil && v > 1<<10 {
				return
			}
		}
		d, err := ReadText(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := WriteText(&b, d); err != nil {
			t.Fatalf("WriteText failed: %v", err)
		}
		back, err := ReadText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", b.String(), err)
		}
		if back.N() != d.N() || !reflect.DeepEqual(back.Groups(), d.Groups()) {
			t.Fatalf("round trip changed the decomposition:\n%s\nread back as\n%v", b.String(), back.Groups())
		}
	})
}
