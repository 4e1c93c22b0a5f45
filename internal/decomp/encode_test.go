package decomp

import (
	"math/rand"
	"strings"
	"testing"

	"syncstamp/internal/graph"
)

func TestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		g := graph.RandomGnp(2+rng.Intn(10), 0.6, rng)
		d := Approximate(g)
		var b strings.Builder
		if err := WriteText(&b, d); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		got, err := ReadText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ReadText: %v\ninput:\n%s", err, b.String())
		}
		if got.D() != d.D() || got.N() != d.N() {
			t.Fatalf("round trip d=%d n=%d, want d=%d n=%d", got.D(), got.N(), d.D(), d.N())
		}
		for gi, grp := range d.Groups() {
			for _, e := range grp.Edges {
				gotGi, ok := got.GroupOf(e.U, e.V)
				if !ok || gotGi != gi {
					t.Fatalf("edge %v: group %d,%v, want %d", e, gotGi, ok, gi)
				}
			}
		}
	}
}

// TestReadTextErrors feeds the parser input it must refuse. Where want is
// set, the error must contain it: the four edge cases name their line, and
// used to panic in graph.NewEdge.
func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"missing n", "star 0 0 1\n", ""},
		{"duplicate n", "n 3\nn 3\n", ""},
		{"bad n", "n x\n", ""},
		{"group before n", "star 0 0 1\nn 3\n", ""},
		{"star arity", "n 3\nstar 0 1\n", ""},
		{"star bad number", "n 3\nstar 0 0 z\n", ""},
		{"triangle arity", "n 3\ntriangle 0 1\n", ""},
		{"triangle bad number", "n 3\ntriangle 0 1 q\n", ""},
		{"unknown directive", "n 3\nblob 1\n", ""},
		{"invalid star shape", "n 4\nstar 0 0 1 2 3\n", ""},
		{"empty", "\n", ""},
		{"star self-loop", "n 3\nstar 0 1 1\n", "line 2"},
		{"triangle self-loop", "n 3\ntriangle 0 0 1\n", "line 2"},
		{"star negative vertex", "n 3\nstar 0 -1 2\n", "line 2"},
		{"triangle negative vertex", "n 3\ntriangle 0 -1 2\n", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadText(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReadText(%q): err = %v, want one containing %q", tc.in, err, tc.want)
			}
		})
	}
}

func TestReadTextTriangle(t *testing.T) {
	d, err := ReadText(strings.NewReader("# K3\nn 3\ntriangle 2 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.D() != 1 || d.Triangles() != 1 {
		t.Fatalf("d=%d triangles=%d", d.D(), d.Triangles())
	}
	if d.Groups()[0].Tri != [3]int{0, 1, 2} {
		t.Fatalf("Tri = %v, want normalized (0,1,2)", d.Groups()[0].Tri)
	}
}

func TestStringRendering(t *testing.T) {
	d := MustNew(4, []Group{
		starGroup(0, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}),
		triangleGroup(1, 2, 3),
	})
	s := d.String()
	for _, want := range []string{"E1=star@0{(0,1) (0,2)}", "E2=triangle(1,2,3)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if KindStar.String() != "star" || KindTriangle.String() != "triangle" {
		t.Fatal("Kind.String wrong")
	}
	if StepPendant.String() != "step1" || StepTriangle.String() != "step2" || StepSplit.String() != "step3" {
		t.Fatal("StepKind.String wrong")
	}
}
