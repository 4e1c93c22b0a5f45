package decomp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"syncstamp/internal/graph"
)

// WriteText serializes a decomposition in a line-oriented format:
//
//	n <vertices>
//	star <root> <u1> <v1> <u2> <v2> ...
//	triangle <x> <y> <z>
//
// Lines beginning with '#' are comments.
func WriteText(w io.Writer, d *Decomposition) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", d.N()); err != nil {
		return err
	}
	for _, g := range d.Groups() {
		switch g.Kind {
		case KindStar:
			if _, err := fmt.Fprintf(bw, "star %d", g.Root); err != nil {
				return err
			}
			for _, e := range g.Edges {
				if _, err := fmt.Fprintf(bw, " %d %d", e.U, e.V); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(bw); err != nil {
				return err
			}
		case KindTriangle:
			if _, err := fmt.Fprintf(bw, "triangle %d %d %d\n", g.Tri[0], g.Tri[1], g.Tri[2]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("decomp: cannot encode group kind %v", g.Kind)
		}
	}
	return bw.Flush()
}

// ReadText parses the format produced by WriteText.
func ReadText(r io.Reader) (*Decomposition, error) {
	sc := bufio.NewScanner(r)
	n := -1
	var groups []Group
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if n >= 0 {
				return nil, fmt.Errorf("decomp: line %d: duplicate n line", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("decomp: line %d: want \"n <count>\"", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("decomp: line %d: bad vertex count %q", line, fields[1])
			}
			n = v
		case "star":
			if n < 0 {
				return nil, fmt.Errorf("decomp: line %d: group before n line", line)
			}
			if len(fields) < 4 || len(fields)%2 != 0 {
				return nil, fmt.Errorf("decomp: line %d: want \"star <root> <u> <v> ...\"", line)
			}
			nums, err := atoiAll(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("decomp: line %d: %w", line, err)
			}
			root := nums[0]
			var edges []graph.Edge
			for i := 1; i+1 < len(nums); i += 2 {
				if nums[i] == nums[i+1] {
					return nil, fmt.Errorf("decomp: line %d: self-loop on vertex %d", line, nums[i])
				}
				edges = append(edges, graph.NewEdge(nums[i], nums[i+1]))
			}
			groups = append(groups, Group{Kind: KindStar, Root: root, Edges: edges})
		case "triangle":
			if n < 0 {
				return nil, fmt.Errorf("decomp: line %d: group before n line", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("decomp: line %d: want \"triangle <x> <y> <z>\"", line)
			}
			nums, err := atoiAll(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("decomp: line %d: %w", line, err)
			}
			if nums[0] == nums[1] || nums[0] == nums[2] || nums[1] == nums[2] {
				return nil, fmt.Errorf("decomp: line %d: triangle repeats a vertex", line)
			}
			groups = append(groups, triangleGroup(nums[0], nums[1], nums[2]))
		default:
			return nil, fmt.Errorf("decomp: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("decomp: read: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("decomp: missing n line")
	}
	return New(n, groups)
}

// atoiAll parses a group line's vertices, each a non-negative integer.
func atoiAll(fields []string) ([]int, error) {
	out := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad vertex %q", f)
		}
		out[i] = v
	}
	return out, nil
}
