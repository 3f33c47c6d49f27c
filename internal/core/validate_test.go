package core

import (
	"strings"
	"testing"

	"continuum/internal/node"
)

// TestValidateCases covers the topologies the linear reachability check
// must get right. A failing case must name a pair that really cannot
// route.
func TestValidateCases(t *testing.T) {
	spec := node.Catalog()["gateway"]
	build := func(names ...string) (*Continuum, map[string]int) {
		c := New()
		ids := make(map[string]int)
		for _, name := range names {
			s := spec
			s.Name = name
			ids[name] = c.AddNode(s).ID
		}
		return c, ids
	}
	cases := []struct {
		name    string
		make    func() *Continuum
		wantErr string // "" means the continuum is valid
	}{
		{"empty", func() *Continuum { return New() }, ""},
		{"single node", func() *Continuum { c, _ := build("a"); return c }, ""},
		{"one-way a to b", func() *Continuum {
			c, id := build("a", "b")
			c.Net.AddLink(id["a"], id["b"], 0.001, 1e9)
			return c
		}, "b cannot reach a"},
		{"one-way b to a", func() *Continuum {
			c, id := build("a", "b")
			c.Net.AddLink(id["b"], id["a"], 0.001, 1e9)
			return c
		}, "a cannot reach b"},
		{"joined through a junction", func() *Continuum {
			c, id := build("a", "b")
			j := c.AddVertex()
			c.Connect(id["a"], j, 0.001, 1e9)
			c.Connect(j, id["b"], 0, 1e9)
			return c
		}, ""},
		{"junction with a one-way exit", func() *Continuum {
			c, id := build("a", "b", "c")
			j := c.AddVertex()
			c.Connect(id["a"], j, 0.001, 1e9)
			c.Connect(id["b"], j, 0.001, 1e9)
			c.Net.AddLink(j, id["c"], 0.001, 1e9)
			return c
		}, "c cannot reach a"},
		{"directed ring", func() *Continuum {
			c, id := build("a", "b", "c")
			c.Net.AddLink(id["a"], id["b"], 0.001, 1e9)
			c.Net.AddLink(id["b"], id["c"], 0.001, 1e9)
			c.Net.AddLink(id["c"], id["a"], 0.001, 1e9)
			return c
		}, ""},
		{"two islands", func() *Continuum {
			c, id := build("a", "b", "c", "d")
			c.Connect(id["a"], id["b"], 0.001, 1e9)
			c.Connect(id["c"], id["d"], 0.001, 1e9)
			return c
		}, "a cannot reach c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.make()
			err := c.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid continuum rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want an error naming %q", err, tc.wantErr)
			}
			from, to, _ := strings.Cut(tc.wantErr, " cannot reach ")
			if _, perr := c.Net.Path(c.NodeByName(from).ID, c.NodeByName(to).ID); perr == nil {
				t.Fatalf("Validate named %s -> %s, but Path routes it", from, to)
			}
		})
	}
}
