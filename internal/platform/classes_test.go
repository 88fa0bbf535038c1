package platform

import (
	"testing"

	"repro/internal/energy"
)

func classList(counts []int) []MachineClass {
	profiles := []energy.Profile{energy.DefaultProfile(), energy.EfficiencyProfile()}
	out := make([]MachineClass, len(counts))
	for i, c := range counts {
		out[i] = MachineClass{Count: c, Power: profiles[i%len(profiles)]}
	}
	return out
}

func TestValidateClassPartitions(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		counts []int
		ok     bool
	}{
		{"no classes", 8, nil, true},
		{"exact cover", 8, []int{4, 4}, true},
		{"under cover", 8, []int{2, 2}, true},
		{"zero count class", 8, []int{4, 0, 4}, true},
		{"over cover", 8, []int{6, 6}, false},
		{"negative count", 8, []int{-1, 4}, false},
		{"single class over", 4, []int{5}, false},
		{"no nodes", 0, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Marenostrum3()
			cfg.Nodes = tc.nodes
			cfg.Classes = classList(tc.counts)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want ok", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() accepted an invalid partition")
			}
		})
	}
}

func TestValidateRejectsEmptyClassProfile(t *testing.T) {
	cfg := Marenostrum3()
	cfg.Nodes = 4
	cfg.Classes = []MachineClass{{Count: 2}} // zero-value profile: no P-states
	if cfg.Validate() == nil {
		t.Fatal("Validate() accepted a class with no P-states")
	}
}

// FuzzClassesPartition drives Config.Classes with arbitrary partitions
// and checks the Validate/New contract: every configuration either fails
// Validate or builds a cluster whose per-node profiles follow the
// declared prefix partition exactly, with leftovers on the base profile.
func FuzzClassesPartition(f *testing.F) {
	f.Add(8, 4, 4, -100)
	f.Add(8, 0, 8, -100)
	f.Add(8, 9, 0, -100)
	f.Add(8, -1, 4, -100)
	f.Add(1, 0, 0, 0)
	f.Add(65, 32, 33, -100)
	f.Fuzz(func(t *testing.T, nodes, c0, c1, c2 int) {
		if nodes < 0 || nodes > 512 {
			t.Skip()
		}
		counts := []int{c0, c1}
		if c2 != -100 { // sentinel: two-class case
			counts = append(counts, c2)
		}
		cfg := Marenostrum3()
		cfg.Nodes = nodes
		cfg.Classes = classList(counts)
		if err := cfg.Validate(); err != nil {
			// Invalid partitions must never build silently.
			defer func() {
				if recover() == nil {
					t.Fatalf("New() accepted a config Validate rejected: %v", err)
				}
			}()
			New(cfg)
			return
		}
		cl := New(cfg)
		if len(cl.Nodes) != nodes {
			t.Fatalf("built %d nodes, want %d", len(cl.Nodes), nodes)
		}
		// Replay the declared partition and compare per-node classes.
		idx := 0
		for ci, mc := range cfg.Classes {
			for k := 0; k < mc.Count; k++ {
				if got := cl.Nodes[idx].Class(); got != mc.Power.Class {
					t.Fatalf("node %d class %q, want class %d (%q)", idx, got, ci, mc.Power.Class)
				}
				idx++
			}
		}
		base := cfg.Power
		if len(base.PStates) == 0 {
			base = energy.DefaultProfile()
		}
		for ; idx < nodes; idx++ {
			if got := cl.Nodes[idx].Class(); got != base.Class {
				t.Fatalf("leftover node %d class %q, want base %q", idx, got, base.Class)
			}
		}
		// ClassCount's construction-time tally matches a scan of the fleet.
		for _, class := range []string{energy.DefaultProfile().Class, energy.EfficiencyProfile().Class, "no-such-class"} {
			want := 0
			for _, nd := range cl.Nodes {
				if nd.Class() == class {
					want++
				}
			}
			if got := cl.ClassCount(class); got != want {
				t.Fatalf("ClassCount(%q) = %d, want %d", class, got, want)
			}
		}
	})
}
