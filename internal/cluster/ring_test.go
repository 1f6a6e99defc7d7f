package cluster

import (
	"fmt"
	"testing"
)

// fleetIDs generates n synthetic fleet identifiers shaped like production
// ones: short, sequential, highly similar — the adversarial case for a weak
// placement hash.
func fleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("fleet-%04d", i)
	}
	return ids
}

func ringWith(vnodes int, members ...string) *Ring {
	r := NewRing(vnodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func ownerCounts(t *testing.T, r *Ring, ids []string) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, id := range ids {
		owner, ok := r.Owner(id)
		if !ok {
			t.Fatalf("no owner for %q", id)
		}
		counts[owner]++
	}
	return counts
}

// TestRingBalance is the distribution satellite: across 1k synthetic fleet
// IDs every backend's share stays within 15% of uniform at >= 64 vnodes.
func TestRingBalance(t *testing.T) {
	ids := fleetIDs(1000)
	for _, tc := range []struct {
		members int
		vnodes  int
	}{
		{2, 64}, {3, 64}, {3, 128}, {5, 64}, {8, 128},
	} {
		name := fmt.Sprintf("%dmembers_%dvnodes", tc.members, tc.vnodes)
		t.Run(name, func(t *testing.T) {
			members := make([]string, tc.members)
			for i := range members {
				members[i] = fmt.Sprintf("10.0.0.%d:7070", i+1)
			}
			counts := ownerCounts(t, ringWith(tc.vnodes, members...), ids)
			uniform := float64(len(ids)) / float64(tc.members)
			for _, m := range members {
				dev := (float64(counts[m]) - uniform) / uniform
				if dev < -0.15 || dev > 0.15 {
					t.Errorf("member %s owns %d fleets, %.1f%% from uniform %.0f (limit 15%%)",
						m, counts[m], 100*dev, uniform)
				}
			}
		})
	}
}

// TestRingRemapFraction pins the consistent-hashing contract: a ring with
// one member more or fewer remaps only ~1/N of the fleets, and every
// remapped fleet moves to or from the changed member — never between two
// unchanged ones.
func TestRingRemapFraction(t *testing.T) {
	ids := fleetIDs(1000)
	members := []string{"a:7070", "b:7070", "c:7070", "d:7070"}
	r := ringWith(128, members...)
	before := make(map[string]string, len(ids))
	for _, id := range ids {
		before[id], _ = r.Owner(id)
	}

	t.Run("add", func(t *testing.T) {
		r := ringWith(128, members...)
		r.Add("e:7070")
		moved := 0
		for _, id := range ids {
			after, _ := r.Owner(id)
			if after == before[id] {
				continue
			}
			moved++
			if after != "e:7070" {
				t.Errorf("fleet %s moved %s -> %s, neither the new member", id, before[id], after)
			}
		}
		// Ideal is 1/(N+1) = 20%; allow [10%, 35%].
		if frac := float64(moved) / float64(len(ids)); frac < 0.10 || frac > 0.35 {
			t.Errorf("adding 1 of 5 members remapped %.1f%% of fleets, want ~20%%", 100*frac)
		}
	})

	t.Run("remove", func(t *testing.T) {
		r := ringWith(128, "a:7070", "c:7070", "d:7070") // b:7070 gone
		moved := 0
		for _, id := range ids {
			after, _ := r.Owner(id)
			if after == before[id] {
				continue
			}
			moved++
			if before[id] != "b:7070" {
				t.Errorf("fleet %s moved %s -> %s though its owner stayed in the ring",
					id, before[id], after)
			}
		}
		// Ideal is 1/N = 25%; allow [12%, 40%].
		if frac := float64(moved) / float64(len(ids)); frac < 0.12 || frac > 0.40 {
			t.Errorf("removing 1 of 4 members remapped %.1f%% of fleets, want ~25%%", 100*frac)
		}
	})
}

// TestRingDeterminism: placement is a pure function of the member set, not
// of insertion order or ring instance.
func TestRingDeterminism(t *testing.T) {
	ids := fleetIDs(200)
	a := ringWith(64, "x:1", "y:2", "z:3")
	b := ringWith(64, "z:3", "x:1", "y:2")
	for _, id := range ids {
		oa, _ := a.Owner(id)
		ob, _ := b.Owner(id)
		if oa != ob {
			t.Fatalf("fleet %s: owner %s vs %s across insertion orders", id, oa, ob)
		}
	}
}

func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0) // defaults
	if _, ok := r.Owner("fleet"); ok {
		t.Fatal("empty ring returned an owner")
	}
	r.Add("only:7070")
	r.Add("only:7070") // idempotent
	if got := len(r.points); got != DefaultVnodes {
		t.Fatalf("points = %d, want %d from one member", got, DefaultVnodes)
	}
	owner, ok := r.Owner("fleet")
	if !ok || owner != "only:7070" {
		t.Fatalf("owner = %q/%v, want the sole member", owner, ok)
	}
}

func TestParseBackends(t *testing.T) {
	got, err := ParseBackends("10.0.0.1:7070=10.0.0.1:8080, 10.0.0.2:7070=10.0.0.2:8080")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Ingest != "10.0.0.1:7070" || got[0].HTTP != "10.0.0.1:8080" ||
		got[1].Name != "10.0.0.2:7070" {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{"", "  ", "a:1", "a:1=", "=b:2", "a:1=b:2,a:1=c:3"} {
		if _, err := ParseBackends(bad); err == nil {
			t.Errorf("ParseBackends(%q) accepted", bad)
		}
	}
}
