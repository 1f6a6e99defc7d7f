package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVnodes is the virtual-node count per member when NewRing is given
// zero. 64 points per member keeps the load spread within a few percent of
// uniform for small clusters while the ring stays tiny (a few KB).
const DefaultVnodes = 64

// lookupProbes is the number of hash probes Owner tries per key, keeping
// the member whose ring point follows a probe most closely. Single-probe
// lookup inherits the exponential arc-length variance of the point
// placement (relative load spread ~1/sqrt(vnodes), ~12% at 64 — outside
// the 15%-of-uniform bound the cluster tests demand); multi-probe lookup
// biases keys toward short arcs, flattening the spread to a few percent at
// the same point count.
const lookupProbes = 16

// Ring is a consistent-hash ring mapping fleet IDs to member names. Each
// member contributes vnodes points placed by a deterministic FNV-based
// hash, so the same member list always produces the same placement — a
// router restart, or a second router in front of the same backends, routes
// every fleet identically. A member list with one member more or fewer
// moves only fleets to or from that member (~1/N of the keyspace);
// everything else stays put, which is what keeps per-fleet window state
// pinned through topology edits. (Removing points only lengthens probe
// distances, so a key whose winning point survives keeps it; adding points
// only shortens them, so a key moves only when the new member's point wins.)
//
// All methods are safe for concurrent use; lookups take a read lock only.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]bool
	points  []ringPoint // sorted by (hash, member)
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing creates an empty ring with the given virtual-node count per
// member (DefaultVnodes when <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// Add inserts a member; adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(member, i), member: member})
	}
	sortPoints(r.points)
}

// Owner maps a fleet ID to the member owning it. Each of lookupProbes
// derived hashes finds its clockwise-next ring point; the point closest to
// its probe wins, ties going to the earliest probe so placement is a pure
// function of the member set. ok is false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	base := keyHash(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	bestDist := ^uint64(0)
	for j := 0; j < lookupProbes; j++ {
		h := mix64(base + uint64(j)*0x9e3779b97f4a7c15)
		i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
		if i == len(r.points) {
			i = 0
		}
		// Unsigned subtraction wraps, giving the clockwise distance even
		// across the top of the ring.
		if d := r.points[i].hash - h; d < bestDist {
			bestDist = d
			member = r.points[i].member
		}
	}
	return member, true
}

// sortPoints orders the ring by hash, breaking the (astronomically rare)
// hash tie by member name so placement stays deterministic regardless of
// insertion order.
func sortPoints(points []ringPoint) {
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].member < points[j].member
	})
}

// keyHash places a fleet ID on the ring: FNV-64a for byte mixing, then a
// splitmix64-style finalizer. Raw FNV of short similar strings (fleet-1,
// fleet-2, ...) leaves the low bits correlated, which clusters the ring
// points; the finalizer's avalanche spreads them uniformly, which is what
// the 15%-of-uniform balance bound in the tests depends on.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// vnodeHash places virtual node i of a member.
func vnodeHash(member string, i int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(member))
	_, _ = h.Write([]byte{'#'})
	_, _ = h.Write([]byte(strconv.Itoa(i)))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
