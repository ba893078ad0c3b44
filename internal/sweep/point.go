package sweep

import (
	"sort"

	"github.com/maps-sim/mapsim/internal/metacache"
	"github.com/maps-sim/mapsim/internal/results"
	"github.com/maps-sim/mapsim/internal/sim"
)

// PointResult pairs a grid point with its simulation result.
type PointResult struct {
	Point
	// Result is the point's simulation output; treat it as shared and
	// immutable when Cached.
	Result *sim.Result `json:"result"`
	// Cached marks a point served from the results cache without
	// re-simulating.
	Cached bool `json:"cached,omitempty"`
	// Worker names the fleet worker that executed the point ("local"
	// for this process's own pool); empty for cached points.
	Worker string `json:"worker,omitempty"`
}

// CacheNames maps a point's normalized policy/partition names to the
// form results.PointKeyFor wants: empty for the defaults, so default
// points share cache entries with plain run jobs. The fleet
// coordinator and the remote-worker adapter use the same mapping, so
// one grid point has one content address everywhere in the fleet.
func CacheNames(p Point) (string, string) {
	pol, part := p.Policy, p.Partition
	if pol == DefaultPolicy {
		pol = ""
	}
	if part == DefaultPartition {
		part = ""
	}
	return pol, part
}

// PointKey is the point's result-store content address: its config
// keyed by results.PointKeyFor under CacheNames' names. The fleet
// coordinator and mapsd's sweep handler both key points through it.
func PointKey(p Point) (results.Key, error) {
	pol, part := CacheNames(p)
	return results.PointKeyFor(p.Config, pol, part)
}

// Instantiate materializes a point's runnable sim.Config: fresh
// replacement-policy and partition-scheme instances (they are
// stateful, so concurrent points must never share them) over a copied
// Meta the simulator can't alias back into the spec. Every executor —
// the fleet's pool runner and a worker daemon running a dispatched
// point — builds its config through this one path, which is what keeps
// fleet results bit-identical to local ones.
func Instantiate(p Point) (sim.Config, error) {
	cfg := p.Config
	if cfg.Meta != nil && (p.Policy != "" && p.Policy != DefaultPolicy ||
		p.Partition != "" && p.Partition != DefaultPartition) {
		mc := *cfg.Meta
		pol, err := NewPolicy(p.Policy)
		if err != nil {
			return sim.Config{}, err
		}
		part, err := NewPartition(p.Partition)
		if err != nil {
			return sim.Config{}, err
		}
		mc.Policy = pol
		mc.Partition = part
		cfg.Meta = &mc
	} else if cfg.Meta != nil {
		mc := *cfg.Meta // never let the simulator share the spec's Meta
		cfg.Meta = &mc
	}
	return cfg, nil
}

// MaxGroup caps a run group's members, so the back ends (engine,
// metadata cache, DRAM) alive at once stay bounded.
const MaxGroup = 16

// Groups partitions points into run groups: points whose configs
// share a front (sim.FrontOf) simulate it once, as one sim.RunGroup.
// The n points sharing a front split into near-equal groups of at
// most min(MaxGroup, ceil(n/slots)) members, where slots is the
// number of dispatch slots that will run them, so the groups still
// keep every slot busy. slots counts as at least two: a group reports
// nothing until all its members finish, so even a one-slot sweep
// completes a front in two steps and a restart or cancellation
// midway keeps half its work. Points without a front identity form
// groups of one. Groups are ordered by their first point, members by
// grid order. The fleet coordinator and the experiments both group
// through this one rule.
func Groups(points []Point, slots int) [][]Point {
	slots = max(slots, 2)
	var fronts []sim.Front
	byFront := make(map[sim.Front][]Point)
	var groups [][]Point
	for _, p := range points {
		f, ok := sim.FrontOf(p.Config)
		if !ok {
			groups = append(groups, []Point{p})
			continue
		}
		if _, seen := byFront[f]; !seen {
			fronts = append(fronts, f)
		}
		byFront[f] = append(byFront[f], p)
	}
	for _, f := range fronts {
		pts := byFront[f]
		size := min(MaxGroup, (len(pts)+slots-1)/slots)
		n := (len(pts) + size - 1) / size
		for i := 0; i < n; i++ {
			// Near-equal split: group i takes points [i*len/n, (i+1)*len/n).
			groups = append(groups, pts[i*len(pts)/n:(i+1)*len(pts)/n])
		}
	}
	sort.SliceStable(groups, func(i, k int) bool { return groups[i][0].Index < groups[k][0].Index })
	return groups
}

// contentLabel names a point's effective content policy even when the
// axis was absent (falling back to the materialized config).
func contentLabel(p Point) string {
	if p.Content != "" {
		return p.Content
	}
	if p.Config.Meta != nil {
		return p.Config.Meta.Content.String()
	}
	return metacache.AllTypes.String()
}
