// Package plan is the learned cost-based access-path chooser for GET
// subtype queries. The server no longer uses it — every GET is the
// extent union, memoized per type generation in internal/index — and it
// is kept for E16 and the bench replay until ROADMAP 5 deletes the
// replay. It turns the two physical paths over index.Set —
//
//   - extent: union the maintained per-type extents whose type passes one
//     cached subtype check (index.Set.GetEntries);
//   - index:  walk a declared field index's candidate list, re-checking
//     each candidate (index.Set.Candidates) —
//
// into one choice per query, made by comparing estimated costs instead of
// fixed thresholds. The per-item cost of each path is *learned*: the
// server feeds every executed query's latency and item count back into a
// pair of telemetry histograms per path, and the model divides sum of
// latency by sum of items (one Histogram.Stat call each — two atomic
// loads, no snapshot). Until a path has enough observations the model
// falls back to measured priors, so a cold server still plans sanely.
// Observed selectivity (result size over database size) feeds a third
// histogram and sizes the extent path's merge estimate.
//
// The model never affects correctness: both paths return the same
// members (the quick-check property tests in this package and in
// internal/index prove it), so the worst a bad estimate can do is waste
// time.
package plan

import (
	"fmt"
	"time"

	"dbpl/internal/telemetry"
)

// Path is a physical access path for a GET query.
type Path uint8

const (
	PathExtent Path = iota
	PathIndex
	numPaths
)

// String returns the path's metric label.
func (p Path) String() string {
	switch p {
	case PathExtent:
		return "extent"
	case PathIndex:
		return "index"
	}
	return "unknown"
}

// Per-item priors in nanoseconds, used until a path has minObs observed
// items. Measured on the E11/E16 microbenchmarks (single-core container);
// the feedback loop overrides them as soon as real traffic exists, so
// only their *ordering* has to be roughly right.
const (
	priorExtentNs = 12.0 // emit one result item from a pre-merged extent
	priorIndexNs  = 30.0 // visit one candidate: re-check + emit
	checkNs       = 20.0 // one cached subtype verdict (per distinct type)

	// minObs is the observation floor before a learned cost replaces its
	// prior — below it the mean is noise.
	minObs = 32

	// defaultSelectivity sizes the extent merge before any query has
	// been observed.
	defaultSelectivity = 0.5

	// selScale stores selectivity observations as parts-per-million so
	// they fit the integer histogram.
	selScale = 1e6
)

// Model is the feedback-fed cost model. One Model serves one server; all
// methods are safe for concurrent use (the histograms are lock-free and
// the rest is immutable).
type Model struct {
	lat   [numPaths]*telemetry.Histogram // per-path latency (ns)
	items [numPaths]*telemetry.Histogram // per-path items handled
	sel   *telemetry.Histogram           // observed selectivity (ppm)
}

// NewModel registers the model's instrument set in reg (pre-resolved
// per-path series — path names are a closed set, no cardinality hazard)
// and returns the model.
func NewModel(reg *telemetry.Registry) *Model {
	m := &Model{}
	for p := PathExtent; p < numPaths; p++ {
		label := `{path="` + p.String() + `"}`
		m.lat[p] = reg.Histogram("dbpl_plan_path_seconds"+label,
			telemetry.UnitDuration, telemetry.DurationBuckets)
		m.items[p] = reg.Histogram("dbpl_plan_path_items"+label,
			telemetry.UnitCount, telemetry.SizeBuckets)
	}
	m.sel = reg.Histogram("dbpl_plan_selectivity_ppm",
		telemetry.UnitCount, telemetry.SizeBuckets)
	return m
}

// Observe feeds one executed GET back into the model: the path taken, its
// latency, the items it handled (result size for extent, candidates for
// index), and the query's result size against the database size (the
// selectivity sample).
func (m *Model) Observe(p Path, d time.Duration, items, result, n int) {
	if p >= numPaths {
		return
	}
	m.lat[p].ObserveDuration(d)
	m.items[p].Observe(int64(items))
	if n > 0 {
		m.sel.Observe(int64(float64(result) / float64(n) * selScale))
	}
}

// costPerItem returns the learned mean cost of one item on path p, or the
// prior when observations are scarce.
func (m *Model) costPerItem(p Path) float64 {
	prior := [numPaths]float64{priorExtentNs, priorIndexNs}[p]
	if m.lat[p] == nil {
		return prior
	}
	count, itemSum := m.items[p].Stat()
	if count < minObs {
		return prior
	}
	_, latSum := m.lat[p].Stat()
	if itemSum <= 0 || latSum <= 0 {
		return prior
	}
	return float64(latSum) / float64(itemSum)
}

// selectivity returns the observed mean selectivity in [0,1], or the
// default when observations are scarce.
func (m *Model) selectivity() float64 {
	if m.sel == nil {
		return defaultSelectivity
	}
	count, sum := m.sel.Stat()
	if count < minObs {
		return defaultSelectivity
	}
	s := float64(sum) / float64(count) / selScale
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// GetInput sizes one GET query for the planner. All counts are O(1) to
// obtain: N and Types from the index set's counters, Candidates from the
// chosen field index's length.
type GetInput struct {
	N     int // members in the database
	Types int // distinct member types (= maintained extents)
	// Field is the declared index chosen for this query (the requested
	// record type's field with the fewest candidates); empty when no
	// declared index applies.
	Field string
	// Candidates is that index's candidate count; ignored when Field is
	// empty.
	Candidates int
}

// GetPlan is the planner's verdict for one GET, carrying the full cost
// breakdown for EXPLAIN.
type GetPlan struct {
	Path  Path
	Field string // the index used, when Path == PathIndex

	// The inputs and estimates behind the choice.
	N, Types, Candidates int
	EstSelectivity       float64
	CostExtent           float64 // estimated ns
	CostIndex            float64 // +Inf rendered as "-" when no index applies
}

// PlanGet chooses the access path for one GET query.
func (m *Model) PlanGet(in GetInput) GetPlan {
	sel := m.selectivity()
	estR := sel * float64(in.N)
	p := GetPlan{
		N:              in.N,
		Types:          in.Types,
		Candidates:     in.Candidates,
		EstSelectivity: sel,
		CostExtent:     float64(in.Types)*checkNs + estR*m.costPerItem(PathExtent),
	}
	hasIndex := in.Field != ""
	if hasIndex {
		p.CostIndex = float64(in.Candidates) * m.costPerItem(PathIndex)
	}
	// Pick the cheaper; a tie prefers extent (exact, pre-merged).
	p.Path = PathExtent
	if hasIndex && p.CostIndex < p.CostExtent {
		p.Path, p.Field = PathIndex, in.Field
	}
	return p
}

// costNs renders an estimated cost for EXPLAIN.
func costNs(c float64) string {
	if c <= 0 {
		return "-"
	}
	return time.Duration(c).String()
}

// String renders the plan in the EXPLAIN format:
//
//	get path=extent n=10000 types=4 candidates=0 est_sel=1.0% cost{extent=3.1µs index=-}
func (p GetPlan) String() string {
	idx := "-"
	if p.Field != "" || p.CostIndex > 0 {
		idx = costNs(p.CostIndex)
	}
	field := ""
	if p.Field != "" {
		field = " field=" + p.Field
	}
	return fmt.Sprintf("get path=%s%s n=%d types=%d candidates=%d est_sel=%.1f%% cost{extent=%s index=%s}",
		p.Path, field, p.N, p.Types, p.Candidates, p.EstSelectivity*100,
		costNs(p.CostExtent), idx)
}
