package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

func newModel() *Model { return NewModel(telemetry.NewRegistry()) }

// TestPlanGetRegimesCold: with cold priors the planner must pick the
// obvious winner in each regime of the E16 grid.
func TestPlanGetRegimesCold(t *testing.T) {
	m := newModel()

	// R1: few types — the extent union is nearly free.
	p := m.PlanGet(GetInput{N: 10000, Types: 4})
	if p.Path != PathExtent {
		t.Errorf("R1 (few types): picked %s\n%s", p.Path, p)
	}

	// R2: every member its own type, but a rare indexed field.
	p = m.PlanGet(GetInput{N: 10000, Types: 10000, Field: "Empno", Candidates: 100})
	if p.Path != PathIndex || p.Field != "Empno" {
		t.Errorf("R2 (many types, rare field): picked %s\n%s", p.Path, p)
	}

	// R2 with a useless index (every member a candidate): not the index.
	p = m.PlanGet(GetInput{N: 10000, Types: 10000, Field: "ID", Candidates: 10000})
	if p.Path == PathIndex {
		t.Errorf("dense index should not win\n%s", p)
	}
}

// TestPlanGetFeedbackFlipsChoice: when observed latencies contradict the
// priors, the learned per-item costs must change the verdict — the whole
// point of telemetry-fed planning over fixed thresholds.
func TestPlanGetFeedbackFlipsChoice(t *testing.T) {
	m := newModel()
	// A dense index: by the priors, 8000 candidates cost more than the
	// extent union of 5000 types.
	in := GetInput{N: 10000, Types: 5000, Field: "Empno", Candidates: 8000}
	if p := m.PlanGet(in); p.Path != PathExtent {
		t.Fatalf("cold pick = %s, want extent\n%s", p.Path, p)
	}
	// Feed reality in which the extent path is terrible (say, the type
	// cache is cold and the merge is wide) and the candidate walk is cheap.
	for i := 0; i < minObs; i++ {
		m.Observe(PathExtent, 5*time.Millisecond, 5000, 5000, 10000)
		m.Observe(PathIndex, 100*time.Microsecond, 8000, 5000, 10000)
	}
	if p := m.PlanGet(in); p.Path != PathIndex || p.Field != "Empno" {
		t.Errorf("after contrary observations pick = %s, want index on Empno\n%s", p.Path, p)
	}
}

// TestSelectivityLearning: the extent cost must scale with observed
// selectivity, so high-selectivity workloads cost the extent path low.
func TestSelectivityLearning(t *testing.T) {
	m := newModel()
	if got := m.selectivity(); got != defaultSelectivity {
		t.Fatalf("cold selectivity = %v", got)
	}
	for i := 0; i < minObs; i++ {
		m.Observe(PathExtent, time.Microsecond, 100, 100, 10000) // 1%
	}
	if got := m.selectivity(); got < 0.005 || got > 0.02 {
		t.Errorf("learned selectivity = %v, want ≈0.01", got)
	}
	cold := newModel().PlanGet(GetInput{N: 10000, Types: 4}).CostExtent
	warm := m.PlanGet(GetInput{N: 10000, Types: 4}).CostExtent
	if warm >= cold {
		t.Errorf("extent cost did not shrink with selectivity: cold %v warm %v", cold, warm)
	}
}

func TestExplainRendering(t *testing.T) {
	m := newModel()
	p := m.PlanGet(GetInput{N: 10000, Types: 10000, Field: "Empno", Candidates: 100})
	out := p.String()
	for _, want := range []string{"path=index", "field=Empno", "n=10000", "types=10000",
		"candidates=100", "est_sel=", "cost{extent=", "index="} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN %q missing %q", out, want)
		}
	}
	p = m.PlanGet(GetInput{N: 100, Types: 2})
	if !strings.Contains(p.String(), "index=-") {
		t.Errorf("no-index EXPLAIN should render index=-: %q", p.String())
	}
}

// --- planner-path ≡ reference-scan property -------------------------------

var (
	personT   = types.MustParse("{Name: String, Address: {City: String}}")
	employeeT = types.MustParse("{Name: String, Address: {City: String}, Empno: Int, Dept: String}")
)

func employee(i int) *value.Record {
	return value.Rec("Name", value.String(fmt.Sprintf("E%d", i)),
		"Address", value.Rec("City", value.String("Austin")),
		"Empno", value.Int(int64(i)),
		"Dept", value.String(fmt.Sprintf("D%d", i%3)))
}

func person(i int) *value.Record {
	return value.Rec("Name", value.String(fmt.Sprintf("P%d", i)),
		"Address", value.Rec("City", value.String("Moose")))
}

// executeGet runs one GET through the chosen physical path against the
// index set.
func executeGet(p GetPlan, set *index.Set, want *types.Interned) []*dynamic.Dynamic {
	var out []*dynamic.Dynamic
	switch p.Path {
	case PathExtent:
		entries, _ := set.GetEntries(want)
		for _, e := range entries {
			out = append(out, e.Dyn)
		}
	case PathIndex:
		cands, ok := set.Candidates(p.Field)
		if !ok {
			return nil
		}
		for _, e := range cands {
			if types.SubtypeInterned(e.Dyn.Interned(), want) {
				out = append(out, e.Dyn)
			}
		}
	}
	return out
}

// TestQuickPlannedGetEquivalent is the satellite property: for random
// databases, random index declarations, random model states, and random
// queries, the planner-chosen path returns exactly the reference full-scan
// result, in insertion order.
func TestQuickPlannedGetEquivalent(t *testing.T) {
	queries := []*types.Interned{
		types.Intern(personT),
		types.Intern(employeeT),
		types.Intern(types.MustParse("{Empno: Int}")),
		types.Intern(types.MustParse("{Dept: String}")),
		types.Intern(types.Top),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var defs []index.Def
		if rng.Intn(3) > 0 {
			defs = append(defs, index.Def{Field: "Empno"})
		}
		if rng.Intn(2) == 0 {
			defs = append(defs, index.Def{Field: "Dept"})
		}
		set := index.NewSet(defs...)
		var members []*dynamic.Dynamic
		n := 10 + rng.Intn(60)
		var ops []index.Op
		for i := 0; i < n; i++ {
			var d *dynamic.Dynamic
			switch rng.Intn(3) {
			case 0:
				d = dynamic.Make(person(i))
			case 1:
				d = dynamic.Make(employee(i))
			default:
				d = dynamic.Make(value.Int(int64(i)))
			}
			members = append(members, d)
			ops = append(ops, index.Op{Add: d})
		}
		set, _ = set.Apply(ops)

		m := newModel()
		// Random model state: sometimes warped by arbitrary observations.
		for i, k := 0, rng.Intn(3)*minObs; i < k; i++ {
			m.Observe(Path(rng.Intn(int(numPaths))),
				time.Duration(rng.Intn(int(time.Millisecond))),
				rng.Intn(1000), rng.Intn(100), n)
		}

		for _, q := range queries {
			// The server's field choice: the query's indexed field with the
			// fewest candidates.
			in := GetInput{N: set.Len(), Types: set.Types()}
			if rt, ok := q.Type().(*types.Record); ok {
				for _, fld := range rt.Fields() {
					if c, ok := set.CandidateCount(fld.Label); ok {
						if in.Field == "" || c < in.Candidates {
							in.Field, in.Candidates = fld.Label, c
						}
					}
				}
			}
			p := m.PlanGet(in)
			got := executeGet(p, set, q)
			var want []*dynamic.Dynamic
			for _, d := range members {
				if types.SubtypeInterned(d.Interned(), q) {
					want = append(want, d)
				}
			}
			if len(got) != len(want) {
				t.Logf("seed %d q=%s path=%s: got %d want %d", seed, q.Type(), p.Path, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("seed %d q=%s path=%s: order diverges at %d", seed, q.Type(), p.Path, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
