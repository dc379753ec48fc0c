package relation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dbpl/internal/value"
)

func TestJoinFastFigure1(t *testing.T) {
	// Pad the figure with rows that join with nothing, so the partition
	// on Dept has buckets with no partner on the other side.
	r1, r2 := Figure1R1(), Figure1R2()
	for i := 0; i < 20; i++ {
		r1.Insert(value.Rec("Name", value.String(fmt.Sprintf("pad%d", i)),
			"Dept", value.String(fmt.Sprintf("PD%d", i))))
		r2.Insert(value.Rec("Dept", value.String(fmt.Sprintf("QD%d", i)),
			"Addr", value.Rec("State", value.String("ZZ"))))
	}
	slow := Join(r1, r2)
	fast := JoinFast(r1, r2)
	if !Equal(slow, fast) {
		t.Fatalf("JoinFast diverges on padded Figure 1:\nslow %s\nfast %s", slow, fast)
	}
	// The published tuples are all present.
	for _, m := range Figure1Result().Members() {
		if !fast.Contains(m) {
			t.Errorf("missing %s", m)
		}
	}
}

func TestJoinFastSmallDelegates(t *testing.T) {
	if !Equal(JoinFast(Figure1R1(), Figure1R2()), Figure1Result()) {
		t.Error("JoinFast broke Figure 1")
	}
}

func TestQuickJoinFastEquals(t *testing.T) {
	// On random partial relations — including members silent on the join
	// attribute and non-atomic attribute values — JoinFast must equal Join.
	gen := func(rng *rand.Rand, n int) *Relation {
		r := New()
		for i := 0; i < n; i++ {
			rec := value.NewRecord()
			rec.Set("ID", value.Int(int64(i))) // keep members incomparable
			if rng.Intn(4) != 0 {              // sometimes silent on Dept
				switch rng.Intn(5) {
				case 0:
					rec.Set("Dept", value.Rec("Nested", value.Int(int64(rng.Intn(3)))))
				default:
					rec.Set("Dept", value.String(fmt.Sprintf("D%d", rng.Intn(4))))
				}
			}
			if rng.Intn(2) == 0 {
				rec.Set("X", value.Int(int64(rng.Intn(3))))
			}
			r.Insert(rec)
		}
		return r
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gen(rng, 16+rng.Intn(20))
		b := gen(rng, 16+rng.Intn(20))
		return Equal(Join(a, b), JoinFast(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinFastSharedAtomHeavy(t *testing.T) {
	// The favourable case: both sides define the attribute atomically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(), New()
		for i := 0; i < 25; i++ {
			a.Insert(value.Rec("Name", value.String(fmt.Sprintf("E%d", i)),
				"Dept", value.String(fmt.Sprintf("D%d", rng.Intn(5)))))
		}
		for i := 0; i < 25; i++ {
			b.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", rng.Intn(5))),
				"Floor", value.Int(int64(i))))
		}
		return Equal(Join(a, b), JoinFast(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkJoinNaive(b *testing.B) {
	benchJoinImpl(b, Join)
}

func BenchmarkJoinHashed(b *testing.B) {
	benchJoinImpl(b, JoinFast)
}

// readBulkShape builds the two sides of the benchmark's read-bulk JOIN:
// 128 {Dept, Id, L, Name} and 8 {Dept, Id, L, L2, Name} records on the
// left, 8 {DName, Dept, R} on the right, Dept being the position mod 8, so
// every left member meets exactly one right member.
func readBulkShape() (left, right []value.Value) {
	rng := rand.New(rand.NewSource(1))
	word := func() value.Value {
		b := make([]byte, 12)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
		}
		return value.String(b)
	}
	noise := func() value.Value { return value.Int(1<<24 + rng.Int63n(1<<24)) }
	for i := 0; i < 136; i++ {
		r := value.Rec("Dept", value.Int(int64(i%8)), "Id", value.Int(int64(i)), "L", noise(), "Name", word())
		if i >= 128 {
			r.Set("L2", word())
		}
		left = append(left, r)
	}
	for i := 0; i < 8; i++ {
		right = append(right, value.Rec("DName", word(), "Dept", value.Int(int64(i)), "R", noise()))
	}
	return left, right
}

// joinReadBulk is what the server's JOIN does with the two extents.
func joinReadBulk(left, right []value.Value) []value.Value {
	r1, r2 := New(left...), New(right...)
	return JoinPlanned(r1, r2, PlanJoin(r1, r2)).Members()
}

func BenchmarkJoinReadBulkShape(b *testing.B) {
	left, right := readBulkShape()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		joinReadBulk(left, right)
	}
}

// TestJoinReadBulkShapeAllocs pins the join's allocations: the order is
// decided in place and member keys are written into scratch, so what is
// left is the joined records, the relations' maps and the member keys
// they store: ≈ 2 000, against 89 612 when every atom comparison built two
// fmt-formatted keys.
func TestJoinReadBulkShapeAllocs(t *testing.T) {
	left, right := readBulkShape()
	if got := len(joinReadBulk(left, right)); got != 136 {
		t.Fatalf("join has %d members, want 136", got)
	}
	if n := testing.AllocsPerRun(5, func() { joinReadBulk(left, right) }); n > 10000 {
		t.Errorf("read-bulk-shaped join: %.0f allocs, want ≤ 10 000", n)
	}
}

func benchJoinImpl(b *testing.B, impl func(*Relation, *Relation) *Relation) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			emp, dept := New(), New()
			for i := 0; i < n; i++ {
				emp.Insert(value.Rec("Name", value.String(fmt.Sprintf("E%d", i)),
					"Dept", value.String(fmt.Sprintf("D%d", i%20))))
			}
			for i := 0; i < 20; i++ {
				dept.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i)),
					"Addr", value.Rec("State", value.String("PA"))))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl(emp, dept)
			}
		})
	}
}
