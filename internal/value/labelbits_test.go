package value

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"dbpl/internal/types"
)

// recomputeBits is the reference definition of the label signature.
func recomputeBits(r *Record) uint64 {
	var bits uint64
	for _, l := range r.Labels() {
		bits |= types.LabelBit(l)
	}
	return bits
}

// TestQuickLabelBitsExact checks the invariants the ⊑ fast path and every
// reader of a shape depend on. Over random sequences of initRecord (labels
// sorted, unsorted and repeated), Set, Delete, Copy, Join and Meet, two
// records share a *Shape exactly when their labels are equal, and a shape's
// signature is exactly the OR of types.LabelBit over its labels — never a
// superset, never a subset.
func TestQuickLabelBitsExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		label := func() string { return fmt.Sprintf("L%d", r.Intn(12)) }
		recs := []*Record{NewRecord()}
		pick := func() *Record { return recs[r.Intn(len(recs))] }
		for n := r.Intn(40); n > 0; n-- {
			switch r.Intn(6) {
			case 0:
				labels := make([]string, r.Intn(6))
				for i := range labels {
					labels[i] = label()
				}
				if r.Intn(2) == 0 {
					slices.Sort(labels)
				}
				vals := make([]Value, len(labels))
				for i := range vals {
					vals[i] = Int(1)
				}
				recs = append(recs, recordOf(&Record{}, labels, vals))
			case 1:
				pick().Set(label(), Int(1))
			case 2:
				pick().Delete(label())
			case 3:
				recs = append(recs, pick().Copy())
			case 4:
				j, err := Join(pick(), pick())
				if err != nil {
					return false // every field is Int(1): no conflict
				}
				recs = append(recs, j.(*Record))
			case 5:
				recs = append(recs, Meet(pick(), pick()).(*Record))
			}
			for _, a := range recs {
				if a.Shape().bits != recomputeBits(a) {
					return false
				}
				for _, b := range recs {
					if (a.Shape() == b.Shape()) != slices.Equal(a.Labels(), b.Labels()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestShapeTableConcurrent: goroutines building records over overlapping
// label sets, through initRecord, Set and Join, meet in the one table: every
// label set has one shape, pointer-identical wherever it was built.
func TestShapeTableConcurrent(t *testing.T) {
	const workers, rounds = 8, 200
	built := make([][]*Record, workers)
	var wg sync.WaitGroup
	for w := range built {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			label := func() string { return fmt.Sprintf("C%d", r.Intn(6)) }
			for i := 0; i < rounds; i++ {
				labels := []string{label(), label(), label()}
				slices.Sort(labels)
				labels = slices.Compact(labels)
				a := recordOf(&Record{}, labels, []Value{Int(1), Int(1), Int(1)}[:len(labels)])
				b := NewRecord()
				b.Set(label(), Int(1))
				b.Set(label(), Int(1))
				j, err := Join(a, b)
				if err != nil {
					t.Error(err)
					return
				}
				built[w] = append(built[w], a, b, j.(*Record))
			}
		}(w)
	}
	wg.Wait()
	byLabels := map[string]*Shape{}
	for _, recs := range built {
		for _, r := range recs {
			k := fmt.Sprint(r.Labels())
			if s, ok := byLabels[k]; ok && s != r.Shape() {
				t.Fatalf("labels %s have two shapes", k)
			}
			byLabels[k] = r.Shape()
		}
	}
}

// shapeCount is the number of label sets the table holds.
func shapeCount() int {
	shapes.RLock()
	defer shapes.RUnlock()
	return len(shapes.m)
}

// TestDecoderInternsFinishedShapesOnly: a record read out of label order,
// or with a Flush after every field as a decoder does at each dynamic, adds
// one shape to the table, its own, however many fields it has, and reads
// as Set would have built it.
func TestDecoderInternsFinishedShapesOnly(t *testing.T) {
	const n = 300
	label := func(run string, i int) []byte { return fmt.Appendf(nil, "%s.%04d", run, i) }
	field := func(r *Record, l []byte) Value {
		v, _ := r.Get(string(l))
		return v
	}
	t.Run("descending", func(t *testing.T) {
		before := shapeCount()
		var d RecordDecoder
		r := new(Record)
		d.Begin(r, make([]Value, 0, n+1))
		for i := n - 1; i >= 0; i-- {
			d.Field(label("desc", i), Int(i))
		}
		d.Field(label("desc", 7), String("last")) // of a repeated label, the last value stays
		d.End()
		if got := shapeCount() - before; got != 1 {
			t.Errorf("table grew by %d shapes, want 1", got)
		}
		if r.Len() != n || !slices.IsSorted(r.Labels()) {
			t.Fatalf("record has %d fields, sorted %v; want %d sorted", r.Len(), slices.IsSorted(r.Labels()), n)
		}
		if !Equal(field(r, label("desc", 7)), String("last")) || !Equal(field(r, label("desc", 123)), Int(123)) {
			t.Errorf("fields read wrong: %v", r)
		}
	})
	t.Run("InitRecord", func(t *testing.T) {
		before := shapeCount()
		labels, vals := make([]string, n), make([]Value, n)
		for i := range labels {
			labels[i], vals[i] = string(label("init", n-1-i)), Int(n-1-i)
		}
		r := recordOf(&Record{}, labels, vals)
		if got := shapeCount() - before; got != 1 {
			t.Errorf("table grew by %d shapes, want 1", got)
		}
		if !Equal(field(r, label("init", 0)), Int(0)) || !slices.IsSorted(r.Labels()) {
			t.Errorf("fields read wrong: %v", r)
		}
	})
	t.Run("flushed", func(t *testing.T) {
		before := shapeCount()
		var d RecordDecoder
		outer, inner := new(Record), new(Record)
		d.Begin(outer, make([]Value, 0, n+1))
		for i := 0; i < n; i++ {
			d.Field(label("flush", i), Int(i))
			d.Flush()
			if outer.Len() != i+1 || !Equal(field(outer, label("flush", i)), Int(i)) {
				t.Fatalf("after field %d and a flush, the record is %v", i, outer)
			}
		}
		d.Begin(inner, make([]Value, 0, n))
		for i := n - 1; i >= 0; i-- {
			d.Field(label("inner", i), Int(i))
			d.Flush()
			if inner.Len() != n-i || outer.Len() != n || !slices.IsSorted(inner.Labels()) {
				t.Fatalf("after inner field %d and a flush: inner has %d fields, outer %d", i, inner.Len(), outer.Len())
			}
		}
		d.Field(label("flush", n), d.End())
		d.End()
		if got := shapeCount() - before; got != 2 {
			t.Errorf("table grew by %d shapes, want 2", got)
		}
		if outer.Len() != n+1 || field(outer, label("flush", n)) != Value(inner) || inner.Len() != n {
			t.Fatalf("records read wrong: outer %d fields, inner %d", outer.Len(), inner.Len())
		}
		again := recordOf(&Record{}, outer.Labels(), make([]Value, n+1))
		if again.Shape() != outer.Shape() {
			t.Errorf("a finished record's shape is not the table's")
		}
	})
}

// TestLeqBloomRejectSound pins the fast-reject direction: a record with a
// label absent from the other side is never ⊑ it, and the signature filter
// agrees with the field walk on positive cases.
func TestLeqBloomRejectSound(t *testing.T) {
	small := Rec("A", Int(1))
	big := Rec("A", Int(1), "B", Int(2))
	if !Leq(small, big) {
		t.Errorf("small ⊑ big expected")
	}
	if Leq(big, small) {
		t.Errorf("big ⊑ small unexpected")
	}
	// Deleting the extra field restores mutual ⊑ — stale signature bits
	// would break this.
	big.Delete("B")
	if !Leq(big, small) || !Leq(small, big) {
		t.Errorf("records should be mutually ⊑ after Delete")
	}
}
