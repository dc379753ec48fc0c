package dynamic

import (
	"errors"
	"sync"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

func TestPaperCoerceExample(t *testing.T) {
	// let d = dynamic 3
	d := Make(value.Int(3))

	// let i = coerce d to Int  -- succeeds, binds 3
	i, err := d.Coerce(types.Int)
	if err != nil {
		t.Fatalf("coerce to Int: %v", err)
	}
	if !value.Equal(i, value.Int(3)) {
		t.Errorf("coerce = %s, want 3", i)
	}

	// let s = coerce d to String  -- run-time type error
	_, err = d.Coerce(types.String)
	var ce *CoerceError
	if !errors.As(err, &ce) {
		t.Fatalf("coerce to String: err = %v, want *CoerceError", err)
	}
	if !types.Equal(ce.Have, types.Int) || !types.Equal(ce.Want, types.String) {
		t.Errorf("CoerceError = %v, want Int -> String", ce)
	}
}

func TestCoerceSubsumption(t *testing.T) {
	emp := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1234))
	d := Make(emp)
	person := types.MustParse("{Name: String}")
	got, err := d.Coerce(person)
	if err != nil {
		t.Fatalf("employee should coerce to Person: %v", err)
	}
	// Coercion changes the static view, not the value: the fields are all
	// still there, which is what makes Get's existential result useful.
	if _, ok := got.(*value.Record).Get("Empno"); !ok {
		t.Error("coercion should not strip fields")
	}
	if _, err := d.Coerce(types.MustParse("{Name: String, Dept: String}")); err == nil {
		t.Error("coerce to a non-supertype should fail")
	}
}

func TestCoerceWidensNumbers(t *testing.T) {
	d := Make(value.Int(3))
	if _, err := d.Coerce(types.Float); err != nil {
		t.Errorf("Int dynamic should coerce to Float: %v", err)
	}
}

func TestMakeAt(t *testing.T) {
	emp := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))
	person := types.MustParse("{Name: String}")

	d, err := MakeAt(emp, person)
	if err != nil {
		t.Fatalf("MakeAt at supertype: %v", err)
	}
	if !types.Equal(d.Type(), person) {
		t.Errorf("declared type = %s, want Person", d.Type())
	}
	// The declared label hides the extra structure from Is/Coerce: the
	// value was *injected* at Person.
	if d.Is(types.MustParse("{Name: String, Empno: Int}")) {
		t.Error("a dynamic labelled Person should not claim to be Employee")
	}

	if _, err := MakeAt(value.Int(3), types.String); err == nil {
		t.Error("MakeAt with non-conforming type should fail")
	}
}

func TestMakeUsesMostSpecificType(t *testing.T) {
	emp := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))
	d := Make(emp)
	if !d.Is(types.MustParse("{Name: String, Empno: Int}")) {
		t.Error("Make should record the most specific type")
	}
	if !d.Is(types.MustParse("{Name: String}")) {
		t.Error("Is should respect subtyping")
	}
	if d.Is(types.MustParse("{Salary: Float}")) {
		t.Error("Is should reject unrelated types")
	}
}

func TestTypeVal(t *testing.T) {
	d := Make(value.Int(3))
	tv := d.TypeVal()
	if !types.Equal(tv.T, types.Int) {
		t.Errorf("TypeVal = %s, want Int", tv.T)
	}
	if value.TypeOf(tv).Kind() != types.KindTypeRep {
		t.Error("a reified type should have type Type")
	}
}

func TestDynamicIsAValue(t *testing.T) {
	// Dynamics nest inside ordinary structures.
	d := Make(value.Int(3))
	lst := value.NewList(d, d)
	if lst.Len() != 2 {
		t.Fatal("list of dynamics")
	}
	got, ok := lst.Elems[0].(*Dynamic)
	if !ok {
		t.Fatal("element should be a *Dynamic")
	}
	if v, _ := got.Coerce(types.Int); !value.Equal(v, value.Int(3)) {
		t.Error("nested dynamic lost its value")
	}
	if d.String() == "" {
		t.Error("String should render something")
	}
}

// TestImageWrittenOnce: Image runs encode at the first call and returns
// its image, the same slice, at every later one; an encode error is
// returned and nothing is stored, so the next call encodes again.
func TestImageWrittenOnce(t *testing.T) {
	d := Make(value.Rec("A", value.Int(1)))
	boom := errors.New("boom")
	if _, err := d.Image(func(value.Value) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Image with a failing encode = %v, want its error", err)
	}
	calls := 0
	encode := func(v value.Value) ([]byte, error) {
		calls++
		if v != d.Value() {
			t.Errorf("encode got %v, want the carried value", v)
		}
		return []byte{byte(calls)}, nil
	}
	first, err := d.Image(encode)
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		img, err := d.Image(encode)
		if err != nil || &img[0] != &first[0] {
			t.Fatalf("a later Image = (%v, %v), want the first image %v", img, err, first)
		}
	}
	if calls != 1 {
		t.Fatalf("encode ran %d times, want once", calls)
	}
}

// TestImageRacingFirstCalls: callers racing on the first Image all return
// the one image stored, whichever encode stored it. Run under -race.
func TestImageRacingFirstCalls(t *testing.T) {
	d := Make(value.String("raced"))
	const callers = 8
	imgs := make([][]byte, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			img, err := d.Image(func(value.Value) ([]byte, error) { return []byte{byte(i)}, nil })
			if err != nil {
				t.Error(err)
			}
			imgs[i] = img
		}()
	}
	close(start)
	wg.Wait()
	for i, img := range imgs {
		if &img[0] != &imgs[0][0] {
			t.Fatalf("caller %d returned %v, caller 0 %v: not one stored image", i, img, imgs[0])
		}
	}
}
