package intrinsic

import (
	"fmt"
	"sync"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestConcurrentBindOpenCommit exercises the store from concurrent binders,
// readers and committers. Run with -race.
func TestConcurrentBindOpenCommit(t *testing.T) {
	s := open(t)
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				name := fmt.Sprintf("r%d-%d", g, i)
				v := value.Rec("Name", value.String(name), "N", value.Int(int64(i)))
				if err := s.Bind(name, v, nil); err != nil {
					t.Errorf("Bind: %v", err)
					return
				}
				got, err := s.OpenAs(name, types.Top)
				if err != nil {
					t.Errorf("OpenAs: %v", err)
					return
				}
				if !value.Equal(got, v) {
					t.Errorf("OpenAs(%q) = %s", name, got)
					return
				}
				if i%5 == 0 {
					if _, err := s.Commit(); err != nil {
						t.Errorf("Commit: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	if got, want := len(s2.Names()), goroutines*15; got != want {
		t.Errorf("roots after reopen = %d, want %d", got, want)
	}
}

// TestCommittedStableUnderBinds: maps taken from Committed are read,
// without the store's lock, while a writer binds (editing its working
// table in place), commits and aborts. Every map a reader holds must keep
// reading what it held when taken: a committed table shares no node the
// writer still edits. Run with -race.
func TestCommittedStableUnderBinds(t *testing.T) {
	s := open(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := s.Committed()
				var first []*dynamic.Dynamic
				m.Range(func(_ string, d *dynamic.Dynamic) bool {
					first = append(first, d)
					return true
				})
				i := 0
				m.Range(func(_ string, d *dynamic.Dynamic) bool {
					if i >= len(first) || first[i] != d {
						t.Errorf("a committed map changed while held")
						return false
					}
					i++
					return true
				})
				if i != len(first) || m.Len() != len(first) {
					t.Errorf("a committed map changed length while held: %d, %d, %d", i, len(first), m.Len())
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		for j := 0; j < 8; j++ {
			if err := s.Bind(fmt.Sprintf("r%03d", (i*8+j)%97), value.Int(int64(i)), nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Unbind(fmt.Sprintf("r%03d", i%97))
		var err error
		if i%7 == 0 {
			err = s.AbortBound()
		} else {
			_, err = s.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
