package server_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/dynamic"
	"dbpl/internal/persist/codec"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Values that share structure or branch round a cycle, through a live
// server. Their tree unfoldings are exponential in their size, so a server
// that walks one as a tree is pinned by a request of a few hundred bytes.

// dagValue returns d levels over leaf, each level {l: prev, r: prev}.
func dagValue(d int, leaf value.Value) value.Value {
	v := leaf
	for range d {
		v = value.Rec("l", v, "r", v)
	}
	return v
}

// branching returns r = {fields…, l: r, r: r}.
func branching(fields ...any) *value.Record {
	r := value.Rec(fields...)
	r.Set("l", r)
	r.Set("r", r)
	return r
}

// TestE2EPutRefusalIsBounded: a PUT of a 24-level DAG at {l: Int} does not
// conform, and the refusal answers within 1 s with a message under 1 KiB.
// The message names the declared type: the value's own type shares as the
// value does, and renders as its unfolding. The same holds for a dynamic
// inside the image that no longer conforms to the type it carries.
func TestE2EPutRefusalIsBounded(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "refuse.log"))
	dag := dagValue(24, value.Int(1))
	plain, err := codec.AppendTagged(nil, dag, types.MustParse("{l: Int}"))
	if err != nil {
		t.Fatal(err)
	}
	inner := value.Rec("m", value.Int(1), "d", dag)
	dyn, err := dynamic.MakeAt(inner, types.MustParse("{m: Int, d: Top}"))
	if err != nil {
		t.Fatal(err)
	}
	inner.Set("m", value.String("no longer an Int"))
	carried, err := codec.AppendTagged(nil, dyn, types.Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		img  []byte
		code wire.Code
	}{
		{"a DAG at {l: Int}", plain, wire.CodeNotConforming},
		{"a dynamic that no longer conforms", carried, wire.CodeBadRequest},
	} {
		start := time.Now()
		op, fields := rawPut(t, h, "r", c.img, time.Second)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: the refusal took %v, want < 1 s", c.name, took)
		}
		if op != wire.OpError {
			t.Fatalf("%s: PUT answered %s, want a refusal", c.name, wire.OpName(op))
		}
		var we *wire.WireError
		if !errors.As(wire.DecodeError(fields), &we) || we.Code != c.code || len(we.Msg) >= 1024 {
			t.Errorf("%s: refusal %v with a %d-byte message; want %v under 1 KiB", c.name, we.Code, len(we.Msg), c.code)
		}
	}
	if hl, err := dial(t, h, nil).Health(); err != nil || hl.Poisoned || hl.Roots != 0 {
		t.Errorf("HEALTH after the refusals = (%+v, %v)", hl, err)
	}
}

// TestE2EJoinBranchingCycles: r = {a: 1, l: r, r: r} and s = {a: 1, b: 2,
// l: s, r: s} at {a: Int}. A JOIN of {a: Int} with itself answers within
// 1 s (the client's deadline) with a record holding a = 1 and b = 2, and
// the server then shuts down cleanly: no handler is left pinned.
func TestE2EJoinBranchingCycles(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "branching.log"))
	c := dial(t, h, &client.Options{RequestTimeout: time.Second, RetryPolicy: client.RetryPolicy{MaxAttempts: 1}})
	aT := types.MustParse("{a: Int}")
	for name, v := range map[string]value.Value{
		"r": branching("a", value.Int(1)),
		"s": branching("a", value.Int(1), "b", value.Int(2)),
	} {
		if err := c.Put(name, v, aT); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	got, err := c.Join(aT, aT)
	if err != nil {
		t.Fatalf("JOIN of two branching cycles: %v after %v", err, time.Since(start))
	}
	found := false
	for _, v := range got {
		if r, ok := v.(*value.Record); ok {
			b, hasB := r.Get("b")
			found = found || hasB && value.Equal(b, value.Int(2)) && value.Equal(r.MustGet("a"), value.Int(1))
		}
	}
	if !found {
		t.Errorf("JOIN = %d members, none a record with a = 1 and b = 2", len(got))
	}
	done := make(chan struct{})
	go func() {
		h.stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the JOIN")
	}
}

// TestE2EPutDAGAtItsDeclaredType: a 24-level DAG PUT at a declared type it
// conforms to is accepted, and GET and a JOIN of that type with itself
// answer within 1 s each.
func TestE2EPutDAGAtItsDeclaredType(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "dag.log"))
	c := dial(t, h, &client.Options{RequestTimeout: time.Second, RetryPolicy: client.RetryPolicy{MaxAttempts: 1}})
	ty := types.MustParse("{l: {l: {}}, r: {}}")
	if err := c.Put("dag", dagValue(24, value.Int(1)), ty); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(ty); err != nil || len(got) != 1 {
		t.Errorf("GET = (%d members, %v), want 1", len(got), err)
	}
	if got, err := c.Join(ty, ty); err != nil || len(got) != 1 {
		t.Errorf("JOIN = (%d members, %v), want 1", len(got), err)
	}
	if err := c.Put("bad", dagValue(24, value.Int(1)), types.MustParse("{l: Int}")); !errors.Is(err, wire.ErrNotConforming) {
		t.Errorf("PUT at {l: Int} = %v, want ErrNotConforming", err)
	}
}
