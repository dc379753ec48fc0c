package server_test

import (
	"bufio"
	"encoding/hex"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/codec"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// FuzzServeImage sends each input to one live server as the tagged image
// of a PUT under a fixed name. When the server accepts it, GET at its
// type, a JOIN of that type with itself, EXPLAIN JOIN and NAMES run over
// it. Whatever the input, HEALTH must answer afterwards: no image the
// codec accepts may take the server down or wedge it. Seeds are the
// codec's golden tagged images, the cyclic pair of TestE2EJoinCyclicValues,
// a set nested six deep, the branching cycle of TestE2EJoinBranchingCycles
// and a DAG of 24 levels, whose tree unfolding has 2^25 - 1 records.
func FuzzServeImage(f *testing.F) {
	for _, img := range serveImageSeeds(f) {
		f.Add(img)
	}
	h := boot(f, filepath.Join(f.TempDir(), "fuzz.log"))
	c := dial(f, h, &client.Options{RequestTimeout: 10 * time.Second})
	f.Fuzz(func(t *testing.T, img []byte) {
		if putImage(t, h, img) {
			_, ty, err := codec.DecodeTagged(img)
			if err != nil {
				t.Fatalf("PUT accepted an image the codec refuses: %v", err)
			}
			// Each may refuse with a typed error; only the server's
			// survival is asserted.
			c.Get(ty)
			c.Join(ty, ty)
			c.ExplainJoin(ty, ty)
			c.Names()
		}
		if hl, err := c.Health(); err != nil || hl.Poisoned {
			t.Fatalf("HEALTH after the input = (%+v, %v)", hl, err)
		}
	})
}

// putImage PUTs img as a tagged image under the name "fuzz" on a raw
// connection, reporting whether the server accepted it.
func putImage(t *testing.T, h *harness, img []byte) bool {
	t.Helper()
	switch op, fields := rawPut(t, h, "fuzz", img, 10*time.Second); op {
	case wire.OpOK:
		return true
	case wire.OpError:
		return false
	default:
		t.Fatalf("PUT answered %s %v", wire.OpName(op), fields)
		return false
	}
}

// rawPut PUTs img under name on a raw connection with the given deadline
// and returns the answer.
func rawPut(t *testing.T, h *harness, name string, img []byte, deadline time.Duration) (byte, [][]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(deadline))
	if err := wire.WriteFrame(conn, 0, wire.OpPut, []byte(name), img); err != nil {
		t.Fatal(err)
	}
	op, fields, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	return op, fields
}

// serveImageSeeds returns FuzzServeImage's seeds.
func serveImageSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	file, err := os.Open("../persist/codec/testdata/golden.hex")
	if err != nil {
		tb.Fatal(err)
	}
	defer file.Close()
	var seeds [][]byte
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		name, img, ok := strings.Cut(sc.Text(), "\t")
		if !ok || !strings.HasPrefix(name, "tagged ") {
			continue
		}
		b, err := hex.DecodeString(img)
		if err != nil {
			tb.Fatalf("golden image %q: %v", name, err)
		}
		seeds = append(seeds, b)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}

	r := value.Rec("a", value.Int(1))
	r.Set("self", r)
	s := value.Rec("a", value.Int(1), "b", value.Int(2))
	s.Set("self", s)
	var nested value.Value = value.Int(1)
	for range 6 {
		nested = value.NewSet(nested)
	}
	for _, c := range []struct {
		v value.Value
		t string
	}{
		{r, "{a: Int}"},
		{s, "{a: Int}"},
		{nested, "Set[Set[Set[Set[Set[Set[Int]]]]]]"},
		{branching("a", value.Int(1)), "{a: Int}"},
		{dagValue(24, value.Int(1)), "{l: {l: {}}, r: {}}"},
	} {
		img, err := codec.AppendTagged(nil, c.v, types.MustParse(c.t))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, img)
	}
	return seeds
}
