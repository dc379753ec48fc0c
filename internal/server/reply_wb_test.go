// White-box tests of the VALUES reply, the frame that answers GET and
// JOIN: its bytes are the reply layout's, each witness type stated once
// and then the rows, and a bulk GET costs a bounded number of allocations
// and bytes end to end.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/dynamic"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/relation"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// commitRoots binds each root at its declared type in one commit.
func commitRoots(t *testing.T, srv *Server, names []string, vals []value.Value, decl []types.Type) {
	t.Helper()
	ops := make([]txnOp, len(names))
	for i, name := range names {
		d, err := dynamic.MakeAt(vals[i], decl[i])
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = txnOp{name: name, dyn: d}
	}
	var req commitReq
	if _, err := srv.submit(&req, ops, "", nil); err != nil {
		t.Fatal(err)
	}
}

// rawExchange sends one request frame on conn and returns the whole reply
// frame, length prefix included, as the server wrote it.
func rawExchange(t *testing.T, conn net.Conn, req []byte) []byte {
	t.Helper()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(conn, frame[4:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// layoutFields builds the VALUES fields of vals at wits from the reply
// layout's definition and the one-shot encoders: none for no rows, else
// the types — an image header, the row count, the type count and each
// distinct witness image once, in order of first use — and the rows, each
// the witness's ordinal and then the value bytes of codec.AppendTagged's
// image.
func layoutFields(t *testing.T, vals []value.Value, wits []types.Type) [][]byte {
	t.Helper()
	if len(vals) == 0 {
		return nil
	}
	var imgs [][]byte
	var rows []byte
	for i, v := range vals {
		timg, err := codec.AppendType(nil, wits[i])
		if err != nil {
			t.Fatal(err)
		}
		ord := slices.IndexFunc(imgs, func(img []byte) bool { return bytes.Equal(img, timg) })
		if ord < 0 {
			ord, imgs = len(imgs), append(imgs, timg)
		}
		tagged, err := codec.AppendTagged(nil, v, wits[i])
		if err != nil {
			t.Fatal(err)
		}
		rows = binary.AppendUvarint(rows, uint64(ord))
		rows = append(rows, tagged[len(timg):]...)
	}
	const header = "DBPL\x01"
	head := binary.AppendUvarint([]byte(header), uint64(len(vals)))
	head = binary.AppendUvarint(head, uint64(len(imgs)))
	for _, img := range imgs {
		head = append(head, img[len(header):]...)
	}
	return [][]byte{head, rows}
}

// TestValuesReplyBytesUnchanged: every GET and JOIN reply frame, traced
// and untraced, is byte-identical to one framed by wire.AppendFrame from
// layoutFields, and each of its rows decodes through codec.DecodeReply as
// codec.DecodeTagged decodes codec.AppendTagged's image of the row's value
// at its witness. GET's records ship at their declared witnesses; a JOIN
// member ships at the meet of the witnesses of the two members it joins,
// and conforms to it. The store holds several witnesses, nested records,
// lists, a sub-value shared within and across records, a cyclic record and
// a reply past the session's kept frame buffer. The replies run on one
// connection, so each reuses the buffer the last one left. Each GET and
// JOIN is sent twice: a member's first reply writes the value bytes its
// dynamic keeps, and the second serves them; the first GET, of person,
// meets every member it returns cold. The JOINs of dept and grade, both
// keyed and of flat records, merge their rows from the members' value
// bytes, cold and then warm; their pairs clash on Id, and a grade
// member's witness leaves its Id out. The JOIN of tagged and dept is
// keyed too, and its tagged members join as values.
func TestValuesReplyBytesUnchanged(t *testing.T) {
	srv, _, addr := serveWB(t, "reply.log", Config{})
	person := types.MustParse("{Name: String, Id: Int}")
	located := types.MustParse("{Name: String, Id: Int, Addr: {City: String}}")
	tagged := types.MustParse("{Name: String, Id: Int, Addr: {City: String}, Tags: List[String]}")
	dept := types.MustParse("{Id: Int, Dept: Int}")
	grade := types.MustParse("{Dept: Int, Grade: String}")
	big := types.MustParse("{Name: String, Id: Int, Log: List[Int]}")
	oslo := value.Rec("City", value.String("Oslo"))
	cyclic := value.Rec("Name", value.String("loop"), "Id", value.Int(99))
	cyclic.Set("Self", cyclic)
	log := value.NewList()
	for i := 0; i < 12000; i++ {
		log.Append(value.Int(int64(i) << 20))
	}
	var names []string
	var vals []value.Value
	var decl []types.Type
	add := func(v value.Value, t types.Type) {
		names = append(names, fmt.Sprintf("r%02d", len(names)))
		vals, decl = append(vals, v), append(decl, t)
	}
	for i := 0; i < 6; i++ {
		id := value.Int(int64(i))
		name := value.String(fmt.Sprintf("n%d", i))
		add(value.Rec("Name", name, "Id", id), person)
		add(value.Rec("Name", name, "Id", id, "Addr", oslo), located)
		add(value.Rec("Name", name, "Id", id, "Addr", oslo, "Home", oslo,
			"Tags", value.NewList(value.String("a"), value.String("b"))), tagged)
		add(value.Rec("Id", id, "Dept", value.Int(int64(i%3))), dept)
	}
	for i, g := range []string{"low", "mid", "high"} {
		add(value.Rec("Dept", value.Int(int64(i)), "Grade", value.String(g)), grade)
	}
	add(value.Rec("Dept", value.Int(1), "Grade", value.String("mid+"), "Id", value.Int(4)), grade)
	add(cyclic, person)
	add(value.Rec("Name", value.String("big"), "Id", value.Int(-1), "Log", log), big)
	commitRoots(t, srv, names, vals, decl)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st := srv.state.Load()
	// frameOf is the reply frame of vals at wits, and checks that each row
	// decodes as its one-shot tagged image does.
	frameOf := func(trace uint64, vals []value.Value, wits []types.Type) []byte {
		op, fields := wire.OpValues, layoutFields(t, vals, wits)
		if err := codec.DecodeReply(fields, func(i int, v value.Value, w types.Type) {
			img, err := codec.AppendTagged(nil, vals[i], wits[i])
			if err != nil {
				t.Fatal(err)
			}
			ov, ow, err := codec.DecodeTagged(img)
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.AppendTagged(nil, v, w)
			if err != nil || w != ow || !bytes.Equal(got, img) {
				t.Fatalf("row %d decodes to %v at %s, its tagged image to %v at %s", i, v, w, ov, ow)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if trace != 0 {
			op, fields = wire.AppendTrace(op, trace, fields)
		}
		want, err := wire.AppendFrame(nil, 0, op, fields...)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	request := func(trace uint64, op byte, ts ...types.Type) []byte {
		fields := make([][]byte, len(ts))
		for i, ty := range ts {
			fields[i], err = wire.MarshalType(ty)
			if err != nil {
				t.Fatal(err)
			}
		}
		var req []byte
		if trace != 0 {
			req, err = wire.AppendTracedFrame(nil, 0, op, trace, fields...)
		} else {
			req, err = wire.AppendFrame(nil, 0, op, fields...)
		}
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	for _, trace := range []uint64{0, 0xfeedface} {
		for _, q := range []types.Type{person, big, located, tagged, types.MustParse("{Nonesuch: Int}"), person} {
			entries, _ := st.idx.GetEntries(types.Intern(q))
			vals := make([]value.Value, len(entries))
			wits := make([]types.Type, len(entries))
			for i, e := range entries {
				vals[i], wits[i] = e.Dyn.Value(), e.Dyn.Type()
			}
			want := frameOf(trace, vals, wits)
			for _, how := range []string{"first", "second"} {
				if got := rawExchange(t, conn, request(trace, wire.OpGet, q)); !bytes.Equal(got, want) {
					t.Fatalf("GET %s (trace %#x, %s): reply of %d bytes differs from the layout's frame of %d", q, trace, how, len(got), len(want))
				}
			}
		}
		// Ids repeat in the extents of located and of person, so only
		// their relations prove no key.
		unkeyed := map[types.Type]bool{located: true, person: true}
		for _, q := range [][2]types.Type{{dept, grade}, {grade, dept}, {located, dept}, {tagged, dept}, {dept, located}, {person, dept}} {
			// Each side's members, and the declared witness of each.
			side := func(ty types.Type) (*relation.Relation, map[value.Value]types.Type) {
				entries, _ := st.idx.GetEntries(types.Intern(ty))
				vals := make([]value.Value, len(entries))
				wits := map[value.Value]types.Type{}
				for i, e := range entries {
					vals[i], wits[e.Dyn.Value()] = e.Dyn.Value(), e.Dyn.Type()
				}
				return relation.New(vals...), wits
			}
			left, lw := side(q[0])
			right, rw := side(q[1])
			if keyed := left.Keyed() && right.Keyed(); keyed == (unkeyed[q[0]] || unkeyed[q[1]]) {
				t.Fatalf("JOIN %s, %s: keyed is %v", q[0], q[1], keyed)
			}
			joined, pairs := relation.JoinPairs(left, right, relation.PlanJoin(left, right))
			members := joined.Members()
			if len(members) == 0 {
				t.Fatalf("JOIN %s, %s is empty", q[0], q[1])
			}
			wits := make([]types.Type, len(members))
			for i, m := range members {
				l, r := left.Members()[pairs[i][0]], right.Members()[pairs[i][1]]
				if j, err := value.Join(l, r); err != nil || !value.Equal(j, m) {
					t.Fatalf("JOIN member %s is not the join of its pair %s, %s", m, l, r)
				}
				w, ok := types.Meet(lw[l], rw[r])
				if !ok || !value.Conforms(m, w) {
					t.Fatalf("JOIN member %s does not conform to the meet %s of %s and %s", m, w, lw[l], rw[r])
				}
				wits[i] = w
			}
			want := frameOf(trace, members, wits)
			for _, how := range []string{"first", "second"} {
				if got := rawExchange(t, conn, request(trace, wire.OpJoin, q[0], q[1])); !bytes.Equal(got, want) {
					t.Fatalf("JOIN %s, %s (trace %#x, %s): reply of %d bytes differs from the layout's frame of %d", q[0], q[1], trace, how, len(got), len(want))
				}
			}
		}
	}
}

// bulkServer serves 512 records in four witness types, shaped like the
// read-bulk benchmark's records, all of which answer a GET of the first
// witness. It returns the server, its address and that query type, and
// the records with their witnesses.
func bulkServer(t *testing.T) (srv *Server, addr string, query types.Type, vals []value.Value, decl []types.Type) {
	const n = 512
	srv, _, addr = serveWB(t, "bulk.log", Config{})
	witness := []types.Type{
		types.MustParse("{Id: Int, Name: String, A: Int}"),
		types.MustParse("{Id: Int, Name: String, A: Int, A1: String}"),
		types.MustParse("{Id: Int, Name: String, A: Int, A2: Float}"),
		types.MustParse("{Id: Int, Name: String, A: Int, A1: String, A2: Float}"),
	}
	rng := rand.New(rand.NewSource(1))
	text := func() value.Value {
		b := make([]byte, 12)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return value.String(b)
	}
	names := make([]string, n)
	vals = make([]value.Value, n)
	decl = make([]types.Type, n)
	for i := range names {
		w := witness[i%len(witness)]
		rec := value.NewRecord()
		for _, f := range w.(*types.Record).Fields() {
			switch {
			case f.Label == "Id":
				rec.Set(f.Label, value.Int(int64(i)))
			case f.Type == types.String:
				rec.Set(f.Label, text())
			case f.Type == types.Float:
				rec.Set(f.Label, value.Float(rng.Float64()))
			default:
				rec.Set(f.Label, value.Int(1<<24+rng.Int63n(1<<24)))
			}
		}
		names[i], vals[i], decl[i] = fmt.Sprintf("r%04d", i), rec, w
	}
	commitRoots(t, srv, names, vals, decl)
	return srv, addr, witness[0], vals, decl
}

// processAllocs returns the allocations a call of f makes in the whole
// process, averaged over runs calls after a GC.
func processAllocs(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestServeGetBulkAllocs: a warm loopback GET of bulkServer's 512
// records costs at most 13 allocations in the whole process, of which
// TestServeGetMissAllocs's fixed cost of a request is 2: the rest is the
// answer. The server reads the request into the session's buffers and
// walks the four matching extents in seq order with its cursors on the
// stack, copying each member's stored value bytes into the session's
// reply buffer and that into its frame buffer, so it allocates nothing;
// the client cuts records, value slices and boxed atoms from the reply's
// slabs. Neither end's cost grows with the record count. It measures 12
// with Go 1.24 on linux/amd64, and as many under -race.
func TestServeGetBulkAllocs(t *testing.T) {
	const n, maxAllocs = 512, 13
	_, addr, query, _, _ := bulkServer(t)
	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	get := func() {
		ps, err := c.Get(query)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != n {
			t.Fatalf("GET returned %d records, want %d", len(ps), n)
		}
	}
	for i := 0; i < 5; i++ {
		get()
	}
	allocs := processAllocs(20, get)
	t.Logf("a %d-record GET: %.0f allocations process-wide", n, allocs)
	if allocs > maxAllocs {
		t.Errorf("a %d-record GET costs %.0f allocations process-wide, want <= %d", n, allocs, maxAllocs)
	}
}

// TestBulkReplyBytes: the reply frame of bulkServer's 512-record GET, each
// witness type stated once, is at most 70 % of the frame of one tagged
// image a record that the same answer took before.
func TestBulkReplyBytes(t *testing.T) {
	_, addr, query, vals, decl := bulkServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tf, err := wire.MarshalType(query)
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.AppendFrame(nil, 0, wire.OpGet, tf)
	if err != nil {
		t.Fatal(err)
	}
	reply := rawExchange(t, conn, req)
	imgs := make([][]byte, len(vals))
	for i, v := range vals {
		if imgs[i], err = codec.AppendTagged(nil, v, decl[i]); err != nil {
			t.Fatal(err)
		}
	}
	perImage, err := wire.AppendFrame(nil, 0, wire.OpValues, imgs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("a %d-record reply: %d bytes, %d as one tagged image a record", len(vals), len(reply), len(perImage))
	if 10*len(reply) > 7*len(perImage) {
		t.Errorf("a %d-record reply takes %d bytes, more than 70 %% of the %d of one tagged image a record", len(vals), len(reply), len(perImage))
	}
}

// TestServeGetOneRecordAllocs: a warm loopback GET of one record costs at
// most 10 allocations in the whole process: TestServeGetMissAllocs's 2,
// and the client's decode of the one row. The codec's type table has seen
// the query type and the witness type, so neither the server's decode of
// the request nor the client's decode of the reply decodes a type. It
// measures 9.0 with Go 1.24 on linux/amd64, and as many under -race.
func TestServeGetOneRecordAllocs(t *testing.T) {
	const maxAllocs = 10
	srv, _, addr := serveWB(t, "one.log", Config{})
	decl := types.MustParse("{Id: Int, Name: String, Badge: Int}")
	rec := value.Rec("Id", value.Int(4711), "Name", value.String("qwertyuiopas"), "Badge", value.Int(1<<24+12345))
	commitRoots(t, srv, []string{"r0"}, []value.Value{rec}, []types.Type{decl})

	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	get := func() {
		ps, err := c.Get(decl)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 1 || !value.Equal(ps[0].Value, rec) {
			t.Fatalf("GET returned %v, want the one record", ps)
		}
	}
	for i := 0; i < 5; i++ {
		get()
	}
	allocs := processAllocs(200, get)
	t.Logf("a warm 1-record GET: %.1f allocations process-wide", allocs)
	if allocs > maxAllocs {
		t.Errorf("a warm 1-record GET costs %.0f allocations process-wide, want <= %d", allocs, maxAllocs)
	}
}

// TestServeGetMissAllocs: a warm loopback GET that matches nothing, the
// fixed cost of a request, costs at most 2.3 allocations in the whole
// process. It measures 2.0 with Go 1.24 on linux/amd64, and as many under
// -race: the client's copy of the reply frame and its field slice. The
// client encodes the query type into one of its kept type buffers and
// the frame into its connection's buffer, waits on a reused channel in a
// reused ring slot, and times the request by its reader's read deadline,
// not a timer; the server reads the request with one read into the
// session's buffers, finds the query type in the codec's type table, and
// writes the reply from the session's frame buffer.
func TestServeGetMissAllocs(t *testing.T) {
	const maxAllocs = 2.3
	srv, _, addr := serveWB(t, "miss.log", Config{})
	decl := types.MustParse("{Id: Int, Name: String}")
	commitRoots(t, srv, []string{"r0"}, []value.Value{value.Rec("Id", value.Int(1), "Name", value.String("one"))}, []types.Type{decl})

	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	miss := types.MustParse("{Nonesuch: Int}")
	get := func() {
		ps, err := c.Get(miss)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 0 {
			t.Fatalf("GET returned %v, want nothing", ps)
		}
	}
	for i := 0; i < 5; i++ {
		get()
	}
	allocs := processAllocs(200, get)
	t.Logf("a warm GET of nothing: %.1f allocations process-wide", allocs)
	if allocs > maxAllocs {
		t.Errorf("a warm GET of nothing costs %.1f allocations process-wide, want <= %g", allocs, maxAllocs)
	}
}

// rawCall sends one untraced request on conn and returns the reply frame
// whole, failing the test unless its opcode is want.
func rawCall(t *testing.T, conn net.Conn, want byte, op byte, fields ...[]byte) []byte {
	t.Helper()
	req, err := wire.AppendFrame(nil, 0, op, fields...)
	if err != nil {
		t.Fatal(err)
	}
	frame := rawExchange(t, conn, req)
	if got := frame[4]; got != want {
		t.Fatalf("%s answered %s, want %s", wire.OpName(op), wire.OpName(got), wire.OpName(want))
	}
	return frame
}

// getFrame is the reply frame a GET of vals, each at wit, must be.
func getFrame(t *testing.T, wit types.Type, vals ...value.Value) []byte {
	t.Helper()
	wits := make([]types.Type, len(vals))
	for i := range wits {
		wits[i] = wit
	}
	frame, err := wire.AppendFrame(nil, 0, wire.OpValues, layoutFields(t, vals, wits)...)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestGetServesTheCurrentValue: a GET answers a root's current value at
// every step of PUT r, a new PUT of r — autocommitted, and inside a
// transaction whose own GET reads it before the COMMIT — and DELETE r,
// each GET sent twice, so that the first of a member's replies writes
// its stored bytes and the second reads them.
func TestGetServesTheCurrentValue(t *testing.T) {
	_, _, addr := serveWB(t, "current.log", Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	decl := types.MustParse("{Name: String, N: Int, F: Float}")
	query, err := wire.MarshalType(decl)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(n int64) value.Value {
		return value.Rec("Name", value.String(fmt.Sprintf("value %d", n)), "N", value.Int(n<<20), "F", value.Float(float64(n)/3))
	}
	put := func(v value.Value) {
		t.Helper()
		img, err := codec.AppendTagged(nil, v, decl)
		if err != nil {
			t.Fatal(err)
		}
		rawCall(t, conn, wire.OpOK, wire.OpPut, []byte("r"), img)
	}
	gets := func(what string, vals ...value.Value) {
		t.Helper()
		want := getFrame(t, decl, vals...)
		for _, how := range []string{"first", "second"} {
			if got := rawCall(t, conn, wire.OpValues, wire.OpGet, query); !bytes.Equal(got, want) {
				t.Fatalf("%s: the %s GET's reply of %d bytes is not the current value's %d", what, how, len(got), len(want))
			}
		}
	}

	gets("before the first PUT")
	put(rec(1))
	gets("after PUT r", rec(1))
	put(rec(2))
	gets("after an autocommit PUT of a new value", rec(2))
	rawCall(t, conn, wire.OpOK, wire.OpBegin)
	put(rec(3))
	gets("inside the transaction", rec(3))
	rawCall(t, conn, wire.OpOK, wire.OpCommit)
	gets("after a PUT inside BEGIN/COMMIT", rec(3))
	rawCall(t, conn, wire.OpOK, wire.OpDelete, []byte("r"))
	gets("after DELETE r")
}

// TestFollowerAndReopenServeThePrimarysBytes: a follower that applied the
// primary's log, and a server reopened over that log, answer a GET with
// the frame the primary sends, byte for byte, before and after their
// members' bytes are stored.
func TestFollowerAndReopenServeThePrimarysBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "primary.log")
	psrv, pst := wbServer(t, iofault.OS{}, path, Config{})
	paddr := listen(t, psrv)
	vals, decl := replyFixture()
	names := make([]string, len(vals))
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
	}
	commitRoots(t, psrv, names, vals, decl)
	query, err := wire.MarshalType(decl[0])
	if err != nil {
		t.Fatal(err)
	}
	get := func(addr string) []byte {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		return rawCall(t, conn, wire.OpValues, wire.OpGet, query)
	}
	want := get(paddr)
	if got := get(paddr); !bytes.Equal(got, want) {
		t.Fatal("the primary's warm reply differs from its cold one")
	}

	fsrv, _, faddr := serveWB(t, "follower.log", Config{Follow: paddr})
	waitUntil(t, func() bool { return healthOf(t, fsrv).DurableEnd == pst.DurableEnd() }, "the follower never caught up")
	for _, how := range []string{"cold", "warm"} {
		if got := get(faddr); !bytes.Equal(got, want) {
			t.Fatalf("the follower's %s reply of %d bytes differs from the primary's %d", how, len(got), len(want))
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := psrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pst.Close(); err != nil {
		t.Fatal(err)
	}
	rsrv, _ := wbServer(t, iofault.OS{}, path, Config{})
	raddr := listen(t, rsrv)
	for _, how := range []string{"cold", "warm"} {
		if got := get(raddr); !bytes.Equal(got, want) {
			t.Fatalf("the reopened server's %s reply of %d bytes differs from the primary's %d", how, len(got), len(want))
		}
	}
}

// TestConcurrentFirstGets: GETs racing to be the first reply of one
// extent, each on its own connection, all answer the layout's frame, and
// so do the GETs after them. Run under -race.
func TestConcurrentFirstGets(t *testing.T) {
	srv, _, addr := serveWB(t, "race.log", Config{})
	vals, decl := replyFixture()
	names := make([]string, len(vals))
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
	}
	commitRoots(t, srv, names, vals, decl)
	query, err := wire.MarshalType(decl[0])
	if err != nil {
		t.Fatal(err)
	}
	req, err := wire.AppendFrame(nil, 0, wire.OpGet, query)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := srv.state.Load().idx.GetEntries(types.Intern(decl[0]))
	want := make([]value.Value, len(entries))
	wits := make([]types.Type, len(entries))
	for i, e := range entries {
		want[i], wits[i] = e.Dyn.Value(), e.Dyn.Type()
	}
	frame, err := wire.AppendFrame(nil, 0, wire.OpValues, layoutFields(t, want, wits)...)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	conns := make([]net.Conn, readers)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", addr); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	replies := make([][]byte, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := conn.Write(req); err != nil {
				t.Error(err)
				return
			}
			op, fields, err := wire.ReadFrame(conn, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if replies[i], err = wire.AppendFrame(nil, 0, op, fields...); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, got := range replies {
		if !bytes.Equal(got, frame) {
			t.Errorf("racing GET %d: reply of %d bytes differs from the layout's frame of %d", i, len(got), len(frame))
		}
	}
	if got := rawExchange(t, conns[0], req); !bytes.Equal(got, frame) {
		t.Errorf("the GET after the race: reply of %d bytes differs from the layout's frame of %d", len(got), len(frame))
	}
}

// replyFixture is 48 records at four witnesses, all subtypes of the
// first, holding every kind of atom, lists and a record shared across
// roots.
func replyFixture() ([]value.Value, []types.Type) {
	witness := []types.Type{
		types.MustParse("{Name: String, Id: Int}"),
		types.MustParse("{Name: String, Id: Int, Score: Float}"),
		types.MustParse("{Name: String, Id: Int, Addr: {City: String}}"),
		types.MustParse("{Name: String, Id: Int, Tags: List[String], Ok: Bool}"),
	}
	oslo := value.Rec("City", value.String("Oslo"))
	var vals []value.Value
	var decl []types.Type
	for i := range 48 {
		rec := value.Rec("Name", value.String(fmt.Sprintf("n%d", i)), "Id", value.Int(int64(i-24)<<(i%40)))
		switch i % 4 {
		case 1:
			rec.Set("Score", value.Float(float64(i)/7))
		case 2:
			rec.Set("Addr", oslo)
		case 3:
			rec.Set("Tags", value.NewList(value.String(""), value.String(fmt.Sprintf("tag %d", i))))
			rec.Set("Ok", value.Bool(i%2 == 1))
		}
		vals, decl = append(vals, rec), append(decl, witness[i%4])
	}
	return vals, decl
}
