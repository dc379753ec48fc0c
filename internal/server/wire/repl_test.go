package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"
)

// TestReplicateReqRoundTrip: the subscribe request carries its offset,
// the subscriber's epoch and its heartbeat interval losslessly, and
// malformed offsets and intervals outside [10 ms, 60 s] are typed bad
// requests.
func TestReplicateReqRoundTrip(t *testing.T) {
	for _, from := range []int64{0, 8, 1 << 20, 1<<62 + 12345} {
		for _, epoch := range []uint64{0, 1, 1 << 50} {
			for _, hb := range []time.Duration{MinReplHeartbeat, 50 * time.Millisecond, time.Second, MaxReplHeartbeat} {
				got, gotEpoch, gotHB, err := DecodeReplicateReq(ReplicateFields(from, epoch, hb))
				if err != nil {
					t.Fatalf("DecodeReplicateReq(%d, %d, %v): %v", from, epoch, hb, err)
				}
				if got != from || gotEpoch != epoch || gotHB != hb {
					t.Fatalf("(%d, %d, %v) round-tripped to (%d, %d, %v)", from, epoch, hb, got, gotEpoch, gotHB)
				}
			}
		}
	}
	off, ep := UvarintField(8), UvarintField(0)
	bad := [][][]byte{
		{},                                // no fields
		{off},                             // one field
		{off, ep},                         // two fields
		{{1}, {2}, {3}, {4}},              // four fields
		{{0xFF}, ep, UvarintField(1000)},  // unterminated uvarint
		{off, {0xFF}, UvarintField(1000)}, // unterminated epoch
		{off, ep, {0xFF}},                 // unterminated heartbeat
		{off, ep, UvarintField(9)},        // heartbeat under 10 ms
		{off, ep, UvarintField(0)},        // no heartbeat
		{off, ep, UvarintField(60_001)},   // heartbeat over 60 s
		{off, ep, UvarintField(1 << 63)},  // a heartbeat no Duration holds
		{{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, ep, UvarintField(1000)}, // > MaxInt64
	}
	for i, fields := range bad {
		if _, _, _, err := DecodeReplicateReq(fields); !errors.Is(err, ErrBadRequest) {
			t.Errorf("bad request %d decoded to %v, want ErrBadRequest", i, err)
		}
	}
}

// TestReplDataRoundTrip: a REPDATA frame carries offset, raw group bytes
// and the primary's epoch under a CRC-32C that survives encode/decode; a
// chunk with no commit link carries zero trace context.
func TestReplDataRoundTrip(t *testing.T) {
	raw := []byte("pretend-commit-group-bytes")
	d, err := DecodeReplData(ReplDataFields(4096, raw, 7, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != 4096 || !bytes.Equal(d.Raw, raw) || d.Epoch != 7 {
		t.Fatalf("round trip = (%d, %q, %d), want (4096, %q, 7)", d.Start, d.Raw, d.Epoch, raw)
	}
	if d.Trace != 0 || d.CommitNS != 0 {
		t.Fatalf("untraced frame decoded trace context: %+v", d)
	}
	// Empty payload is legal (it cannot happen on a live stream, but the
	// decoder must not care).
	if d, err = DecodeReplData(ReplDataFields(8, nil, 0, 0, 0)); err != nil || len(d.Raw) != 0 {
		t.Fatalf("empty round trip = (%q, %v)", d.Raw, err)
	}
}

// TestReplDataTraceForm: the frame carries the originating commit's trace
// ID and publication time under the CRC, and a flipped bit in either is
// caught.
func TestReplDataTraceForm(t *testing.T) {
	raw := []byte("group-bytes")
	fields := ReplDataFields(4096, raw, 7, 0xabcdef, 1722222222000000000)
	if len(fields) != 6 {
		t.Fatalf("REPDATA has %d fields, want 6", len(fields))
	}
	d, err := DecodeReplData(fields)
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != 4096 || !bytes.Equal(d.Raw, raw) || d.Epoch != 7 ||
		d.Trace != 0xabcdef || d.CommitNS != 1722222222000000000 {
		t.Fatalf("traced round trip = %+v", d)
	}
	for _, field := range []int{3, 4} {
		fields := ReplDataFields(4096, raw, 7, 0xabcdef, 1722222222000000000)
		fields[field] = append([]byte(nil), fields[field]...)
		fields[field][0] ^= 0x01
		if _, err := DecodeReplData(fields); !errors.Is(err, ErrRemoteCorrupt) {
			t.Errorf("flipped field %d decoded to %v, want ErrRemoteCorrupt", field, err)
		}
	}
}

// TestRemovedFrameShapesRefused: the frame shapes of earlier servers —
// three- and four-field REPDATA, six-, seven- and nine-field HEALTH (the
// last carried an acknowledged-end watermark after the durable end), a
// HEALTH whose flags set bit 1 (the retired read-only flag, which the
// role states), and one- and two-field REPLICATE (no heartbeat interval)
// — are refused with a typed error, never decoded with defaults and never
// a panic.
func TestRemovedFrameShapesRefused(t *testing.T) {
	raw := []byte("group-bytes")
	off := UvarintField(4096)
	crcOf := func(fields ...[]byte) []byte {
		var sum uint32
		for _, f := range fields {
			sum = crc32.Update(sum, replCRCTable, f)
		}
		return binary.LittleEndian.AppendUint32(nil, sum)
	}
	ep := UvarintField(7)
	health := HealthFields(Health{DurableEnd: 500, Role: RoleFollower, Epoch: 2})
	healthAcked := append(append(append([][]byte{}, health[:6]...), UvarintField(600)), health[6:]...)
	healthReadOnly := append([][]byte{{2}}, health[1:]...)
	for _, tc := range []struct {
		name   string
		decode func([][]byte) error
		fields [][]byte
		want   error
	}{
		{"REPDATA 3 fields", decodeReplData, [][]byte{off, raw, crcOf(off, raw)}, ErrBadFrame},
		{"REPDATA 4 fields", decodeReplData, [][]byte{off, raw, ep, crcOf(off, raw, ep)}, ErrBadFrame},
		{"HEALTH 6 fields", decodeHealth, health[:6], ErrBadFrame},
		{"HEALTH 7 fields", decodeHealth, health[:7], ErrBadFrame},
		{"HEALTH 9 fields", decodeHealth, healthAcked, ErrBadFrame},
		{"HEALTH read-only flag", decodeHealth, healthReadOnly, ErrBadFrame},
		{"REPLICATE 1 field", decodeReplicateReq, [][]byte{off}, ErrBadRequest},
		{"REPLICATE 2 fields", decodeReplicateReq, [][]byte{off, ep}, ErrBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode(tc.fields)
			var we *WireError
			if !errors.Is(err, tc.want) || !errors.As(err, &we) {
				t.Fatalf("decoded to %v, want a WireError matching %v", err, tc.want)
			}
		})
	}
}

func decodeReplData(f [][]byte) error     { _, err := DecodeReplData(f); return err }
func decodeHealth(f [][]byte) error       { _, err := DecodeHealth(f); return err }
func decodeReplicateReq(f [][]byte) error { _, _, _, err := DecodeReplicateReq(f); return err }

// TestReplDataDetectsCorruption: any bit flip — in the offset, the
// payload, the epoch, or the trailer itself — fails the checksum with
// CodeCorrupt, which tells the follower to drop the link and resubscribe
// rather than apply the bytes (or fence on a damaged epoch).
func TestReplDataDetectsCorruption(t *testing.T) {
	raw := []byte("pretend-commit-group-bytes")
	for _, flip := range []struct {
		name  string
		field int
		bit   byte
	}{
		{"offset", 0, 0x01},
		{"payload", 1, 0x80},
		{"epoch", 2, 0x01},
		{"trailer", 5, 0x10},
	} {
		fields := ReplDataFields(4096, raw, 99, 0, 0)
		fields[flip.field] = append([]byte(nil), fields[flip.field]...)
		fields[flip.field][0] ^= flip.bit
		_, err := DecodeReplData(fields)
		if !errors.Is(err, ErrRemoteCorrupt) {
			t.Errorf("flipped %s decoded to %v, want ErrRemoteCorrupt", flip.name, err)
		}
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeCorrupt {
			t.Errorf("flipped %s: %v is not a CodeCorrupt WireError", flip.name, err)
		}
	}
}

// TestReplDataMalformed: structurally damaged frames are CodeBadFrame,
// never a panic.
func TestReplDataMalformed(t *testing.T) {
	good := ReplDataFields(8, []byte("raw"), 1, 2, 3)
	with := func(i int, f []byte) [][]byte {
		fields := append([][]byte(nil), good...)
		fields[i] = f
		return fields
	}
	bad := [][][]byte{
		{},                    // no fields
		good[:2],              // missing epoch, trace context and trailer
		good[:5],              // five fields
		with(5, []byte{1}),    // short trailer
		with(0, []byte{0xFF}), // unterminated offset
		with(0, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}), // oversize offset
		with(3, []byte{0xFF}), // unterminated trace ID
	}
	for i, fields := range bad {
		if _, err := DecodeReplData(fields); !errors.Is(err, ErrBadFrame) {
			t.Errorf("malformed frame %d decoded to %v, want ErrBadFrame", i, err)
		}
	}
}

// TestHeartbeatRoundTrip: the keepalive, a REPDATA frame with no groups,
// carries the primary's durable end as its start and its epoch, both
// under the CRC: a flipped byte in either is CodeCorrupt, so a follower
// never fences on, or reports lag from, a damaged heartbeat.
func TestHeartbeatRoundTrip(t *testing.T) {
	got, err := DecodeReplData(ReplDataFields(1<<40, nil, 12, 0, 0))
	if err != nil || got.Start != 1<<40 || got.Epoch != 12 || len(got.Raw) != 0 || got.Trace != 0 || got.CommitNS != 0 {
		t.Fatalf("heartbeat round trip = (%+v, %v)", got, err)
	}
	for _, flip := range []struct {
		name  string
		field int
	}{{"end", 0}, {"epoch", 2}} {
		fields := ReplDataFields(1<<40, nil, 12, 0, 0)
		fields[flip.field][0] ^= 0x01
		_, err := DecodeReplData(fields)
		var we *WireError
		if !errors.As(err, &we) || we.Code != CodeCorrupt {
			t.Errorf("heartbeat with a flipped %s decoded to %v, want a CodeCorrupt WireError", flip.name, err)
		}
	}
}

// TestPromoteRoundTrip: the PROMOTE request's two faces — the empty
// self-promote order and the [epoch, newPrimary] fence notification.
func TestPromoteRoundTrip(t *testing.T) {
	epoch, addr, fence, err := DecodePromote(nil)
	if err != nil || fence || epoch != 0 || addr != "" {
		t.Fatalf("self-promote decode = (%d, %q, %v, %v)", epoch, addr, fence, err)
	}
	epoch, addr, fence, err = DecodePromote(FenceFields(9, "10.0.0.2:7070"))
	if err != nil || !fence || epoch != 9 || addr != "10.0.0.2:7070" {
		t.Fatalf("fence decode = (%d, %q, %v, %v)", epoch, addr, fence, err)
	}
	for i, fields := range [][][]byte{{{1}}, {{1}, {2}, {3}}, {{0xFF}, []byte("x")}} {
		if _, _, _, err := DecodePromote(fields); !errors.Is(err, ErrBadRequest) {
			t.Errorf("malformed PROMOTE %d decoded to %v, want ErrBadRequest", i, err)
		}
	}
}

// TestHealthCarriesReplicationFields: the extended HEALTH payload round-
// trips the role, epoch and durable offset next to the
// original fields, and a short frame stays a typed decode error.
func TestHealthCarriesReplicationFields(t *testing.T) {
	want := Health{
		Poisoned: true,
		InFlight: 3, Sessions: 9, Roots: 42,
		Uptime: 90210, DurableEnd: 1 << 33,
		Role: RoleFenced, Epoch: 4,
	}
	got, err := DecodeHealth(HealthFields(want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Health round trip = %+v, want %+v", got, want)
	}
	if _, err := DecodeHealth(HealthFields(want)[:5]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short HEALTH decoded to %v, want ErrBadFrame", err)
	}
}
