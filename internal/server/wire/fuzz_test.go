package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// FuzzReadFrame is the wire-decoder contract, the same one
// persist/codec/fuzz_test.go enforces for the image codec: any byte
// stream — malformed frames, truncated length prefixes, oversize claims —
// yields frames or a *WireError, never a panic and never an allocation
// beyond the frame limit; and every frame that decodes re-encodes to a
// frame that decodes identically. A FrameReader carried across the
// inputs, its buffers kept for frames of up to 64 bytes, reads each input
// to the same frames and errors as ReadFrame, so a byte or a field left
// from an earlier frame would show.
func FuzzReadFrame(f *testing.F) {
	// Seed corpus: request and reply shapes the protocol defines, one
	// frame per wire.Ops row at its maximum arity, and degenerate inputs.
	mustFrame := func(op byte, fields ...[]byte) []byte {
		b, err := AppendFrame(nil, 0, op, fields...)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	typeImg, err := MarshalType(types.MustParse("{Name: String, Age: Int}"))
	if err != nil {
		f.Fatal(err)
	}
	tagged, err := codec.MarshalTagged(value.Rec("Name", value.String("J Doe")), nil)
	if err != nil {
		f.Fatal(err)
	}
	// A client-stamped idempotency key, as Put/Delete/Commit carry it.
	idemKey := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 9}
	f.Add(mustFrame(OpPing))
	f.Add(mustFrame(OpHealth))
	f.Add(mustFrame(OpGet, typeImg))
	f.Add(mustFrame(OpPut, []byte("root"), tagged))
	f.Add(mustFrame(OpPut, []byte("root"), tagged, idemKey))
	f.Add(mustFrame(OpDelete, []byte("root")))
	f.Add(mustFrame(OpDelete, []byte("root"), idemKey))
	f.Add(mustFrame(OpCommit, idemKey))
	f.Add(mustFrame(OpStats))
	// Index administration and plan inspection.
	f.Add(mustFrame(OpCreateIndex, []byte("Empno")))
	f.Add(mustFrame(OpCreateIndex, []byte("Empno"), idemKey))
	f.Add(mustFrame(OpDropIndex, []byte("Empno"), idemKey))
	f.Add(mustFrame(OpExplain, typeImg))
	f.Add(mustFrame(OpExplain, typeImg, typeImg))
	// Traced frames: flag set, leading uvarint trace-ID field.
	tracedOp, tracedFields := AppendTrace(OpGet, 0xDEADBEEF, [][]byte{typeImg})
	f.Add(mustFrame(tracedOp, tracedFields...))
	echoOp, echoFields := AppendTrace(OpOK, 0xDEADBEEF, nil)
	f.Add(mustFrame(echoOp, echoFields...))
	f.Add(mustFrame(OpGet | TraceFlag))                               // traced without a trace field
	f.Add(mustFrame(OpGet|TraceFlag, []byte{0xFF, 0xFF, 0xFF, 0xFF})) // unterminated trace uvarint
	f.Add(mustFrame(OpError, []byte{byte(CodeIO)}, []byte("write failed")))
	f.Add(mustFrame(OpError, ErrorFields(&WireError{Code: CodeOverloaded,
		Msg: "shed", RetryAfter: 50 * time.Millisecond})...))
	f.Add(mustFrame(OpOK, HealthFields(Health{Poisoned: true, InFlight: 7,
		Sessions: 2, Roots: 100, Uptime: time.Hour})...))
	// The durable watermark, and the refused shape cut after it.
	f.Add(mustFrame(OpOK, HealthFields(Health{DurableEnd: 1 << 20})...))
	f.Add(mustFrame(OpOK, HealthFields(Health{DurableEnd: 1 << 20})[:6]...))
	// Replication: the subscribe request and the stream frame, plus
	// damaged variants (truncated group bytes, oversize offset, bad CRC
	// trailer) — each must decode to a *WireError, never panic.
	f.Add(mustFrame(OpReplicate, ReplicateFields(8, 3, 50*time.Millisecond)...))
	f.Add(mustFrame(OpReplicate, ReplicateFields(8, 3, 50*time.Millisecond)[:2]...))                  // refused two-field form
	f.Add(mustFrame(OpReplicate, UvarintField(8), UvarintField(3), UvarintField(5)))                  // heartbeat under 10 ms
	f.Add(mustFrame(OpReplicate, UvarintField(8)))                                                    // refused single-field form
	f.Add(mustFrame(OpReplicate, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})) // > MaxInt64
	f.Add(mustFrame(OpRepData, ReplDataFields(8, []byte("NOTALOGGROUP"), 2, 0, 0)...))
	f.Add(func() []byte { // truncated group payload invalidating the CRC
		fields := ReplDataFields(8, []byte("group-bytes-here"), 2, 0, 0)
		fields[1] = fields[1][:4]
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(func() []byte { // flipped CRC trailer
		fields := ReplDataFields(8, []byte("group-bytes-here"), 2, 0, 0)
		fields[5][0] ^= 0x40
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(func() []byte { // flipped epoch field (the byte fencing trusts)
		fields := ReplDataFields(8, []byte("group-bytes-here"), 2, 0, 0)
		fields[2][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(mustFrame(OpRepData, []byte{8}, []byte("raw"))) // missing trailer
	// A frame with trace context, plus damaged variants (flipped trace ID,
	// flipped commit timestamp, truncated to five fields) — corrupt trace
	// context must fail the CRC, never leak into a follower's apply path.
	f.Add(mustFrame(OpRepData, ReplDataFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)...))
	f.Add(func() []byte { // flipped trace-ID field
		fields := ReplDataFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)
		fields[3][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(func() []byte { // flipped commit-time field
		fields := ReplDataFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)
		fields[4][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(mustFrame(OpRepData, ReplDataFields(8, []byte("group-bytes-here"), 2, 0xDEADBEEF, 1<<60)[:5]...))
	// The TRACES opcode: empty request, a response field carrying junk
	// that the trace decoder must reject gracefully, and a traced TRACES
	// request (flag + trace ID on the trace-fetch itself).
	f.Add(mustFrame(OpTraces))
	f.Add(mustFrame(OpOK, []byte{'T', 1, 0xFF, 0xFF}))
	tracesOp, tracesFields := AppendTrace(OpTraces, 0xBEEF, nil)
	f.Add(mustFrame(tracesOp, tracesFields...))
	// The heartbeat, a REPDATA frame with no groups: valid, with a flipped
	// CRC, and missing its trailer.
	f.Add(mustFrame(OpRepData, ReplDataFields(1<<40, nil, 5, 0, 0)...))
	f.Add(func() []byte {
		fields := ReplDataFields(1<<40, nil, 5, 0, 0)
		fields[5][0] ^= 0x01
		return mustFrame(OpRepData, fields...)
	}())
	f.Add(mustFrame(OpRepData, ReplDataFields(1<<40, nil, 5, 0, 0)[:5]...))
	// Failover: the self-promote order, the fence notification, and a
	// malformed fence epoch.
	f.Add(mustFrame(OpPromote))
	f.Add(mustFrame(OpPromote, FenceFields(9, "10.0.0.2:7070")...))
	f.Add(mustFrame(OpPromote, []byte{0xFF}, []byte("addr")))
	// The eight-field HEALTH payload with role and epoch, the refused
	// seven-field shape, the refused nine-field shape that carried an
	// acknowledged-end watermark after the durable end, and the refused
	// flags byte with bit 1 (the retired read-only flag) set.
	health := HealthFields(Health{Role: RoleFenced, Epoch: 4, DurableEnd: 1 << 20})
	f.Add(mustFrame(OpOK, health...))
	f.Add(mustFrame(OpOK, append([][]byte{{2}}, health[1:]...)...))
	f.Add(mustFrame(OpOK, health[:7]...))
	f.Add(mustFrame(OpOK, append(append(append([][]byte{}, health[:6]...), UvarintField(1<<20+512)), health[6:]...)...))
	// The refused REPDATA shapes: three fields (CRC over offset and raw)
	// and four (plus the epoch), each with a trailer that matches.
	f.Add(func() []byte {
		off, raw := UvarintField(8), []byte("group-bytes-here")
		sum := crc32.Update(crc32.Update(0, replCRCTable, off), replCRCTable, raw)
		return mustFrame(OpRepData, off, raw, binary.LittleEndian.AppendUint32(nil, sum))
	}())
	f.Add(func() []byte {
		off, raw, ep := UvarintField(8), []byte("group-bytes-here"), UvarintField(2)
		var sum uint32
		for _, b := range [][]byte{off, raw, ep} {
			sum = crc32.Update(sum, replCRCTable, b)
		}
		return mustFrame(OpRepData, off, raw, ep, binary.LittleEndian.AppendUint32(nil, sum))
	}())
	f.Add(append(mustFrame(OpBegin), mustFrame(OpCommit)...)) // pipelined
	for op := OpPing; op <= LastRequestOp; op++ {
		fields := make([][]byte, Ops[op].Max)
		for i := range fields {
			fields[i] = []byte{byte(i)}
		}
		f.Add(mustFrame(op, fields...))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add(mustFrame(OpGet, typeImg)[:7]) // truncated mid-payload
	f.Add(func() []byte {                // field length claiming past the end
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 3)
		return append(hdr[:], OpGet, 0xF0, 0x01)
	}())

	const limit = 1 << 20
	fr := NewFrameReader(nil, limit, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr.br.Reset(bytes.NewReader(data))
		for {
			op, fields, err := ReadFrame(r, limit)
			kop, kfields, kerr := fr.ReadFrame()
			if (err == nil) != (kerr == nil) || err != nil && err.Error() != kerr.Error() {
				t.Fatalf("ReadFrame: %v; the FrameReader: %v", err, kerr)
			}
			if err == nil && (kop != op || len(kfields) != len(fields)) {
				t.Fatalf("the FrameReader read op %#x with %d fields, ReadFrame op %#x with %d", kop, len(kfields), op, len(fields))
			}
			for i := range kfields {
				if !bytes.Equal(kfields[i], fields[i]) {
					t.Fatalf("the FrameReader read field %d as %x, ReadFrame as %x", i, kfields[i], fields[i])
				}
			}
			if err != nil {
				// Every failure must be a classified wire error or a raw
				// transport error at/inside the header.
				var we *WireError
				if !errors.As(err, &we) && err != io.EOF && err != io.ErrUnexpectedEOF {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			// Decoded frames re-encode and re-decode to the same frame.
			reenc, err := AppendFrame(nil, limit, op, fields...)
			if err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			op2, fields2, err := ReadFrame(bytes.NewReader(reenc), limit)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if op2 != op || len(fields2) != len(fields) {
				t.Fatalf("re-decode mismatch: op %#x/%#x, %d/%d fields",
					op, op2, len(fields), len(fields2))
			}
			for i := range fields {
				if !bytes.Equal(fields[i], fields2[i]) {
					t.Fatalf("field %d mismatch", i)
				}
			}
			// The payload decoders refuse what they cannot read with a
			// *WireError, never a panic.
			base, _, rest, _, derr := SplitTrace(op, fields)
			switch {
			case derr != nil:
			case base == OpReplicate:
				derr = decodeReplicateReq(rest)
			case base == OpRepData:
				derr = decodeReplData(rest)
			case base == OpOK:
				derr = decodeHealth(rest)
			}
			var we *WireError
			if derr != nil && !errors.As(derr, &we) {
				t.Fatalf("unclassified payload decode error: %v", derr)
			}
		}
	})
}
