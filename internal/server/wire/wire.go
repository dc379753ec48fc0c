// Package wire is the dbpl network protocol: the framing, opcodes and
// error taxonomy shared by the server (internal/server) and the client
// package (dbpl/client).
//
// A frame is a 4-byte big-endian payload length followed by the payload:
// one opcode byte and zero or more *fields*, each a uvarint length prefix
// followed by that many bytes. Fields carry UTF-8 names, single bytes
// (error codes, booleans) or complete persist/codec images — the same
// self-describing value+type encoding every persistence store uses, so a
// value travels the network exactly as it travels to disk (the paper's
// second principle: while a value persists — or here, transits — so does
// its type).
//
// The decoder is hardened the same way the image codec is: a malformed
// frame, a truncated length prefix or an oversize length claim yields a
// *WireError, never a panic and never an allocation larger than the
// configured frame limit. FuzzReadFrame enforces this.
//
// Remote failures keep their local diagnosability: a *WireError carries a
// Code and the server's message, and unwraps to a per-code sentinel —
// CodeIO additionally unwraps to iofault.ErrIOFailed, so
// errors.Is(err, iofault.ErrIOFailed) holds across the network exactly as
// it does against a local store.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"

	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
)

// MaxFrame is the default bound on a frame payload. A peer claiming a
// larger frame is refused before any allocation.
const MaxFrame = 16 << 20

const headerLen = 4

// Request opcodes; their rows in Ops give their fields and replies. The
// keyed write opcodes (PUT, DELETE, COMMIT, CREATEINDEX, DROPINDEX)
// accept one optional trailing field: a
// client-stamped *idempotency key*, opaque bytes the server remembers in
// a bounded LRU of applied write ids so a retried frame — sent again
// because the acknowledgement was lost, not because the write failed —
// applies exactly once.
const (
	OpPing   byte = 0x01
	OpGet    byte = 0x02
	OpPut    byte = 0x03
	OpDelete byte = 0x04
	OpJoin   byte = 0x05
	OpBegin  byte = 0x06
	OpCommit byte = 0x07
	OpAbort  byte = 0x08
	OpNames  byte = 0x09
	OpHealth byte = 0x0A
	OpStats  byte = 0x0B
	// Index administration (keyed writes) and plan inspection.
	OpCreateIndex byte = 0x0C
	OpDropIndex   byte = 0x0D
	OpExplain     byte = 0x0E
	// OpReplicate subscribes the connection to the primary's log:
	// [from, epoch, heartbeat-ms] — the uvarint durable offset, the
	// subscriber's promotion epoch and the heartbeat interval it times
	// the link by; a server seeing a subscriber with a
	// higher epoch than its own has been superseded and fences itself.
	// The server answers with an open-ended stream of OpRepData frames
	// instead of a single response, from the log head when the
	// subscriber's epoch is below the server's, heartbeating at the
	// subscriber's interval; the connection carries nothing else
	// afterwards.
	OpReplicate byte = 0x0F
	// OpPromote is failover administration, gated by the server's
	// -allow-promote flag. With no fields it orders this server to
	// promote: bump the store epoch durably, leave follower mode and
	// start accepting writes ([] -> OK [epoch]). With fields
	// [epoch, newPrimaryAddr] it is the fence notification a newly
	// promoted primary sends its old upstream: you have been superseded
	// at this epoch, enter fenced read-only mode and refer writers to
	// newPrimaryAddr ([epoch, addr] -> OK []).
	OpPromote byte = 0x10
	// OpTraces fetches the server's ring of completed request trace
	// trees ([] -> OK [trace-json...], one trace's JSON per field,
	// newest first — see internal/telemetry/trace). The server treats it
	// as a monitor request, like STATS, so span trees stay fetchable from
	// an overloaded server (docs/SERVER.md, "Request classes").
	OpTraces byte = 0x11
)

// Response opcodes. OpRepData is the replication stream (see
// OpReplicate): REPDATA carries whole commit groups as raw log bytes with
// the primary's epoch and trace context, where the 4-byte little-endian
// CRC-32C trailer covers every preceding field — so a flipped bit
// anywhere in the frame is detected before the follower touches its log
// (see ReplDataFields). A REPDATA frame with no groups is the idle
// keepalive: its start is the primary's durable end, letting a follower
// distinguish a quiet primary from a dead link and track lag while fully
// caught up. 0x84, the old two-field keepalive, is retired.
const (
	OpOK      byte = 0x80
	OpValues  byte = 0x81 // [types, rows] (codec.ReplyWriter), or none
	OpError   byte = 0x82 // [code(1), message]
	OpRepData byte = 0x83 // [startOffset, rawGroups, epoch, trace, commitNS, crc32c(4)]
)

// TraceFlag marks a *traced* frame in either direction: the opcode byte
// has this bit set and the first field is a uvarint trace ID. A client
// stamps requests with trace IDs so the server can attribute the entries
// of its trace ring to the exact client call that suffered them; the
// server echoes
// the ID (and the flag) on the response. The extension is optional — a
// bare frame is answered untraced — and request opcodes (< 0x40) and
// response opcodes (0x80–0xBF) never collide with the flag.
const TraceFlag byte = 0x40

// Class is a request opcode's class. It alone decides how the server
// treats a request before its handler runs: head sampling, admission, the
// drain check and the role gate (docs/SERVER.md, "Request classes").
type Class uint8

const (
	ClassNone    Class = iota // not a request opcode: CodeUnknownOp, op="unknown"
	ClassMonitor              // never traced or admitted; answers while draining
	ClassRead
	ClassWrite // refused on a non-primary with CodeReadOnly or CodeFenced
	ClassAdmin
	ClassStream // takes the connection over
)

var classNames = [...]string{"none", "monitor", "read", "write", "admin", "stream"}

// String names the class as docs/SERVER.md does.
func (c Class) String() string { return classNames[c] }

// Op is one row of the protocol table: a request opcode's name, class,
// the bounds on its field count (the trace field excluded) and the
// opcode of its successful reply. A request outside the bounds is refused
// with CodeBadRequest before its handler runs.
type Op struct {
	Name     string
	Class    Class
	Min, Max int
	Reply    byte
}

// Ops is the protocol table, indexed by opcode: the one place a request
// opcode's name, class, arity and reply are written. The server's request
// table, both ends' per-opcode metric series, the fuzz seeds and the
// checks of docs/SERVER.md all read it. Index 0 is no opcode. The
// comments give each row's fields and reply fields, "key?" the optional
// idempotency key.
var Ops = [...]Op{
	OpPing:        {"PING", ClassAdmin, 0, 0, OpOK},            // [] -> []
	OpGet:         {"GET", ClassRead, 1, 1, OpValues},          // [type-image] -> [types, rows], or [] when empty
	OpPut:         {"PUT", ClassWrite, 2, 3, OpOK},             // [name, tagged-image, key?]
	OpDelete:      {"DELETE", ClassWrite, 1, 2, OpOK},          // [name, key?] -> [existed(1)]
	OpJoin:        {"JOIN", ClassRead, 2, 2, OpValues},         // [type-image, type-image] -> [types, rows], or []
	OpBegin:       {"BEGIN", ClassWrite, 0, 0, OpOK},           // [] -> []
	OpCommit:      {"COMMIT", ClassWrite, 0, 1, OpOK},          // [key?]
	OpAbort:       {"ABORT", ClassRead, 0, 0, OpOK},            // [] -> []
	OpNames:       {"NAMES", ClassRead, 0, 0, OpOK},            // -> [name...]
	OpHealth:      {"HEALTH", ClassMonitor, 0, 0, OpOK},        // -> HealthFields
	OpStats:       {"STATS", ClassMonitor, 0, 0, OpOK},         // -> [snapshot-json]
	OpCreateIndex: {"CREATEINDEX", ClassWrite, 1, 2, OpOK},     // [field, key?] -> [created(1)]
	OpDropIndex:   {"DROPINDEX", ClassWrite, 1, 2, OpOK},       // [field, key?] -> [existed(1)]
	OpExplain:     {"EXPLAIN", ClassRead, 1, 2, OpOK},          // [type-image, type-image?] -> [plan-text]
	OpReplicate:   {"REPLICATE", ClassStream, 3, 3, OpRepData}, // ReplicateFields -> the stream of REPDATA frames
	OpPromote:     {"PROMOTE", ClassAdmin, 0, 2, OpOK},         // [] -> [epoch], or FenceFields -> []
	OpTraces:      {"TRACES", ClassMonitor, 0, 0, OpOK},        // -> [trace-json...]
}

// LastRequestOp is the highest assigned request opcode: request opcodes
// are [OpPing, LastRequestOp], and tables indexed by opcode are sized by
// it. Request opcodes must stay below TraceFlag.
const LastRequestOp = byte(len(Ops) - 1)

// Lookup returns op's row, the zero row (ClassNone) when op is not a
// request opcode.
func Lookup(op byte) Op {
	if int(op) < len(Ops) {
		return Ops[op]
	}
	return Op{}
}

// CheckFields refuses a request of n fields outside the row's bounds.
func (o Op) CheckFields(n int) error {
	switch {
	case n >= o.Min && n <= o.Max:
		return nil
	case o.Min == o.Max:
		return errf(CodeBadRequest, "%s wants %d fields, got %d", o.Name, o.Min, n)
	}
	return errf(CodeBadRequest, "%s wants %d to %d fields, got %d", o.Name, o.Min, o.Max, n)
}

// replyNames names the response opcodes, OpOK onwards.
var replyNames = [...]string{"OK", "VALUES", "ERROR", "REPDATA"}

// OpName names a request or response opcode for logs, metrics and the
// trace ring; a traced opcode names the same as its base. Unknown
// opcodes render as "op(0xNN)" — callers using names as metric labels
// must not feed them unvalidated peer opcodes, or a hostile peer could
// mint unbounded label cardinality.
func OpName(op byte) string {
	op &^= TraceFlag
	if name := Lookup(op).Name; name != "" {
		return name
	}
	if op >= OpOK && int(op-OpOK) < len(replyNames) {
		return replyNames[op-OpOK]
	}
	return fmt.Sprintf("op(%#x)", op)
}

// AppendTrace turns an untraced frame into a traced one: sets the flag
// on op and prepends the trace-ID field.
func AppendTrace(op byte, trace uint64, fields [][]byte) (byte, [][]byte) {
	return op | TraceFlag, append([][]byte{UvarintField(trace)}, fields...)
}

// SplitTrace undoes AppendTrace: for a traced frame it strips the flag
// and consumes the leading trace-ID field; an untraced frame passes
// through. A traced frame without a well-formed trace field is a
// protocol violation.
func SplitTrace(op byte, fields [][]byte) (base byte, trace uint64, rest [][]byte, traced bool, err error) {
	if op&TraceFlag == 0 {
		return op, 0, fields, false, nil
	}
	if len(fields) == 0 {
		return 0, 0, nil, false, errf(CodeBadFrame, "traced frame without a trace-ID field")
	}
	v, ok := uvarintOf(fields[0])
	if !ok {
		return 0, 0, nil, false, errf(CodeBadFrame, "malformed trace-ID field")
	}
	return op &^ TraceFlag, v, fields[1:], true, nil
}

// Code classifies a remote failure, mirroring the local error taxonomy of
// the stores (iofault.IOError, intrinsic.CorruptError, the intrinsic
// binding errors). Codes are wire format: values are stable.
type Code byte

const (
	// CodeBadFrame: the frame itself was malformed (bad length prefix,
	// truncated payload, empty frame). The connection is closed after it.
	CodeBadFrame Code = 1 + iota
	// CodeTooLarge: a length claim exceeded the frame limit.
	CodeTooLarge
	// CodeUnknownOp: the opcode is not in the protocol.
	CodeUnknownOp
	// CodeBadRequest: the frame was well-formed but a field was not (bad
	// image, wrong field count).
	CodeBadRequest
	// CodeNoRoot: no handle with the requested name.
	CodeNoRoot
	// CodeNotConforming: the value does not conform to its declared type.
	CodeNotConforming
	// CodeInconsistent: stored and requested types are inconsistent, or
	// migration would be required (the schema-evolution failures).
	CodeInconsistent
	// CodeTxn: a transaction-state error (COMMIT without BEGIN, nested
	// BEGIN).
	CodeTxn
	// CodeIO: the store failed an I/O operation; unwraps to
	// iofault.ErrIOFailed.
	CodeIO
	// CodeCorrupt: the store detected log corruption.
	CodeCorrupt
	// CodeShutdown: the server is draining and refused the request.
	CodeShutdown
	// CodeInternal: an unclassified server-side failure.
	CodeInternal
	// CodeOverloaded: admission control shed the request — the in-flight
	// cap was reached. The error carries a retry-after hint; the request
	// was not executed and is safe to retry.
	CodeOverloaded
	// CodeDegraded: the server's write path is poisoned (a failed commit
	// could not be rolled back) and it is running in degraded read-only
	// mode; reads and HEALTH keep working until the process restarts.
	CodeDegraded
	// CodeReadOnly: the server is a replication follower and permanently
	// refuses writes; the message names the primary to send them to.
	// Unlike CodeOverloaded this is never retryable against this server —
	// a follower does not become writable by waiting.
	CodeReadOnly
	// CodeFenced: this server was the primary but observed a higher
	// promotion epoch — another node was promoted over it — and now
	// refuses writes so the forked histories can never both be
	// acknowledged. The message names the new primary. Never retryable
	// against this server, but the client's failover logic re-probes the
	// replica set and re-pins writes at the new primary.
	CodeFenced
)

// lastCode is the highest assigned code. The exhaustiveness test walks
// [CodeBadFrame, lastCode]; update it when appending a code.
const lastCode = CodeFenced

// Per-code sentinels; a *WireError unwraps to the sentinel of its code so
// clients dispatch with errors.Is.
var (
	ErrBadFrame      = errors.New("wire: malformed frame")
	ErrTooLarge      = errors.New("wire: frame exceeds size limit")
	ErrUnknownOp     = errors.New("wire: unknown opcode")
	ErrBadRequest    = errors.New("wire: malformed request")
	ErrNoRoot        = errors.New("wire: no such root")
	ErrNotConforming = errors.New("wire: value does not conform to declared type")
	ErrInconsistent  = errors.New("wire: types are inconsistent")
	ErrTxn           = errors.New("wire: transaction state error")
	ErrRemoteIO      = errors.New("wire: remote i/o failure")
	ErrRemoteCorrupt = errors.New("wire: remote store corrupt")
	ErrShutdown      = errors.New("wire: server shutting down")
	ErrInternal      = errors.New("wire: internal server error")
	ErrOverloaded    = errors.New("wire: server overloaded")
	ErrDegraded      = errors.New("wire: server degraded to read-only")
	ErrReadOnly      = errors.New("wire: server is a read-only replication follower")
	ErrFenced        = errors.New("wire: server is fenced: a higher promotion epoch exists")
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeBadFrame:
		return "bad-frame"
	case CodeTooLarge:
		return "too-large"
	case CodeUnknownOp:
		return "unknown-op"
	case CodeBadRequest:
		return "bad-request"
	case CodeNoRoot:
		return "no-root"
	case CodeNotConforming:
		return "not-conforming"
	case CodeInconsistent:
		return "inconsistent"
	case CodeTxn:
		return "txn"
	case CodeIO:
		return "io"
	case CodeCorrupt:
		return "corrupt"
	case CodeShutdown:
		return "shutdown"
	case CodeInternal:
		return "internal"
	case CodeOverloaded:
		return "overloaded"
	case CodeDegraded:
		return "degraded"
	case CodeReadOnly:
		return "read-only"
	case CodeFenced:
		return "fenced"
	default:
		return fmt.Sprintf("code(%d)", byte(c))
	}
}

// Sentinel returns the errors.Is target for the code.
func (c Code) Sentinel() error {
	switch c {
	case CodeBadFrame:
		return ErrBadFrame
	case CodeTooLarge:
		return ErrTooLarge
	case CodeUnknownOp:
		return ErrUnknownOp
	case CodeBadRequest:
		return ErrBadRequest
	case CodeNoRoot:
		return ErrNoRoot
	case CodeNotConforming:
		return ErrNotConforming
	case CodeInconsistent:
		return ErrInconsistent
	case CodeTxn:
		return ErrTxn
	case CodeIO:
		return ErrRemoteIO
	case CodeCorrupt:
		return ErrRemoteCorrupt
	case CodeShutdown:
		return ErrShutdown
	case CodeOverloaded:
		return ErrOverloaded
	case CodeDegraded:
		return ErrDegraded
	case CodeReadOnly:
		return ErrReadOnly
	case CodeFenced:
		return ErrFenced
	default:
		return ErrInternal
	}
}

// WireError is a protocol-level failure: which class, and the peer's (or
// decoder's) diagnostic message. RetryAfter, when positive, is the
// server's backoff hint — how long the peer should wait before retrying
// (carried on CodeOverloaded refusals).
type WireError struct {
	Code       Code
	Msg        string
	RetryAfter time.Duration
}

func (e *WireError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wire: %s", e.Code)
	}
	return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg)
}

// Unwrap exposes the per-code sentinel; CodeIO failures additionally
// unwrap to iofault.ErrIOFailed, keeping remote store failures in the
// same taxonomy as local ones.
func (e *WireError) Unwrap() []error {
	if e.Code == CodeIO {
		return []error{e.Code.Sentinel(), iofault.ErrIOFailed}
	}
	return []error{e.Code.Sentinel()}
}

// errf builds a *WireError.
func errf(c Code, format string, args ...any) *WireError {
	return &WireError{Code: c, Msg: fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

// AppendFrame appends the encoded frame to dst and returns it, or an error
// if the frame would exceed max (<= 0 means MaxFrame). dst grows at most
// once, to the frame's size.
func AppendFrame(dst []byte, max int, op byte, fields ...[]byte) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	n := 1
	var lenBuf [binary.MaxVarintLen64]byte
	for _, f := range fields {
		n += binary.PutUvarint(lenBuf[:], uint64(len(f))) + len(f)
	}
	if n > max {
		return dst, errf(CodeTooLarge, "frame payload %d exceeds limit %d", n, max)
	}
	dst = slices.Grow(dst, headerLen+n)
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	dst = append(dst, hdr[:]...)
	dst = append(dst, op)
	for _, f := range fields {
		k := binary.PutUvarint(lenBuf[:], uint64(len(f)))
		dst = append(dst, lenBuf[:k]...)
		dst = append(dst, f...)
	}
	return dst, nil
}

// AppendTracedFrame appends a whole traced frame — flag bit set,
// leading trace-ID field, then fields — to dst in one pass, byte-
// identical to AppendFrame over AppendTrace's output but without the
// [][]byte prepend and the trace-field allocation. This is the client's
// hot request-stamping path: with a reused dst buffer a traced frame
// encodes with zero allocations (E15 measured +7 allocs/op from the
// AppendTrace route).
func AppendTracedFrame(dst []byte, max int, op byte, trace uint64, fields ...[]byte) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var traceBuf [binary.MaxVarintLen64]byte
	tn := binary.PutUvarint(traceBuf[:], trace)
	var lenBuf [binary.MaxVarintLen64]byte
	n := 1 + binary.PutUvarint(lenBuf[:], uint64(tn)) + tn
	for _, f := range fields {
		n += binary.PutUvarint(lenBuf[:], uint64(len(f))) + len(f)
	}
	if n > max {
		return dst, errf(CodeTooLarge, "frame payload %d exceeds limit %d", n, max)
	}
	dst = slices.Grow(dst, headerLen+n)
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	dst = append(dst, hdr[:]...)
	dst = append(dst, op|TraceFlag)
	k := binary.PutUvarint(lenBuf[:], uint64(tn))
	dst = append(dst, lenBuf[:k]...)
	dst = append(dst, traceBuf[:tn]...)
	for _, f := range fields {
		k := binary.PutUvarint(lenBuf[:], uint64(len(f)))
		dst = append(dst, lenBuf[:k]...)
		dst = append(dst, f...)
	}
	return dst, nil
}

// WriteFrame writes one frame in a single Write call (so concurrent
// writers serialized by a mutex never interleave partial frames).
func WriteFrame(w io.Writer, max int, op byte, fields ...[]byte) error {
	buf, err := AppendFrame(nil, max, op, fields...)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one frame. max bounds the payload (<= 0 means MaxFrame);
// an oversize claim fails before any allocation. Errors reading the 4-byte
// header are returned raw (io.EOF at a frame boundary is a clean close);
// everything after the header that goes wrong is a *WireError.
func ReadFrame(r io.Reader, max int) (op byte, fields [][]byte, err error) {
	var hdr [headerLen]byte
	return readFrame(r, max, hdr[:], nil)
}

// readFrame is ReadFrame reading the header into hdr, and the payload and
// its fields into the buffers of keep when it is not nil and they take
// the frame.
func readFrame(r io.Reader, limit int, hdr []byte, keep *FrameReader) (op byte, fields [][]byte, err error) {
	if limit <= 0 {
		limit = MaxFrame
	}
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	claim := binary.BigEndian.Uint32(hdr)
	if claim == 0 {
		return 0, nil, errf(CodeBadFrame, "empty frame")
	}
	if claim > uint32(limit) {
		return 0, nil, errf(CodeTooLarge, "frame payload %d exceeds limit %d", claim, limit)
	}
	n := int(claim)
	var payload []byte
	var dst [][]byte
	switch {
	case keep == nil || n > keep.keep:
		payload = make([]byte, n)
	case n <= cap(keep.payload):
		payload, dst = keep.payload[:n], keep.fields
	default:
		keep.payload = make([]byte, n, min(max(n, 2*cap(keep.payload)), keep.keep))
		payload, dst = keep.payload, keep.fields
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, errf(CodeBadFrame, "truncated frame: %v", err)
	}
	fields, err = splitFields(dst, payload[1:])
	if err != nil {
		return 0, nil, err
	}
	return payload[0], fields, nil
}

// splitFields parses the field sequence of a frame payload into dst, or
// into a new slice when dst has no room for the fields. The returned
// slices alias b. The fields are counted first, so a new result is
// allocated once.
func splitFields(dst [][]byte, b []byte) ([][]byte, error) {
	count := 0
	for rest := b; len(rest) > 0; count++ {
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			return nil, errf(CodeBadFrame, "bad field length prefix")
		}
		if n > uint64(len(rest)-k) {
			return nil, errf(CodeBadFrame, "field length %d exceeds remaining %d", n, len(rest)-k)
		}
		rest = rest[k+int(n):]
	}
	if count == 0 {
		return nil, nil
	}
	if cap(dst) < count {
		dst = make([][]byte, count)
	}
	out := dst[:count]
	for i := range out {
		n, k := binary.Uvarint(b)
		out[i], b = b[k:k+int(n)], b[k+int(n):]
	}
	return out, nil
}

// FrameReader reads a stream of frames as ReadFrame does, through a
// bufio.Reader, so a frame that has arrived whole costs one read of the
// source, and into a payload buffer and a field array it keeps across
// frames. A frame of at most keep payload bytes reuses them, the field
// array when the frame has at most maxKeptFields fields, so once they
// have grown to it a frame costs no allocation; its fields alias the kept
// buffers, so they are valid until the next ReadFrame, and a caller
// copies what it keeps. A larger frame is read into fresh slices, as
// ReadFrame reads it, so no frame pins more than keep bytes on the
// reader, and every frame of a reader with keep 0 is its caller's to
// keep.
type FrameReader struct {
	br        *bufio.Reader
	max, keep int
	hdr       [headerLen]byte
	payload   []byte
	fields    [][]byte
}

// maxKeptFields bounds the field array a FrameReader keeps.
const maxKeptFields = 16

// NewFrameReader returns a reader of the frames of r, each of at most max
// payload bytes (<= 0 means MaxFrame), that keeps buffers of at most keep
// bytes.
func NewFrameReader(r io.Reader, max, keep int) *FrameReader {
	fr := &FrameReader{br: bufio.NewReader(r), max: max, keep: keep}
	if keep > 0 {
		fr.fields = make([][]byte, 0, maxKeptFields)
	}
	return fr
}

// Buffered returns the number of bytes read from the source and not yet
// returned as a frame: the start of the frames behind the last one read.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// ReadFrame reads the next frame, as ReadFrame reads one from the source.
func (fr *FrameReader) ReadFrame() (op byte, fields [][]byte, err error) {
	return readFrame(fr.br, fr.max, fr.hdr[:], fr)
}

// ---------------------------------------------------------------------------
// Field images (persist/codec reuse)
// ---------------------------------------------------------------------------

// MarshalType encodes a type as a self-contained codec image field.
func MarshalType(t types.Type) ([]byte, error) { return codec.AppendType(nil, t) }

// UnmarshalType decodes a type image field.
func UnmarshalType(b []byte) (types.Type, error) { return codec.DecodeType(b) }

// ErrorFields encodes an OpError payload: [code, message] plus a
// retry-after hint field (uvarint nanoseconds) when the error carries
// one.
func ErrorFields(e *WireError) [][]byte {
	fields := [][]byte{{byte(e.Code)}, []byte(e.Msg)}
	if e.RetryAfter > 0 {
		fields = append(fields, UvarintField(uint64(e.RetryAfter)))
	}
	return fields
}

// DecodeError reconstructs the *WireError from an OpError payload. A
// malformed error payload is itself a protocol error; a malformed
// retry-after hint is dropped rather than trusted.
func DecodeError(fields [][]byte) error {
	if len(fields) < 2 || len(fields[0]) != 1 {
		return errf(CodeBadFrame, "malformed error response")
	}
	we := &WireError{Code: Code(fields[0][0]), Msg: string(fields[1])}
	if len(fields) >= 3 {
		if v, ok := uvarintOf(fields[2]); ok {
			we.RetryAfter = time.Duration(v)
		}
	}
	return we
}

// ---------------------------------------------------------------------------
// Health (the HEALTH opcode)
// ---------------------------------------------------------------------------

// Role is a server's replication role as reported by HEALTH: the writable
// primary, a read-only follower, or a fenced old primary that observed a
// higher promotion epoch. Wire format: values are stable.
type Role byte

const (
	RolePrimary Role = iota
	RoleFollower
	RoleFenced
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	case RoleFenced:
		return "fenced"
	default:
		return fmt.Sprintf("role(%d)", byte(r))
	}
}

// Health is the server's self-report: whether the write path is poisoned
// (degraded read-only mode), how much work is in flight, how many
// sessions are connected, the committed root count, the uptime, the
// durable log offset its reads cover, its replication role and its
// promotion epoch. It is the payload of the HEALTH opcode's OK response,
// and the one request a server answers even while shedding load — a
// monitor must be able to ask "are you overloaded?" of an overloaded
// server.
type Health struct {
	Poisoned bool
	InFlight int
	Sessions int
	Roots    int
	Uptime   time.Duration
	// DurableEnd is the byte offset just past the store's last durable
	// commit group. On a follower it is the applied replication offset, so
	// primary.DurableEnd - follower.DurableEnd is the replication lag in
	// log bytes — observable from HEALTH alone, no STATS needed.
	DurableEnd int64
	// Role is the replication role; failover clients probe HEALTH for the
	// highest-epoch node reporting RolePrimary. Every other role refuses
	// writes: a follower with CodeReadOnly, a fenced old primary with
	// CodeFenced.
	Role Role
	// Epoch is the store's promotion epoch: bumped durably by every
	// PROMOTE, 0 for a log never promoted. Higher epoch wins a failover.
	Epoch uint64
}

// HealthFields encodes the HEALTH response payload.
func HealthFields(h Health) [][]byte {
	var flags byte
	if h.Poisoned {
		flags |= 1
	}
	return [][]byte{
		{flags},
		UvarintField(uint64(h.InFlight)),
		UvarintField(uint64(h.Sessions)),
		UvarintField(uint64(h.Roots)),
		UvarintField(uint64(h.Uptime)),
		UvarintField(uint64(h.DurableEnd)),
		{byte(h.Role)},
		UvarintField(h.Epoch),
	}
}

// DecodeHealth reconstructs the Health from a HEALTH response payload of
// exactly eight fields whose flags byte sets no bit but poisoned; any
// other shape is CodeBadFrame.
func DecodeHealth(fields [][]byte) (Health, error) {
	if len(fields) != 8 || len(fields[0]) != 1 || len(fields[6]) != 1 {
		return Health{}, errf(CodeBadFrame, "malformed HEALTH response")
	}
	if fields[0][0]&^1 != 0 {
		return Health{}, errf(CodeBadFrame, "HEALTH flags %#x set a bit other than poisoned", fields[0][0])
	}
	var u [6]uint64
	for i, f := range [6][]byte{fields[1], fields[2], fields[3], fields[4], fields[5], fields[7]} {
		v, ok := uvarintOf(f)
		if !ok {
			return Health{}, errf(CodeBadFrame, "malformed HEALTH field %d", i+1)
		}
		u[i] = v
	}
	return Health{
		Poisoned:   fields[0][0] == 1,
		InFlight:   int(u[0]),
		Sessions:   int(u[1]),
		Roots:      int(u[2]),
		Uptime:     time.Duration(u[3]),
		DurableEnd: int64(u[4]),
		Role:       Role(fields[6][0]),
		Epoch:      u[5],
	}, nil
}

// ---------------------------------------------------------------------------
// Replication frames (the REPLICATE opcode and its stream)
// ---------------------------------------------------------------------------

// replCRCTable is the Castagnoli polynomial — the same CRC-32C the
// intrinsic log uses for its commit groups, so one hardware-accelerated
// checksum family covers disk and wire.
var replCRCTable = crc32.MakeTable(crc32.Castagnoli)

// The heartbeat intervals a REPLICATE request may ask for.
const (
	MinReplHeartbeat = 10 * time.Millisecond
	MaxReplHeartbeat = 60 * time.Second
)

// ReplicateFields encodes the REPLICATE request: stream my log from this
// durable offset. The second field is the subscriber's promotion epoch —
// a primary seeing a subscriber at a higher epoch than its own has been
// superseded and must fence itself — and the third the heartbeat
// interval, in whole milliseconds, the subscriber declares the link dead
// by.
func ReplicateFields(from int64, epoch uint64, heartbeat time.Duration) [][]byte {
	return [][]byte{UvarintField(uint64(from)), UvarintField(epoch), UvarintField(uint64(heartbeat / time.Millisecond))}
}

// DecodeReplicateReq decodes the REPLICATE request payload, returning the
// offset, the subscriber's epoch and its heartbeat interval. An offset
// that does not fit an int64 is as malformed as a truncated one, and an
// interval outside [MinReplHeartbeat, MaxReplHeartbeat] is refused.
func DecodeReplicateReq(fields [][]byte) (int64, uint64, time.Duration, error) {
	if err := Ops[OpReplicate].CheckFields(len(fields)); err != nil {
		return 0, 0, 0, err
	}
	v, ok := uvarintOf(fields[0])
	if !ok {
		return 0, 0, 0, errf(CodeBadRequest, "malformed REPLICATE offset")
	}
	if v > math.MaxInt64 {
		return 0, 0, 0, errf(CodeBadRequest, "REPLICATE offset %d overflows", v)
	}
	epoch, ok := uvarintOf(fields[1])
	if !ok {
		return 0, 0, 0, errf(CodeBadRequest, "malformed REPLICATE epoch")
	}
	ms, ok := uvarintOf(fields[2])
	if !ok {
		return 0, 0, 0, errf(CodeBadRequest, "malformed REPLICATE heartbeat")
	}
	if ms < uint64(MinReplHeartbeat/time.Millisecond) || ms > uint64(MaxReplHeartbeat/time.Millisecond) {
		return 0, 0, 0, errf(CodeBadRequest, "REPLICATE heartbeat %d ms outside [%v, %v]", ms, MinReplHeartbeat, MaxReplHeartbeat)
	}
	return int64(v), epoch, time.Duration(ms) * time.Millisecond, nil
}

// ReplDataFields encodes one REPDATA stream frame: whole commit groups as
// raw log bytes starting at offset start, the primary's promotion epoch,
// the trace ID of the commit that produced the chunk's last group and the
// primary's wall clock (unix nanos) at that commit's publication, then
// the CRC-32C trailer covering all five — so a flipped bit anywhere
// (including in the epoch a follower fences on) is detected before the
// follower acts on the frame. A catch-up chunk, or one whose last commit
// was untraced, sends trace 0 and commitNS 0: no link. A follower links
// its apply span to the primary's trace and measures commit-to-visible
// delay from commitNS. A heartbeat is a frame with no groups whose start
// is the primary's durable end: ReplDataFields(end, nil, epoch, 0, 0).
func ReplDataFields(start int64, raw []byte, epoch, traceID uint64, commitNS int64) [][]byte {
	off := UvarintField(uint64(start))
	ep := UvarintField(epoch)
	tr := UvarintField(traceID)
	ns := UvarintField(uint64(commitNS))
	sum := crc32.Update(crc32.Update(crc32.Update(0, replCRCTable, off), replCRCTable, raw), replCRCTable, ep)
	sum = crc32.Update(crc32.Update(sum, replCRCTable, tr), replCRCTable, ns)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	return [][]byte{off, raw, ep, tr, ns, trailer[:]}
}

// ReplData is a verified, decoded REPDATA frame. Trace and CommitNS are 0
// when the chunk carries no link to a primary commit.
type ReplData struct {
	Start    int64  // log offset the raw bytes start at
	Raw      []byte // whole commit groups, verbatim log bytes
	Epoch    uint64 // primary's promotion epoch
	Trace    uint64 // trace ID of the commit producing the chunk's last group
	CommitNS int64  // primary wall clock at that commit's publication
}

// DecodeReplData verifies and decodes a six-field REPDATA frame. A
// checksum mismatch is CodeCorrupt — the follower must drop the
// connection and resubscribe from its durable offset rather than apply
// the bytes; any other malformation, another field count included, is
// CodeBadFrame. Never panics (FuzzReadFrame feeds this).
func DecodeReplData(fields [][]byte) (ReplData, error) {
	if len(fields) != 6 || len(fields[5]) != 4 {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA frame")
	}
	v, ok := uvarintOf(fields[0])
	if !ok || v > math.MaxInt64 {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA offset")
	}
	d := ReplData{Start: int64(v), Raw: fields[1]}
	if d.Epoch, ok = uvarintOf(fields[2]); !ok {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA epoch")
	}
	if d.Trace, ok = uvarintOf(fields[3]); !ok {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA trace")
	}
	ns, ok := uvarintOf(fields[4])
	if !ok || ns > math.MaxInt64 {
		return ReplData{}, errf(CodeBadFrame, "malformed REPDATA commit time")
	}
	d.CommitNS = int64(ns)
	var sum uint32
	for _, f := range fields[:5] {
		sum = crc32.Update(sum, replCRCTable, f)
	}
	if got := binary.LittleEndian.Uint32(fields[5]); got != sum {
		return ReplData{}, errf(CodeCorrupt,
			"REPDATA checksum mismatch (stored %08x, computed %08x)", got, sum)
	}
	return d, nil
}

// FenceFields encodes the fence-notification form of a PROMOTE request:
// the sender's (higher) promotion epoch and the address writers should be
// referred to.
func FenceFields(epoch uint64, newPrimary string) [][]byte {
	return [][]byte{UvarintField(epoch), []byte(newPrimary)}
}

// DecodePromote decodes a PROMOTE request. No fields is the self-promote
// order (fence == false); [epoch, newPrimaryAddr] is the fence
// notification (fence == true).
func DecodePromote(fields [][]byte) (epoch uint64, newPrimary string, fence bool, err error) {
	switch len(fields) {
	case 0:
		return 0, "", false, nil
	case 2:
		v, ok := uvarintOf(fields[0])
		if !ok {
			return 0, "", false, errf(CodeBadRequest, "malformed PROMOTE epoch")
		}
		return v, string(fields[1]), true, nil
	default:
		return 0, "", false, errf(CodeBadRequest, "PROMOTE wants 0 or 2 fields, got %d", len(fields))
	}
}

// UvarintField encodes v as a standalone uvarint field (trace IDs,
// hints, gauge values).
func UvarintField(v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return b[:n]
}

// uvarintOf decodes a field that must be exactly one uvarint.
func uvarintOf(f []byte) (uint64, bool) {
	v, k := binary.Uvarint(f)
	return v, k > 0 && k == len(f)
}
