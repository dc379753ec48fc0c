package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// The wire encoding of a Snapshot, carried by the STATS opcode as one
// frame field. Same engineering rules as the image codec and the wire
// framing: self-contained, versioned, and hardened — a malformed or
// hostile payload yields ErrBadSnapshot, never a panic and never an
// unbounded allocation.
//
// Layout (all integers varint-encoded):
//
//	'S' version(1)
//	taken-at: uvarint unix-nanoseconds
//	counters:   uvarint n, then n × (str name, uvarint value)
//	gauges:     uvarint n, then n × (str name, zigzag value)
//	histograms: uvarint n, then n × (str name, unit byte,
//	            uvarint b, b × zigzag bound, (b+1) × uvarint count,
//	            zigzag sum, flag byte[, (b+1) × uvarint exemplar])
//
// where str is uvarint length + bytes. The flag byte after the sum says
// whether per-bucket exemplar trace IDs follow (1) or not (0). The version
// is 2; a payload of any other version is ErrBadSnapshot.

// ErrBadSnapshot reports a malformed snapshot payload.
var ErrBadSnapshot = errors.New("telemetry: malformed snapshot encoding")

const (
	snapMagic = 'S'
	// snapVersion is the one version the codec writes and reads.
	snapVersion = 2

	// Decode hardening bounds: generous multiples of what a real registry
	// produces, small enough that a hostile length claim cannot balloon.
	maxEntries = 1 << 16
	maxBounds  = 1 << 12
	maxNameLen = 1 << 12
)

// AppendBinary appends the snapshot's wire encoding to dst.
func (s *Snapshot) AppendBinary(dst []byte) []byte {
	dst = append(dst, snapMagic, snapVersion)
	dst = appendUvarint(dst, uint64(s.TakenAt.UnixNano()))
	dst = appendUvarint(dst, uint64(len(s.Counters)))
	for _, c := range s.Counters {
		dst = appendStr(dst, c.Name)
		dst = appendUvarint(dst, c.Value)
	}
	dst = appendUvarint(dst, uint64(len(s.Gauges)))
	for _, g := range s.Gauges {
		dst = appendStr(dst, g.Name)
		dst = appendVarint(dst, g.Value)
	}
	dst = appendUvarint(dst, uint64(len(s.Histograms)))
	for _, h := range s.Histograms {
		dst = appendStr(dst, h.Name)
		dst = append(dst, byte(h.Unit))
		dst = appendUvarint(dst, uint64(len(h.Bounds)))
		for _, b := range h.Bounds {
			dst = appendVarint(dst, b)
		}
		for _, c := range h.Counts {
			dst = appendUvarint(dst, c)
		}
		dst = appendVarint(dst, h.Sum)
		if h.Exemplars == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			for _, ex := range h.Exemplars {
				dst = appendUvarint(dst, ex)
			}
		}
	}
	return dst
}

// UnmarshalSnapshot decodes a snapshot payload.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	d := &snapDecoder{buf: b}
	if len(b) < 2 || b[0] != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if b[1] != snapVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, b[1])
	}
	d.pos = 2
	s := &Snapshot{}
	takenNS, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	s.TakenAt = time.Unix(0, int64(takenNS))

	n, err := d.count()
	if err != nil {
		return nil, err
	}
	s.Counters = make([]NamedCounter, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		s.Counters = append(s.Counters, NamedCounter{Name: name, Value: v})
	}

	if n, err = d.count(); err != nil {
		return nil, err
	}
	s.Gauges = make([]NamedGauge, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		s.Gauges = append(s.Gauges, NamedGauge{Name: name, Value: v})
	}

	if n, err = d.count(); err != nil {
		return nil, err
	}
	s.Histograms = make([]HistogramSnapshot, 0, n)
	for i := uint64(0); i < n; i++ {
		h := HistogramSnapshot{}
		if h.Name, err = d.str(); err != nil {
			return nil, err
		}
		unit, err := d.byte()
		if err != nil {
			return nil, err
		}
		h.Unit = Unit(unit)
		nb, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if nb > maxBounds {
			return nil, fmt.Errorf("%w: %d histogram bounds", ErrBadSnapshot, nb)
		}
		h.Bounds = make([]int64, nb)
		for j := range h.Bounds {
			if h.Bounds[j], err = d.varint(); err != nil {
				return nil, err
			}
		}
		h.Counts = make([]uint64, nb+1)
		for j := range h.Counts {
			if h.Counts[j], err = d.uvarint(); err != nil {
				return nil, err
			}
			h.Count += h.Counts[j]
		}
		if h.Sum, err = d.varint(); err != nil {
			return nil, err
		}
		flag, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch flag {
		case 0:
		case 1:
			h.Exemplars = make([]uint64, nb+1)
			for j := range h.Exemplars {
				if h.Exemplars[j], err = d.uvarint(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("%w: bad exemplar flag %d", ErrBadSnapshot, flag)
		}
		s.Histograms = append(s.Histograms, h)
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(d.buf)-d.pos)
	}
	return s, nil
}

func appendUvarint(dst []byte, v uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	return append(dst, b[:n]...)
}

func appendVarint(dst []byte, v int64) []byte {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	return append(dst, b[:n]...)
}

func appendStr(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

type snapDecoder struct {
	buf []byte
	pos int
}

func (d *snapDecoder) byte() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *snapDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadSnapshot)
	}
	d.pos += n
	return v, nil
}

func (d *snapDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadSnapshot)
	}
	d.pos += n
	return v, nil
}

// count reads a section length, refusing hostile claims before any
// allocation sized by them.
func (d *snapDecoder) count() (uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxEntries {
		return 0, fmt.Errorf("%w: %d entries exceeds limit", ErrBadSnapshot, n)
	}
	return n, nil
}

func (d *snapDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxNameLen {
		return "", fmt.Errorf("%w: name length %d exceeds limit", ErrBadSnapshot, n)
	}
	if uint64(len(d.buf)-d.pos) < n {
		return "", fmt.Errorf("%w: truncated name", ErrBadSnapshot)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}
