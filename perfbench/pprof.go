package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile accumulates flat CPU samples by package over one or more
// runtime/pprof profiling windows.
type cpuProfile struct {
	buf     bytes.Buffer
	samples map[string]int64 // package → flat samples
	total   int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{samples: make(map[string]int64)} }

// start opens a profiling window.
func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop closes the window and adds its samples.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.add(p.buf.Bytes())
}

// share is the package's share of all flat samples (0 with none).
func (p *cpuProfile) share(pkg string) float64 {
	return ratio(float64(p.samples[pkg]), float64(p.total))
}

// add decodes a gzipped profile.proto and attributes each sample to
// the package of its leaf function (the innermost inlined frame).
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id → leaf function id
		funcName  = map[uint64]int64{}  // function id → string index
		strs      []string
		decodeErr error
	)
	err = eachField(raw, func(field int, v uint64, b []byte) {
		switch field {
		case 2: // Sample
			var s sample
			decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
			}))
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			first := true
			decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					if first {
						first = false
						decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}))
					}
				}
			}))
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, eachField(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) == 0 {
			continue
		}
		name := ""
		if i := funcName[locFunc[s.locs[0]]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		n := int64(s.vals[0])
		p.samples[packageOf(name)] += n
		p.total += n
	}
	return nil
}

// packageOf maps a symbol such as "repro/internal/cnum.(*Table).Lookup"
// to its package's last path element ("cnum").
func packageOf(sym string) string {
	if i := strings.IndexAny(sym, "[("); i >= 0 {
		sym = sym[:i]
	}
	sym = sym[strings.LastIndex(sym, "/")+1:]
	if i := strings.Index(sym, "."); i >= 0 {
		sym = sym[:i]
	}
	return sym
}

// appendPacked appends a repeated scalar field that arrived either as
// one varint (v) or packed into a length-delimited payload (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(field, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			payload := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			fn(field, 0, payload)
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
