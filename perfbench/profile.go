package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// stackSample is one profile sample: its frames, leaf first, and values.
type stackSample struct {
	frames []string
	values []int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes into
// samples with resolved function names. It reads only the fields the layer
// attribution needs: samples, locations (with inlined lines), functions
// and the string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, inlined first
		funcs   = map[uint64]uint64{}   // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ss.values[i] = int64(v)
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					ss.frames = append(ss.frames, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive packed (b
// set) or as one value (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes (nil
// for varints).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
