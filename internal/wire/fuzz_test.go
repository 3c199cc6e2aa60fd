package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame throws arbitrary byte streams at the frame reader: it
// must never panic or over-allocate, and every frame it accepts must
// round-trip through WriteFrame.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteFrame(&seed, []byte("hello")); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, body); err != nil {
			t.Fatalf("accepted frame cannot re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:4+len(body)]) {
			t.Fatalf("frame round trip mismatch")
		}
	})
}

// FuzzWireFrame exercises the framed codec of the socket engine end to
// end on arbitrary bytes: typed-frame reads must never panic, reject
// oversized length prefixes and kindless frames, and every accepted
// frame must round-trip byte-identically; bodies that parse as a
// protocol header must re-encode canonically; and kind-id decoding must
// never hand back an id outside the announced table.
func FuzzWireFrame(f *testing.F) {
	// A well-formed handshake-ish frame: header + a small kind table.
	hello := AppendHeader(nil, Header{Version: FrameVersion, Schema: 2})
	hello = AppendUvarint(hello, 2)
	hello = AppendKind(hello, 0)
	hello = AppendKind(hello, 1)
	var seed bytes.Buffer
	if err := WriteTypedFrame(&seed, 1, hello); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:7])                                     // truncated mid-body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})              // oversized length prefix
	f.Add([]byte{0, 0, 0, 1, 0})                                // zero frame kind
	f.Add([]byte{0, 0, 0, 0})                                   // empty frame, no kind byte
	f.Add(append([]byte{0, 0, 0, 3, 2}, AppendKind(nil, 9)...)) // kind id out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, body, err := ReadTypedFrame(r, nil)
		if err != nil {
			return
		}
		if kind == 0 {
			t.Fatal("reader accepted frame kind 0")
		}
		var out bytes.Buffer
		if err := WriteTypedFrame(&out, kind, body); err != nil {
			t.Fatalf("accepted typed frame cannot re-encode: %v", err)
		}
		consumed := len(data) - r.Len()
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatal("typed frame round trip mismatch")
		}
		if h, rest, err := ParseHeader(body); err == nil {
			re := AppendHeader(nil, h)
			if !bytes.Equal(re, body[:len(body)-len(rest)]) {
				t.Fatalf("header re-encode mismatch: %x vs %x", re, body[:len(body)-len(rest)])
			}
		}
		const table = 8
		if k, _, err := Kind(body, table); err == nil && (k < 0 || int(k) >= table) {
			t.Fatalf("kind %d escaped table of %d", k, table)
		}
	})
}

// FuzzUvarint checks that arbitrary bytes never panic the varint decoder
// and that accepted values re-encode canonically.
func FuzzUvarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add(AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := Uvarint(data)
		if err != nil {
			return
		}
		re := AppendUvarint(nil, v)
		consumed := data[:len(data)-len(rest)]
		// encoding/binary accepts some non-canonical encodings (e.g.
		// trailing zero continuation groups); only require that the
		// canonical form decodes back to the same value.
		got, rest2, err := Uvarint(re)
		if err != nil || got != v || len(rest2) != 0 {
			t.Fatalf("canonical re-decode failed for %d (consumed %x)", v, consumed)
		}
	})
}
