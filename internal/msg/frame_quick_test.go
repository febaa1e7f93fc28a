package msg

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// TestFrameRoundTripProperty: any message survives the TCP frame encoding.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(from uint8, step int16, phase uint8, dir uint8, data []float64) bool {
		in := Message{
			From:  int(from),
			Step:  int(step),
			Phase: int(phase % 8),
			Dir:   int(dir % 8),
			Data:  data,
		}
		out, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, in))))
		if err != nil {
			return false
		}
		if out.From != in.From || out.Step != in.Step || out.Phase != in.Phase || out.Dir != in.Dir {
			return false
		}
		if len(out.Data) != len(in.Data) {
			return false
		}
		for i := range in.Data {
			a, b := in.Data[i], out.Data[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFrameLongPayload: a payload longer than the read buffer and than
// the preallocation cap decodes across several buffer fills.
func TestFrameLongPayload(t *testing.T) {
	in := Message{From: 3, Step: 1, Data: make([]float64, maxPrealloc+1000)}
	for i := range in.Data {
		in.Data[i] = float64(i) - 0.5
	}
	out, err := readFrame(bufio.NewReaderSize(bytes.NewReader(appendFrame(nil, in)), 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != len(in.Data) {
		t.Fatalf("%d values, want %d", len(out.Data), len(in.Data))
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("value %d = %v, want %v", i, out.Data[i], in.Data[i])
		}
	}
}

// TestFrameHugeLengthAllocatesLittle: a header claiming 2^26 values
// followed by EOF fails without allocating for the claimed length.
func TestFrameHugeLengthAllocatesLittle(t *testing.T) {
	hdr := appendFrame(nil, Message{From: 1})
	hdr[20], hdr[21], hdr[22], hdr[23] = 0, 0, 0, 4 // 1<<26 values, little-endian
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(hdr)))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("truncated frame allocated %d bytes, want under 1 MiB", d)
	}
}

// FuzzReadFrame: readFrame never panics, and a frame it accepts encodes
// back to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, m := range []Message{
		{},
		{From: 1, Step: 2, Phase: 1, Dir: 3, Data: []float64{1.5, -2}},
		{From: 7, Step: -3, Data: []float64{math.NaN(), math.Float64frombits(0xfff80000deadbeef), math.Inf(1)}},
	} {
		f.Add(appendFrame(nil, m))
	}
	bad := appendFrame(nil, Message{Data: []float64{1}})
	bad[0] ^= 0xff
	f.Add(bad)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := readFrame(bufio.NewReader(bytes.NewReader(b)))
		if err != nil {
			return
		}
		enc := appendFrame(nil, m)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("frame %x re-encodes as %x", b[:len(enc)], enc)
		}
	})
}

// TestDatagramRoundTripProperty: the UDP data-datagram encoding preserves
// messages bit-for-bit too.
func TestDatagramRoundTripProperty(t *testing.T) {
	f := func(seq uint32, from uint8, step int16, data []float64) bool {
		in := Message{From: int(from), Step: int(step), Data: data}
		pkt := encodeData(seq, in)
		out, err := decodeFrame(pkt[8:])
		if err != nil {
			return false
		}
		if out.From != in.From || out.Step != in.Step || len(out.Data) != len(in.Data) {
			return false
		}
		for i := range in.Data {
			a, b := in.Data[i], out.Data[i]
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
