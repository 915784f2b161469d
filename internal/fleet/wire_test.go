package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"verikern/internal/obs"
)

// encodeFrame renders one valid frame for corruption tests.
func encodeFrame(t *testing.T, mt msgType, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeMsg(&buf, mt, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWireEncodeDecodeRoundTrip round-trips every message type through
// the framing layer and checks the payloads survive byte-exact.
func TestWireEncodeDecodeRoundTrip(t *testing.T) {
	hello := Hello{Proto: protoVersion, PID: 4242, Retries: 3}
	assign := Assign{
		Shard:      2,
		Checkpoint: 1024,
		Budget:     4096,
		BatchOps:   257,
		Spec:       Spec{Label: "rt", Arch: "arm1136", ConfigKey: "cfg", Seed: 42, Ops: 9000, Workers: 3},
	}
	var lat obs.Histogram
	lat.Record(1500)
	lat.Record(40_000)
	batch := Batch{
		Shard:       1,
		Config:      "cfg",
		FromOps:     100,
		ToOps:       200,
		SimCycles:   123456,
		Emitted:     7,
		Dropped:     1,
		EventCounts: map[string]uint64{"irq_enter": 42},
		Sources:     []SourceDelta{{Op: 3, Hist: lat.State()}},
		Violations:  1,
		NearMax:     2,
		Final:       true,
	}
	cases := []struct {
		name string
		mt   msgType
		in   any
		out  any
	}{
		{"hello", msgHello, hello, &Hello{}},
		{"assign", msgAssign, assign, &Assign{}},
		{"batch", msgBatch, batch, &Batch{}},
		{"drain", msgDrain, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeFrame(t, tc.mt, tc.in)
			gotType, body, err := readMsg(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("readMsg: %v", err)
			}
			if gotType != tc.mt {
				t.Fatalf("type = %d, want %d", gotType, tc.mt)
			}
			if tc.in == nil {
				if len(body) != 0 {
					t.Fatalf("drain carried %d payload bytes", len(body))
				}
				return
			}
			if err := json.Unmarshal(body, tc.out); err != nil {
				t.Fatalf("decode: %v", err)
			}
			got := reflect.ValueOf(tc.out).Elem().Interface()
			if !reflect.DeepEqual(got, tc.in) {
				t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, tc.in)
			}
		})
	}
}

// TestWriteMsgFrameLayout pins writeMsg's bytes to the documented
// layout: big-endian length, type byte, json.Marshal's payload, then
// the CRC32 of type and payload. Back-to-back writes share a pooled
// buffer, so each frame is also checked after a larger one.
func TestWriteMsgFrameLayout(t *testing.T) {
	want := func(mt msgType, v any) []byte {
		var body []byte
		if v != nil {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			body = b
		}
		f := binary.BigEndian.AppendUint32(nil, uint32(frameMinLen+len(body)))
		f = append(f, byte(mt))
		f = append(f, body...)
		return binary.BigEndian.AppendUint32(f, crc32.ChecksumIEEE(f[4:]))
	}
	big := Batch{Shard: 1, Config: strings.Repeat("<&>", 500), EventCounts: map[string]uint64{"irq-service": 9, "sched-pick": 3}}
	msgs := []struct {
		mt msgType
		v  any
	}{
		{msgBatch, big},
		{msgHello, Hello{Proto: protoVersion, PID: 7}},
		{msgDrain, nil},
		{msgAssign, Assign{Shard: 1, Budget: 10, Spec: Spec{Label: "a<b>&c", Seed: 3}}},
		{msgBatch, Batch{Shard: 0, FromOps: 1, ToOps: 2}},
	}
	for _, m := range msgs {
		if got := encodeFrame(t, m.mt, m.v); !bytes.Equal(got, want(m.mt, m.v)) {
			t.Errorf("type %d frame:\n got %q\nwant %q", m.mt, got, want(m.mt, m.v))
		}
	}
}

// TestWireCorruptFrames drives the decoder through the corruption
// taxonomy: every case must error, and the recoverable ones (a whole
// frame consumed but invalid) must classify as errCorruptFrame so the
// reader can strike-and-continue instead of tearing the connection.
func TestWireCorruptFrames(t *testing.T) {
	valid := encodeFrame(t, msgBatch, Batch{Shard: 1, FromOps: 5, ToOps: 9})
	flip := func(frame []byte, i int, bit byte) []byte {
		out := append([]byte(nil), frame...)
		out[i] ^= bit
		return out
	}
	unknownType := func() []byte {
		// Valid length and CRC, type byte 9: corrupt by type check.
		body := []byte{9, '{', '}'}
		frame := make([]byte, 4+len(body)+4)
		binary.BigEndian.PutUint32(frame[:4], uint32(len(body)+4))
		copy(frame[4:], body)
		binary.BigEndian.PutUint32(frame[4+len(body):], crc32.ChecksumIEEE(body))
		return frame
	}()
	oversize := func() []byte {
		frame := append([]byte(nil), valid...)
		binary.BigEndian.PutUint32(frame[:4], maxFrame+1)
		return frame
	}()
	cases := []struct {
		name    string
		frame   []byte
		corrupt bool // must classify as errCorruptFrame
	}{
		{"zero length prefix", []byte{0, 0, 0, 0}, true},
		{"tiny length prefix", []byte{0, 0, 0, 3, 1, 2, 3}, true},
		{"oversize length prefix", oversize, true},
		{"max length prefix", []byte{0xff, 0xff, 0xff, 0xff, 0}, true},
		{"unknown type byte", unknownType, true},
		{"flipped payload bit", flip(valid, 6, 0x10), true},
		{"flipped type bit", flip(valid, 4, 0x40), true},
		{"flipped crc bit", flip(valid, len(valid)-1, 0x01), true},
		{"truncated payload", valid[:len(valid)-3], false},
		{"truncated header", valid[:2], false},
		{"empty stream", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readMsg(bytes.NewReader(tc.frame))
			if err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
			if got := errors.Is(err, errCorruptFrame); got != tc.corrupt {
				t.Errorf("errors.Is(err, errCorruptFrame) = %v, want %v (err: %v)", got, tc.corrupt, err)
			}
		})
	}
}

// TestWireCorruptFrameResync checks the strike model's premise: after
// a corrupt-but-complete frame, the reader is positioned at the next
// frame boundary and decodes the follow-up cleanly.
func TestWireCorruptFrameResync(t *testing.T) {
	bad := encodeFrame(t, msgBatch, Batch{Shard: 1})
	bad[6] ^= 0x08 // payload bit flip → CRC mismatch
	good := encodeFrame(t, msgBatch, Batch{Shard: 2})
	r := bytes.NewReader(append(bad, good...))
	if _, _, err := readMsg(r); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("first frame: %v, want corrupt-frame", err)
	}
	mt, body, err := readMsg(r)
	if err != nil || mt != msgBatch {
		t.Fatalf("second frame after strike: type %d, err %v", mt, err)
	}
	var b Batch
	if err := json.Unmarshal(body, &b); err != nil || b.Shard != 2 {
		t.Errorf("second frame decoded to shard %d (err %v), want 2", b.Shard, err)
	}
}

// FuzzWireDecode shakes the frame decoder with arbitrary bytes: it
// must never panic, and anything it accepts must be a well-formed
// frame (known type, bounded body, intact checksum).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	for _, mt := range []msgType{msgHello, msgAssign, msgBatch, msgDrain} {
		var buf bytes.Buffer
		_ = writeMsg(&buf, mt, Hello{Proto: protoVersion, PID: 1})
		f.Add(buf.Bytes())
		mutated := append([]byte(nil), buf.Bytes()...)
		if len(mutated) > 6 {
			mutated[6] ^= 0x20
		}
		f.Add(mutated)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mt, body, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		if mt < msgHello || mt > msgDrain {
			t.Fatalf("decoder accepted unknown type %d", mt)
		}
		if len(body) > maxFrame {
			t.Fatalf("decoder accepted %d-byte body beyond maxFrame", len(body))
		}
		if len(data) < 4+1+len(body)+4 {
			t.Fatalf("decoder returned %d-byte body from %d-byte input", len(body), len(data))
		}
	})
}

// TestBackoff pins the jittered-exponential envelope: delays double
// from Base to Cap, each draw lands in [d/2, d), Reset rewinds, and
// the schedule is deterministic per seed.
func TestBackoff(t *testing.T) {
	bo := NewBackoff(100*time.Millisecond, time.Second, 7)
	envelope := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second,
		time.Second, // capped
	}
	for i, d := range envelope {
		got := bo.Next()
		if got < d/2 || got >= d {
			t.Errorf("draw %d = %v, want in [%v, %v)", i, got, d/2, d)
		}
	}
	bo.Reset()
	if got := bo.Next(); got < 50*time.Millisecond || got >= 100*time.Millisecond {
		t.Errorf("post-Reset draw %v, want in [50ms, 100ms)", got)
	}

	a, b := NewBackoff(0, 0, 99), NewBackoff(0, 0, 99)
	for i := 0; i < 8; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same-seed backoffs diverged at draw %d: %v vs %v", i, x, y)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if NewBackoff(time.Hour, time.Hour, 1).Sleep(ctx) {
		t.Error("Sleep ignored a cancelled context")
	}
}
