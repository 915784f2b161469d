package chaos

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// nullRWC is a sink/source: reads return zeros, writes succeed.
type nullRWC struct{ closed bool }

func (n *nullRWC) Read(p []byte) (int, error) {
	if n.closed {
		return 0, io.EOF
	}
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}
func (n *nullRWC) Write(p []byte) (int, error) {
	if n.closed {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}
func (n *nullRWC) Close() error { n.closed = true; return nil }

// sinkRWC records everything written.
type sinkRWC struct {
	buf    bytes.Buffer
	closed bool
}

func (s *sinkRWC) Read(p []byte) (int, error)  { return 0, io.EOF }
func (s *sinkRWC) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *sinkRWC) Close() error                { s.closed = true; return nil }

// script drives one engine through a fixed I/O sequence and returns
// the fault log. Sleep-free config keeps it fast.
func script(seed uint64) []Record {
	cfg := Aggressive(seed)
	cfg.Delay, cfg.Stall = 0, 0
	eng := New(cfg)
	for conn := 0; conn < 3; conn++ {
		c := eng.Wrap(&nullRWC{})
		buf := make([]byte, 64)
		for op := 0; op < 40; op++ {
			if op%3 == 2 {
				_, _ = c.Read(buf)
			} else {
				_, _ = c.Write(buf)
			}
		}
	}
	for i := 0; i < 20; i++ {
		eng.CorruptState(bytes.Repeat([]byte{0xAA}, 128))
	}
	return eng.Log()
}

// TestChaosScheduleDeterministic pins the acceptance criterion that
// chaos schedules are deterministic: the same seed against the same
// operation sequence yields a byte-identical injected-fault log, and a
// different seed yields a different one.
func TestChaosScheduleDeterministic(t *testing.T) {
	a, b := script(12345), script(12345)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced diverging fault logs:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("aggressive schedule injected no faults over the script")
	}
	c := script(54321)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical fault logs")
	}
}

// only returns a config injecting one fault kind on every operation.
func only(f Fault) Config {
	cfg := Config{Seed: 7}
	switch f {
	case BitFlip:
		cfg.BitFlipPer65536 = 65536
	case Truncate:
		cfg.TruncatePer65536 = 65536
	case Duplicate:
		cfg.DuplicatePer65536 = 65536
	case Reset:
		cfg.ResetPer65536 = 65536
	}
	return cfg
}

func TestChaosBitFlipWrite(t *testing.T) {
	sink := &sinkRWC{}
	c := New(only(BitFlip)).Wrap(sink)
	msg := bytes.Repeat([]byte{0x5C}, 32)
	n, err := c.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("bit-flipped write reported (%d, %v), want clean success", n, err)
	}
	got := sink.buf.Bytes()
	if len(got) != len(msg) {
		t.Fatalf("wrote %d bytes, want %d", len(got), len(msg))
	}
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^msg[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("bitflip changed %d bits, want exactly 1", diff)
	}
}

func TestChaosTruncateWrite(t *testing.T) {
	sink := &sinkRWC{}
	c := New(only(Truncate)).Wrap(sink)
	msg := bytes.Repeat([]byte{1}, 64)
	n, err := c.Write(msg)
	if err == nil {
		t.Error("truncated write reported success")
	}
	if n <= 0 || n >= len(msg) {
		t.Errorf("truncated write wrote %d of %d bytes, want a proper prefix", n, len(msg))
	}
	if sink.buf.Len() != n {
		t.Errorf("sink saw %d bytes, conn reported %d", sink.buf.Len(), n)
	}
	if !sink.closed {
		t.Error("truncate did not sever the connection")
	}
}

func TestChaosDuplicateWrite(t *testing.T) {
	sink := &sinkRWC{}
	c := New(only(Duplicate)).Wrap(sink)
	msg := []byte("frame-bytes")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), msg...), msg...)
	if !bytes.Equal(sink.buf.Bytes(), want) {
		t.Errorf("duplicate wrote %q, want the frame twice", sink.buf.Bytes())
	}
}

func TestChaosResetWrite(t *testing.T) {
	sink := &sinkRWC{}
	c := New(only(Reset)).Wrap(sink)
	if _, err := c.Write([]byte("x")); err == nil {
		t.Error("reset write reported success")
	}
	if !sink.closed {
		t.Error("reset did not sever the connection")
	}
	if sink.buf.Len() != 0 {
		t.Errorf("reset still wrote %d bytes", sink.buf.Len())
	}
}

func TestCorruptState(t *testing.T) {
	orig := bytes.Repeat([]byte{0x42}, 200)
	eng := New(Config{Seed: 9, StatePer65536: 65536})
	mutated := eng.CorruptState(append([]byte(nil), orig...))
	if bytes.Equal(mutated, orig) {
		t.Error("StatePer65536=65536 left the state bytes untouched")
	}
	if len(eng.Log()) != 1 {
		t.Errorf("expected 1 logged state fault, got %d", len(eng.Log()))
	}

	clean := New(Config{Seed: 9})
	if got := clean.CorruptState(append([]byte(nil), orig...)); !bytes.Equal(got, orig) {
		t.Error("StatePer65536=0 corrupted the state bytes")
	}
}

// TestChaosPassThrough checks a zero-rate engine is a transparent
// proxy.
func TestChaosPassThrough(t *testing.T) {
	sink := &sinkRWC{}
	c := New(Config{Seed: 1}).Wrap(sink)
	msg := []byte("untouched")
	if n, err := c.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("passthrough write: (%d, %v)", n, err)
	}
	if !bytes.Equal(sink.buf.Bytes(), msg) {
		t.Errorf("passthrough altered bytes: %q", sink.buf.Bytes())
	}
	if faults := New(Config{Seed: 1}); faults.Injected() != 0 {
		t.Error("fresh engine reports injected faults")
	}
}

// TestChaosLogCapped checks the fault log stops at logCap records
// while Injected and Faults keep counting every injected fault, and
// that the capped log is the schedule's prefix.
func TestChaosLogCapped(t *testing.T) {
	eng := New(only(BitFlip))
	c := eng.Wrap(&nullRWC{})
	buf := make([]byte, 8)
	const writes = logCap + 100
	for i := 0; i < writes; i++ {
		_, _ = c.Write(buf)
	}
	log := eng.Log()
	if len(log) != logCap {
		t.Errorf("log holds %d records, want the cap %d", len(log), logCap)
	}
	if got := eng.Injected(); got != writes {
		t.Errorf("Injected %d, want every fault (%d)", got, writes)
	}
	if got := eng.Faults()["bitflip"]; got != writes {
		t.Errorf("Faults counts %d bitflips, want %d", got, writes)
	}
	if last := log[len(log)-1]; last.Op != logCap-1 {
		t.Errorf("last logged record is op %d, want op %d", last.Op, logCap-1)
	}
}
