// Package fleet is the latency observatory's sharded soak farm: a
// coordinator splits one deterministic soak campaign across many
// worker processes (spawned locally or attached over TCP), streams
// per-shard histogram deltas and flight-recorder captures back over a
// length-prefixed wire protocol, and merges them into live aggregate
// snapshots served on /metrics, /snapshot.json and /fleet.json.
//
// The merge is exact, not approximate: shard budgets come from
// soak.ShardBudget and sub-seeds from the same splitmix64 derivation
// the in-process soak uses, histogram deltas telescope
// (obs.Histogram.DeltaSince), and restarted workers deterministically
// fast-forward to their merged checkpoint before streaming — so an
// N-worker fleet's merged snapshot is byte-identical to a
// single-process N-worker soak at the same seed, even across worker
// kills. EquivalenceDigest renders the comparable form; the fleet
// tests and the CI smoke job compare it.
package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"verikern/internal/obs"
	"verikern/internal/soak"
)

// protoVersion guards against mixed coordinator/worker builds: the
// hello carries it and the coordinator rejects mismatches. Version 2
// added the per-frame CRC32 trailer and the hello retry count; version
// 3 dropped the per-worker resource knobs (ring capacity, flight
// window, thread pool, allocation reserve) from the spec — they are
// fixed soak constants now. Version 4 dropped the batch's all-sources
// latency delta: the per-source deltas are the only record, and the
// coordinator sums them. Version 5 sends the batch's flight-recorder
// captures as a count, not the dumps. The spec encoding, and so the
// state key, is unchanged.
const protoVersion = 5

// maxFrame bounds one wire frame (type byte + JSON payload). Batches
// are a few KiB of sparse histogram deltas; 16 MiB is generous
// headroom while still rejecting a corrupt length prefix before
// allocating.
const maxFrame = 16 << 20

// Message types. Every frame is 4 bytes big-endian length (of
// everything that follows), 1 type byte, a JSON payload, then a 4-byte
// big-endian CRC32 (IEEE) of the type byte + payload. The checksum is
// what lets the coordinator tell a corrupted frame from a hostile or
// broken peer: corrupt frames are detected, counted, and skipped
// (errCorruptFrame) without ever reaching the merge path.
type msgType byte

const (
	// msgHello: worker → coordinator, once per connection.
	msgHello msgType = 1
	// msgAssign: coordinator → worker, the shard lease.
	msgAssign msgType = 2
	// msgBatch: worker → coordinator, one streamed delta window.
	msgBatch msgType = 3
	// msgDrain: coordinator → worker ("flush and exit"), or the lone
	// reply to a hello when no shard is available.
	msgDrain msgType = 4
)

// Hello is the worker's opening message.
type Hello struct {
	Proto int `json:"proto"`
	PID   int `json:"pid"`
	// Retries is how many failed connection attempts preceded this
	// hello (reconnect loop); the coordinator folds it into
	// Status.Retries.
	Retries int `json:"retries,omitempty"`
}

// Spec is the wire form of the fleet-wide workload: a soak.Config,
// whose JSON tags are the wire encoding, so every campaign field
// reaches the workers. The JSON of the resolved spec also keys the
// coordinator's persisted checkpoint state.
type Spec soak.Config

// SpecFromConfig converts a soak.Config to the wire form.
func SpecFromConfig(cfg soak.Config) Spec { return Spec(cfg) }

// SoakConfig returns the soak.Config a worker runs.
func (sp Spec) SoakConfig() soak.Config { return soak.Config(sp) }

// Assign is the coordinator's shard lease: which shard the connection
// owns, how far it has already been merged (the checkpoint the worker
// fast-forwards to), the shard's total op budget, the batch size to
// stream at, and the full workload spec.
type Assign struct {
	Shard      int    `json:"shard"`
	Checkpoint uint64 `json:"checkpoint"`
	Budget     uint64 `json:"budget"`
	BatchOps   int    `json:"batch_ops"`
	Spec       Spec   `json:"spec"`
}

// SourceDelta is one per-source histogram delta within a batch.
type SourceDelta struct {
	Op   uint8              `json:"op"`
	Hist obs.HistogramState `json:"hist"`
}

// Batch is one streamed delta window: everything the shard observed in
// ops (FromOps, ToOps], the difference of the shard runner's
// soak.Tally at ToOps and at FromOps. Histogram and counter fields are
// deltas since the previous batch, except SimCycles (the shard's cumulative
// simulated clock, which only the latest value of matters) and the
// delta histograms' Max/Min (cumulative extrema — telescoping merges
// still recover the global extrema exactly; see obs.DeltaSince).
type Batch struct {
	Shard int `json:"shard"`
	// Config echoes the spec's ConfigKey: a histogram delta carries no
	// configuration identity of its own (obs.DeltaSince is pure bucket
	// arithmetic), so the batch names the configuration it was observed
	// under and the coordinator refuses mismatches at admission.
	Config  string `json:"config,omitempty"`
	FromOps uint64 `json:"from_ops"`
	ToOps   uint64 `json:"to_ops"`
	// SimCycles is the shard's cumulative simulated clock at ToOps.
	SimCycles uint64 `json:"sim_cycles"`
	// Emitted / Dropped are tracer-ring deltas for the window.
	Emitted uint64 `json:"emitted,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
	// EventCounts maps event-kind wire names to window deltas.
	EventCounts map[string]uint64 `json:"event_counts,omitempty"`
	// Sources carries the non-empty per-source latency deltas, in op
	// order. They are the window's only latency record: the
	// all-sources delta is their merge.
	Sources []SourceDelta `json:"sources,omitempty"`
	// Violations / NearMax are sentinel deltas for the window.
	Violations uint64 `json:"violations,omitempty"`
	NearMax    uint64 `json:"near_max,omitempty"`
	// Captures counts the flight-recorder dumps taken during the
	// window; the dumps stay with the worker.
	Captures uint64 `json:"captures,omitempty"`
	// Final marks the shard's last batch: budget reached or drain
	// honoured. The connection closes after it.
	Final bool `json:"final,omitempty"`
}

// tally decodes the batch's window into d, the inverse of the worker's
// stream.batch. d.SimCycles is left zero: the batch carries the
// shard's cumulative clock, which only the coordinator can difference.
// A batch decodes whole or not at all: an event kind or source op
// outside the tables, or a malformed histogram, is an error.
func (b *Batch) tally(d *soak.Tally) error {
	*d = soak.Tally{
		Ops:        b.ToOps - b.FromOps,
		Emitted:    b.Emitted,
		Dropped:    b.Dropped,
		Violations: b.Violations,
		NearMax:    b.NearMax,
		Captures:   b.Captures,
	}
	for name, n := range b.EventCounts {
		k, ok := obs.KindNamed(name)
		if !ok {
			return fmt.Errorf("unknown event kind %q", name)
		}
		d.Kinds[k] += n
	}
	for _, sd := range b.Sources {
		if int(sd.Op) >= obs.NumOps {
			return fmt.Errorf("source op %d out of range", sd.Op)
		}
		h, err := obs.HistogramFromState(sd.Hist)
		if err != nil {
			return fmt.Errorf("bad source delta: %w", err)
		}
		d.Sources[sd.Op].Merge(&h)
	}
	return nil
}

// errCorruptFrame classifies recoverable frame corruption: the reader
// consumed a whole (claimed) frame but its length, checksum, or type
// byte is wrong. Callers may keep reading the stream — a strike
// counter quarantines connections that never recover — whereas other
// read errors (EOF, deadline, short read) mean the connection is gone.
var errCorruptFrame = errors.New("corrupt frame")

// frameMinLen is the smallest valid frame body: type byte + CRC32.
const frameMinLen = 5

// frameBufs recycles frame buffers across writeMsg calls. Buffers
// grown past maxPooledFrame by a rare capture-heavy frame are dropped
// rather than kept.
var frameBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledFrame = 64 << 10

// writeMsg frames and writes one message as a single Write call, so
// frames written concurrently to one connection (a coordinator's
// Drain racing its connection goroutine) never interleave: net.Conn
// and net.Pipe serialise concurrent Write calls.
func writeMsg(w io.Writer, t msgType, v any) error {
	buf := frameBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledFrame {
			frameBufs.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0, byte(t)}) // length prefix, filled in below
	if v != nil {
		if err := json.NewEncoder(buf).Encode(v); err != nil {
			return fmt.Errorf("fleet: marshal %d: %w", t, err)
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline; the payload is json.Marshal's bytes
	}
	bodyLen := buf.Len() - 5
	if bodyLen+frameMinLen > maxFrame {
		return fmt.Errorf("fleet: frame type %d exceeds %d bytes", t, maxFrame)
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame[:4], uint32(frameMinLen+bodyLen))
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(frame[4:]))
	buf.Write(sum[:])
	_, err := w.Write(buf.Bytes())
	return err
}

// readMsg reads one framed message and returns its type and payload.
// A frame that arrives complete but fails validation (length out of
// range, CRC mismatch, unknown type byte) returns an error wrapping
// errCorruptFrame; transport failures return the underlying error.
func readMsg(r io.Reader) (msgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < frameMinLen || n > maxFrame {
		return 0, nil, fmt.Errorf("fleet: frame length %d out of range: %w", n, errCorruptFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	want := binary.BigEndian.Uint32(buf[n-4:])
	if got := crc32.ChecksumIEEE(buf[:n-4]); got != want {
		return 0, nil, fmt.Errorf("fleet: frame checksum %08x, want %08x: %w", got, want, errCorruptFrame)
	}
	t := msgType(buf[0])
	if t < msgHello || t > msgDrain {
		return 0, nil, fmt.Errorf("fleet: unknown frame type %d: %w", t, errCorruptFrame)
	}
	return t, buf[1 : n-4], nil
}

// armRead sets a read deadline d from now when the stream supports
// deadlines (net.Conn, net.Pipe, chaos wrappers); otherwise a no-op.
// d <= 0 clears any existing deadline, so a disabled frame timeout
// behaves identically to the pre-deadline protocol.
func armRead(r io.Reader, d time.Duration) {
	rd, ok := r.(interface{ SetReadDeadline(time.Time) error })
	if !ok {
		return
	}
	if d <= 0 {
		_ = rd.SetReadDeadline(time.Time{})
		return
	}
	_ = rd.SetReadDeadline(time.Now().Add(d))
}

// armWrite is armRead's write-side twin.
func armWrite(w io.Writer, d time.Duration) {
	wd, ok := w.(interface{ SetWriteDeadline(time.Time) error })
	if !ok {
		return
	}
	if d <= 0 {
		_ = wd.SetWriteDeadline(time.Time{})
		return
	}
	_ = wd.SetWriteDeadline(time.Now().Add(d))
}
