package jobs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
)

// The queue's durability layer is a single append-only write-ahead log
// under DIR/queue.wal. Every state transition a crash must not lose is
// one framed record:
//
//	enqueue  — the job exists (payload, queue, attempt budget)
//	fail     — an attempt failed; the attempt counter advanced
//	ack      — the job completed; its result is retained
//	dead     — the job exhausted its attempts (dead-letter)
//	meta     — the ID high-water mark; compaction drops settled jobs'
//	           enqueue records, so this keeps issued IDs monotonic
//	           across restarts
//
// A job whose last record is enqueue or fail is live: replay returns it
// to its queue's pending list, which is exactly the at-least-once
// guarantee — a worker that dies mid-job never wrote the ack, so the
// job runs again. durable.Log frames the records and drops a torn tail.

// walMagic is the file header; a version bump changes the trailing byte.
const walMagic = "sdnjobswal1\n"

// walOp discriminates record types.
type walOp uint8

// Record opcodes.
const (
	opEnqueue walOp = 1
	opAck     walOp = 2
	opFail    walOp = 3
	opDead    walOp = 4
	opMeta    walOp = 5
)

// walRecord is one WAL entry. Which fields are meaningful depends on the
// op: enqueue carries queue/payload/corr/maxAttempts, fail carries
// attempts/errMsg, ack carries result, dead carries attempts/errMsg,
// meta carries only id (the highest job ID ever issued).
type walRecord struct {
	op          walOp
	id          uint64
	queue       string
	payload     []byte
	corr        uint64
	maxAttempts uint32
	attempts    uint32
	errMsg      string
	result      []byte
	ts          int64 // unix nanos at append time

	// Span context of the operation that enqueued the job, so a worker
	// restarted from disk continues the original trace. The fields ride
	// as an optional suffix after ts: records written before tracing
	// existed (or for untraced jobs) omit them and decode as zero, which
	// keeps the WAL readable in both directions without a magic bump.
	traceID    uint64
	spanID     uint64
	spanParent uint64

	// Tenant owning the job (multi-tenant managers). Rides as a further
	// optional suffix after the trace triple; a record carrying a tenant
	// forces the trace triple (possibly all-zero) so decode order stays
	// unambiguous. Pre-tenant records decode with tenant == "".
	tenant string
}

// errBadRecord reports a record body that does not decode.
var errBadRecord = errors.New("jobs: bad WAL record")

// maxFieldLen bounds every variable-length field so a corrupt length
// prefix cannot ask the decoder for gigabytes.
const maxFieldLen = 16 << 20

// encodeRecord renders the record body (unframed). The layout is
// versioned by walMagic: op byte, then uvarint-framed fields in fixed
// order.
func encodeRecord(r *walRecord) []byte {
	var tmp [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, 32+len(r.queue)+len(r.payload)+len(r.errMsg)+len(r.result))
	buf = append(buf, byte(r.op))
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putBytes := func(b []byte) {
		putUvarint(uint64(len(b)))
		buf = append(buf, b...)
	}
	putUvarint(r.id)
	putBytes([]byte(r.queue))
	putBytes(r.payload)
	putUvarint(r.corr)
	putUvarint(uint64(r.maxAttempts))
	putUvarint(uint64(r.attempts))
	putBytes([]byte(r.errMsg))
	putBytes(r.result)
	n := binary.PutVarint(tmp[:], r.ts)
	buf = append(buf, tmp[:n]...)
	// Optional trace suffix: written only when a context exists, so
	// untraced records stay byte-identical to the pre-trace format. A
	// tenant forces the triple (even all-zero) because it decodes after.
	if r.traceID != 0 || r.spanID != 0 || r.spanParent != 0 || r.tenant != "" {
		putUvarint(r.traceID)
		putUvarint(r.spanID)
		putUvarint(r.spanParent)
		if r.tenant != "" {
			putBytes([]byte(r.tenant))
		}
	}
	return buf
}

// decodeRecord parses a record body produced by encodeRecord. It must
// never panic on arbitrary input (FuzzJobDecode enforces this) and must
// round-trip: decodeRecord(encodeRecord(r)) == r.
func decodeRecord(b []byte) (*walRecord, error) {
	if len(b) < 1 {
		return nil, errBadRecord
	}
	r := &walRecord{op: walOp(b[0])}
	if r.op < opEnqueue || r.op > opMeta {
		return nil, fmt.Errorf("%w: unknown op %d", errBadRecord, r.op)
	}
	b = b[1:]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, errBadRecord
		}
		b = b[n:]
		return v, nil
	}
	readBytes := func() ([]byte, error) {
		n, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if n > maxFieldLen || n > uint64(len(b)) {
			return nil, errBadRecord
		}
		out := b[:n]
		b = b[n:]
		return out, nil
	}
	var err error
	if r.id, err = readUvarint(); err != nil {
		return nil, err
	}
	q, err := readBytes()
	if err != nil {
		return nil, err
	}
	r.queue = string(q)
	if r.payload, err = readBytes(); err != nil {
		return nil, err
	}
	if len(r.payload) == 0 {
		r.payload = nil
	}
	if r.corr, err = readUvarint(); err != nil {
		return nil, err
	}
	ma, err := readUvarint()
	if err != nil || ma > math.MaxUint32 {
		return nil, errBadRecord
	}
	r.maxAttempts = uint32(ma)
	at, err := readUvarint()
	if err != nil || at > math.MaxUint32 {
		return nil, errBadRecord
	}
	r.attempts = uint32(at)
	e, err := readBytes()
	if err != nil {
		return nil, err
	}
	r.errMsg = string(e)
	if r.result, err = readBytes(); err != nil {
		return nil, err
	}
	if len(r.result) == 0 {
		r.result = nil
	}
	ts, n := binary.Varint(b)
	if n <= 0 {
		return nil, errBadRecord
	}
	r.ts = ts
	b = b[n:]
	if len(b) == 0 {
		return r, nil // pre-trace record: context decodes as zero
	}
	if r.traceID, err = readUvarint(); err != nil {
		return nil, err
	}
	if r.spanID, err = readUvarint(); err != nil {
		return nil, err
	}
	if r.spanParent, err = readUvarint(); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return r, nil // pre-tenant record
	}
	t, err := readBytes()
	if err != nil {
		return nil, err
	}
	r.tenant = string(t)
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadRecord, len(b))
	}
	return r, nil
}

// walPath returns the log path under a queue directory.
func walPath(dir string) string { return filepath.Join(dir, "queue.wal") }
