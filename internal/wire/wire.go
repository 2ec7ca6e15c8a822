// Package wire provides the codec for the messages the system
// exchanges, so experiments can account for real wire sizes (the 1986
// testbed's point-to-point links are simulated, but the bytes that
// would cross them are measured from actual encodings, not guesses).
//
// Encodings carry a one-byte format tag. The hot propagation types —
// txn.Quasi, broadcast.Data, broadcast.DataBatch, broadcast.Digest —
// take a hand-rolled binary fast path (varint fields, one exact-sized
// allocation per message, no reflection); everything else, and hot
// types holding payload values the fast path cannot represent, falls
// back to gob behind tag 0. Size computes the fast-path size
// analytically without encoding at all, and memoizes unencodable
// payload types, so per-message byte accounting (netsim.WithSizeFunc,
// the broadcast LogBytes gauge) costs nanoseconds instead of a full
// encode per call.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sync"

	"fragdb/internal/broadcast"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

// Format tags: the first byte of every encoding.
const (
	tagGob    byte = 0x00 // gob-encoded envelope follows
	tagQuasi  byte = 0x01
	tagData   byte = 0x02
	tagBatch  byte = 0x03
	tagDigest byte = 0x04
)

// Value tags for `any`-typed payload slots (WriteOp.Value,
// Data.Payload, DataBatch.Payloads elements).
const (
	valNil    byte = 0x00
	valBool   byte = 0x01
	valInt    byte = 0x02
	valInt64  byte = 0x03
	valUint64 byte = 0x04
	valString byte = 0x05
	valQuasi  byte = 0x06
)

// envelope wraps payloads so heterogeneous message types decode through
// a single interface field on the gob fallback path.
type envelope struct {
	P any
}

var registerOnce sync.Once

// RegisterDefaults registers the exported message types of the protocol
// stack with gob. Call before Encode/Decode/Size; it is idempotent.
func RegisterDefaults() {
	registerOnce.Do(func() {
		gob.Register(txn.Quasi{})
		gob.Register(txn.WriteOp{})
		gob.Register(broadcast.Data{})
		gob.Register(broadcast.DataBatch{})
		gob.Register(broadcast.Digest{})
		// SnapshotOffer itself is registered; its State field may hold an
		// unexported application type, in which case Size reports 0 for
		// the offer (the simulation never ships real bytes).
		gob.Register(broadcast.SnapshotOffer{})
		gob.Register(int64(0))
		gob.Register("")
		gob.Register(true)
	})
}

// Encode serializes a payload: fast path for the hot propagation types,
// gob for everything else.
func Encode(payload any) ([]byte, error) {
	switch m := payload.(type) {
	case txn.Quasi:
		if quasiFast(m) {
			out := make([]byte, 1, 1+sizeQuasi(m))
			out[0] = tagQuasi
			return appendQuasi(out, m), nil
		}
	case broadcast.Data:
		if valueFast(m.Payload) {
			out := make([]byte, 1, 1+sizeData(m))
			out[0] = tagData
			return appendData(out, m), nil
		}
	case broadcast.DataBatch:
		if batchFast(m) {
			out := make([]byte, 1, 1+sizeBatch(m))
			out[0] = tagBatch
			return appendBatch(out, m), nil
		}
	case broadcast.Digest:
		out := make([]byte, 1, 1+sizeDigest(m))
		out[0] = tagDigest
		return appendDigest(out, m), nil
	}
	return encodeGob(payload)
}

// Decode deserializes a payload produced by Encode.
func Decode(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, errors.New("wire: decode: empty buffer")
	}
	r := reader{b: b, off: 1}
	switch b[0] {
	case tagGob:
		return decodeGob(b[1:])
	case tagQuasi:
		q := r.quasi()
		if r.err != nil {
			return nil, fmt.Errorf("wire: decode quasi: %w", r.err)
		}
		return q, nil
	case tagData:
		m := broadcast.Data{Origin: r.nodeID(), Seq: r.uvarint()}
		m.Payload = r.value()
		if r.err != nil {
			return nil, fmt.Errorf("wire: decode data: %w", r.err)
		}
		return m, nil
	case tagBatch:
		m := broadcast.DataBatch{Origin: r.nodeID(), Start: r.uvarint()}
		n := r.count()
		if r.err == nil && n > 0 {
			m.Payloads = make([]any, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				m.Payloads = append(m.Payloads, r.value())
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("wire: decode batch: %w", r.err)
		}
		return m, nil
	case tagDigest:
		m := broadcast.Digest{Delta: r.bool()}
		n := r.count()
		if r.err == nil {
			m.Have = make(map[netsim.NodeID]uint64, n)
			for i := 0; i < n && r.err == nil; i++ {
				o := r.nodeID()
				m.Have[o] = r.uvarint()
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("wire: decode digest: %w", r.err)
		}
		return m, nil
	}
	return nil, fmt.Errorf("wire: decode: unknown format tag %#x", b[0])
}

// Size reports the encoded size of a payload in bytes, or 0 if the
// payload is not encodable (unexported message types used only inside
// the simulation). For the fast-path types the size is computed
// analytically, without encoding; for other types a failed encode is
// memoized per concrete type, so repeated Size calls on unencodable
// simulation-internal messages cost one map lookup. Suitable for
// netsim.WithSizeFunc.
func Size(payload any) int {
	switch m := payload.(type) {
	case txn.Quasi:
		if quasiFast(m) {
			return 1 + sizeQuasi(m)
		}
	case broadcast.Data:
		if valueFast(m.Payload) {
			return 1 + sizeData(m)
		}
	case broadcast.DataBatch:
		if batchFast(m) {
			return 1 + sizeBatch(m)
		}
	case broadcast.Digest:
		return 1 + sizeDigest(m)
	case nil:
		return 0
	}
	if t := reflect.TypeOf(payload); t != nil {
		if _, bad := unencodable.Load(t); bad {
			return 0
		}
		b, err := encodeGob(payload)
		if err != nil {
			unencodable.Store(t, struct{}{})
			return 0
		}
		return len(b)
	}
	return 0
}

// unencodable memoizes concrete types gob cannot encode (unexported
// simulation-internal messages), keyed by reflect.Type.
var unencodable sync.Map

// gobBufs pools the scratch buffers of the gob fallback path.
var gobBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func encodeGob(payload any) ([]byte, error) {
	RegisterDefaults()
	buf := gobBufs.Get().(*bytes.Buffer)
	defer gobBufs.Put(buf)
	buf.Reset()
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(buf).Encode(envelope{P: payload}); err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", payload, err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

func decodeGob(b []byte) (any, error) {
	RegisterDefaults()
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&env); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return env.P, nil
}

// ---- fast-path eligibility ------------------------------------------

// valueFast reports whether v fits the value encoding of `any` slots.
func valueFast(v any) bool {
	switch q := v.(type) {
	case nil, bool, int, int64, uint64, string:
		return true
	case txn.Quasi:
		return quasiFast(q)
	}
	return false
}

// quasiFast reports whether every write value of q is a fast scalar
// (nested quasis inside quasis are not a thing; anything exotic takes
// the gob fallback for the whole message).
func quasiFast(q txn.Quasi) bool {
	for _, w := range q.Writes {
		switch w.Value.(type) {
		case nil, bool, int, int64, uint64, string:
		default:
			return false
		}
	}
	return true
}

func batchFast(m broadcast.DataBatch) bool {
	for _, p := range m.Payloads {
		if !valueFast(p) {
			return false
		}
	}
	return true
}

// ---- analytic sizes --------------------------------------------------

func sizeUvarint(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func sizeVarint(x int64) int {
	return sizeUvarint(uint64(x)<<1 ^ uint64(x>>63)) // zigzag
}

func sizeString(s string) int { return sizeUvarint(uint64(len(s))) + len(s) }

func sizeValue(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case bool:
		return 2
	case int:
		return 1 + sizeVarint(int64(x))
	case int64:
		return 1 + sizeVarint(x)
	case uint64:
		return 1 + sizeUvarint(x)
	case string:
		return 1 + sizeString(x)
	case txn.Quasi:
		return 1 + sizeQuasi(x)
	}
	return 0 // unreachable behind valueFast
}

func sizeQuasi(q txn.Quasi) int {
	n := sizeVarint(int64(q.Txn.Origin)) + sizeUvarint(q.Txn.Seq)
	n += sizeString(string(q.Fragment))
	n += sizeUvarint(q.Pos.Epoch) + sizeUvarint(q.Pos.Seq)
	n += sizeVarint(int64(q.Home))
	n += sizeVarint(int64(q.Stamp))
	n += sizeUvarint(uint64(len(q.Writes)))
	for _, w := range q.Writes {
		n += sizeString(string(w.Object)) + sizeValue(w.Value)
	}
	return n
}

func sizeData(m broadcast.Data) int {
	return sizeVarint(int64(m.Origin)) + sizeUvarint(m.Seq) + sizeValue(m.Payload)
}

func sizeBatch(m broadcast.DataBatch) int {
	n := sizeVarint(int64(m.Origin)) + sizeUvarint(m.Start) +
		sizeUvarint(uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		n += sizeValue(p)
	}
	return n
}

func sizeDigest(m broadcast.Digest) int {
	n := 1 + sizeUvarint(uint64(len(m.Have)))
	for o, h := range m.Have {
		n += sizeVarint(int64(o)) + sizeUvarint(h)
	}
	return n
}

// ---- encoding --------------------------------------------------------

func appendVarint(b []byte, x int64) []byte {
	return binary.AppendUvarint(b, uint64(x)<<1^uint64(x>>63))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, valNil)
	case bool:
		if x {
			return append(b, valBool, 1)
		}
		return append(b, valBool, 0)
	case int:
		return appendVarint(append(b, valInt), int64(x))
	case int64:
		return appendVarint(append(b, valInt64), x)
	case uint64:
		return binary.AppendUvarint(append(b, valUint64), x)
	case string:
		return appendString(append(b, valString), x)
	case txn.Quasi:
		return appendQuasi(append(b, valQuasi), x)
	}
	panic(fmt.Sprintf("wire: appendValue on unchecked type %T", v))
}

func appendQuasi(b []byte, q txn.Quasi) []byte {
	b = appendVarint(b, int64(q.Txn.Origin))
	b = binary.AppendUvarint(b, q.Txn.Seq)
	b = appendString(b, string(q.Fragment))
	b = binary.AppendUvarint(b, q.Pos.Epoch)
	b = binary.AppendUvarint(b, q.Pos.Seq)
	b = appendVarint(b, int64(q.Home))
	b = appendVarint(b, int64(q.Stamp))
	b = binary.AppendUvarint(b, uint64(len(q.Writes)))
	for _, w := range q.Writes {
		b = appendString(b, string(w.Object))
		b = appendValue(b, w.Value)
	}
	return b
}

func appendData(b []byte, m broadcast.Data) []byte {
	b = appendVarint(b, int64(m.Origin))
	b = binary.AppendUvarint(b, m.Seq)
	return appendValue(b, m.Payload)
}

func appendBatch(b []byte, m broadcast.DataBatch) []byte {
	b = appendVarint(b, int64(m.Origin))
	b = binary.AppendUvarint(b, m.Start)
	b = binary.AppendUvarint(b, uint64(len(m.Payloads)))
	for _, p := range m.Payloads {
		b = appendValue(b, p)
	}
	return b
}

// appendDigest encodes the Have vector sorted by node id, so equal
// digests encode to equal bytes (map iteration order must not leak into
// the wire image). The ids are sorted in a stack buffer, so a digest of
// up to 16 streams encodes without allocating; a larger one spills the
// buffer to the heap.
func appendDigest(b []byte, m broadcast.Digest) []byte {
	if m.Delta {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Have)))
	var buf [16]netsim.NodeID
	ids := buf[:0]
	for o := range m.Have {
		ids = append(ids, o)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: tiny n
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, o := range ids {
		b = appendVarint(b, int64(o))
		b = binary.AppendUvarint(b, m.Have[o])
	}
	return b
}

// ---- decoding --------------------------------------------------------

// reader is a bounds-checked cursor over an encoded message. All length
// and count fields are validated against the remaining input before any
// allocation, so hostile inputs cannot force large allocations.
type reader struct {
	b   []byte
	off int
	err error
}

var errTruncated = errors.New("truncated input")

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return x
}

func (r *reader) varint() int64 {
	x := r.uvarint()
	return int64(x>>1) ^ -int64(x&1) // un-zigzag
}

func (r *reader) nodeID() netsim.NodeID { return netsim.NodeID(r.varint()) }

// count reads an element count, rejecting values that could not fit in
// the remaining input (every element takes at least one byte).
func (r *reader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) value() any {
	switch r.byte() {
	case valNil:
		return nil
	case valBool:
		return r.byte() != 0
	case valInt:
		return int(r.varint())
	case valInt64:
		return r.varint()
	case valUint64:
		return r.uvarint()
	case valString:
		return r.str()
	case valQuasi:
		return r.quasi()
	default:
		if r.err == nil {
			r.err = errors.New("unknown value tag")
		}
		return nil
	}
}

func (r *reader) quasi() txn.Quasi {
	var q txn.Quasi
	q.Txn.Origin = r.nodeID()
	q.Txn.Seq = r.uvarint()
	q.Fragment = fragments.FragmentID(r.str())
	q.Pos.Epoch = r.uvarint()
	q.Pos.Seq = r.uvarint()
	q.Home = r.nodeID()
	q.Stamp = simtime.Time(r.varint())
	n := r.count()
	if r.err != nil || n == 0 {
		return q
	}
	q.Writes = make([]txn.WriteOp, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var w txn.WriteOp
		w.Object = fragments.ObjectID(r.str())
		w.Value = r.value()
		q.Writes = append(q.Writes, w)
	}
	return q
}
