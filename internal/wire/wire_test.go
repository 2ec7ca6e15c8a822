package wire

import (
	"encoding/gob"
	"reflect"
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
)

func TestQuasiRoundTrip(t *testing.T) {
	q := txn.Quasi{
		Txn:      txn.ID{Origin: 2, Seq: 7},
		Fragment: "BALANCES",
		Pos:      txn.FragPos{Epoch: 1, Seq: 3},
		Home:     2,
		Writes: []txn.WriteOp{
			{Object: "bal:00001", Value: int64(250)},
			{Object: "bal:00002", Value: int64(-50)},
		},
		Stamp: 12345,
	}
	b, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, q)
	}
}

func TestBroadcastDataWithNestedQuasi(t *testing.T) {
	d := broadcast.Data{
		Origin: 1, Seq: 9,
		Payload: txn.Quasi{
			Txn: txn.ID{Origin: 1, Seq: 9}, Fragment: "F",
			Writes: []txn.WriteOp{{Object: "x", Value: int64(1)}},
		},
	}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := broadcast.Digest{Have: map[netsim.NodeID]uint64{0: 3, 2: 9}}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: got %+v want %+v", got, d)
	}
}

func TestSizeGrowsWithPayload(t *testing.T) {
	small := txn.Quasi{Fragment: "F", Writes: []txn.WriteOp{{Object: "x", Value: int64(1)}}}
	big := txn.Quasi{Fragment: "F"}
	for i := 0; i < 50; i++ {
		big.Writes = append(big.Writes, txn.WriteOp{
			Object: "some-long-object-name", Value: int64(i),
		})
	}
	ss, bs := Size(small), Size(big)
	if ss <= 0 || bs <= ss {
		t.Errorf("sizes: small=%d big=%d", ss, bs)
	}
}

func TestSizeOfUnencodableIsZero(t *testing.T) {
	type private struct{ ch chan int }
	if got := Size(private{}); got != 0 {
		t.Errorf("Size of unencodable = %d", got)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not gob")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestDataBatchRoundTrip(t *testing.T) {
	m := broadcast.DataBatch{
		Origin: 2,
		Start:  17,
		Payloads: []any{
			txn.Quasi{
				Txn: txn.ID{Origin: 2, Seq: 17}, Fragment: "F",
				Writes: []txn.WriteOp{{Object: "x", Value: int64(1)}},
			},
			"marker",
			int64(-9),
			42,
			uint64(7),
			true,
			nil,
		},
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] == 0 {
		t.Fatal("DataBatch took the gob fallback, want fast path")
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestDeltaDigestRoundTrip(t *testing.T) {
	d := broadcast.Digest{Have: map[netsim.NodeID]uint64{1: 4}, Delta: true}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: got %+v want %+v", got, d)
	}
}

// TestSizeMatchesEncode: the analytic fast-path Size must agree exactly
// with the bytes Encode produces, for every fast type — netsim's byte
// accounting and the LogBytes gauge are built on it.
func TestSizeMatchesEncode(t *testing.T) {
	q := txn.Quasi{
		Txn:      txn.ID{Origin: 2, Seq: 700},
		Fragment: "BALANCES",
		Pos:      txn.FragPos{Epoch: 3, Seq: 1 << 40},
		Home:     4,
		Writes: []txn.WriteOp{
			{Object: "bal:00001", Value: int64(-250)},
			{Object: "flag", Value: true},
			{Object: "note", Value: "overdraft"},
			{Object: "gone", Value: nil},
		},
		Stamp: 987654321,
	}
	payloads := []any{
		q,
		broadcast.Data{Origin: 1, Seq: 9, Payload: q},
		broadcast.Data{Origin: 0, Seq: 1, Payload: "plain"},
		broadcast.DataBatch{Origin: 3, Start: 100, Payloads: []any{q, "x", int64(5), 11}},
		broadcast.Digest{Have: map[netsim.NodeID]uint64{0: 3, 1: 1 << 33, 2: 9}},
		broadcast.Digest{Have: map[netsim.NodeID]uint64{}, Delta: true},
	}
	for _, p := range payloads {
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		if got, want := Size(p), len(b); got != want {
			t.Errorf("%T: Size=%d, len(Encode)=%d", p, got, want)
		}
	}
}

// TestFastPathFallsBackForExoticValues: hot types carrying values the
// fast encoding cannot represent must take the gob fallback whole and
// still round-trip.
func TestFastPathFallsBackForExoticValues(t *testing.T) {
	payloads := []any{
		broadcast.Data{Origin: 0, Seq: 1, Payload: []string{"a", "b"}},
		txn.Quasi{Fragment: "F", Writes: []txn.WriteOp{{Object: "x", Value: float64(1.5)}}},
		broadcast.DataBatch{Origin: 0, Start: 1, Payloads: []any{map[string]int64{"k": 1}}},
	}
	gob.Register([]string(nil))
	gob.Register(float64(0))
	gob.Register(map[string]int64(nil))
	for _, p := range payloads {
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("encode %T: %v", p, err)
		}
		if b[0] != 0 {
			t.Fatalf("%T with exotic value took fast path (tag %#x)", p, b[0])
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %T: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, p)
		}
	}
}

// TestSizeMemoizesUnencodable: the first Size call on an unencodable
// type pays the failed encode; subsequent calls hit the type memo (the
// observable contract is just that they stay 0 and cheap).
func TestSizeMemoizesUnencodable(t *testing.T) {
	type secret struct{ ch chan int }
	if got := Size(secret{}); got != 0 {
		t.Fatalf("Size of unencodable = %d", got)
	}
	if _, ok := unencodable.Load(reflect.TypeOf(secret{})); !ok {
		t.Error("unencodable type not memoized after failed Size")
	}
	if got := Size(secret{}); got != 0 {
		t.Fatalf("memoized Size of unencodable = %d", got)
	}
}

// TestWideDigestRoundTrip: a digest with more streams than appendDigest's
// stack buffer holds still encodes sorted and round-trips.
func TestWideDigestRoundTrip(t *testing.T) {
	d := broadcast.Digest{Have: make(map[netsim.NodeID]uint64)}
	for i := 0; i < 40; i++ {
		d.Have[netsim.NodeID((i*17)%40)] = uint64(i + 1)
	}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _ := Encode(d)
		if string(again) != string(b) {
			t.Fatal("equal digests encoded to different bytes")
		}
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip: got %+v want %+v", got, d)
	}
}
