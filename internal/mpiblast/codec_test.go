package mpiblast

import (
	"reflect"
	"testing"
)

// TestJobMetaCodec: the job broadcast round-trips, and every strict prefix of
// it — and a count with nothing behind it — is an error, never a panic or an
// allocation sized by the count.
func TestJobMetaCodec(t *testing.T) {
	full := jobMeta{Queries: []byte{1, 2, 3}, NumSeqs: 400, TotalLen: 1 << 33,
		FragBases: []string{"nr.frag000", "nr.frag001"}, Tree: true, TreeFanout: 4}
	serve := jobMeta{Queries: []byte{}, NumSeqs: 1, TotalLen: 40, FragBases: []string{"nr.frag000"}, Serve: true}
	for _, in := range []jobMeta{full, serve} {
		data := in.encode()
		got, err := decodeJobMeta(data)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("round trip changed the value:\n got %+v\nwant %+v", got, in)
		}
		for cut := 0; cut < len(data); cut++ {
			if _, err := decodeJobMeta(data[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d undetected", cut, len(data))
			}
		}
	}
	// Empty queries, NumSeqs 0, TotalLen 0, then 2^62 fragments and no bytes.
	hostile := []byte{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := decodeJobMeta(hostile); err == nil {
		t.Fatal("a fragment count with no fragments behind it was accepted")
	}
}
