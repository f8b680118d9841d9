package engine

import (
	"reflect"
	"testing"
)

func TestGobShimRoundTrip(t *testing.T) {
	in := WireQueries{IDs: []string{"q1"}, Descriptions: []string{"first"}, Residues: [][]byte{{1, 2}}, Kind: 1}
	var back WireQueries
	if err := DecodeGob(EncodeGob(in), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("gob round trip changed the value: %+v", back)
	}
}
