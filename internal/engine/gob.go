package engine

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The runtime does not use encoding/gob: every message, the job broadcasts
// included, goes through the compact codec (codec.go). These two functions
// stay for one caller outside the module, the frozen benchmark row
// engine.gob_roundtrip_cal_us in bench/drivers.go, and go when the benchmark
// is next revised. gob hands out type ids per process, so a gob payload's
// length depends on what the process encoded before — never put one on the
// simulated wire.

// EncodeGob serializes a value with encoding/gob.
func EncodeGob(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("engine: gob encode: %v", err))
	}
	return buf.Bytes()
}

// DecodeGob deserializes into out.
func DecodeGob(data []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(out)
}
