// Package maporder is a fixture for the maporder analyzer: a range over
// a map may not feed anything order-sensitive unless the result is
// sorted afterwards or the site carries a //lint:sorted justification.
package maporder

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"parblast/internal/engine"
)

type conn struct{}

func (conn) Send(dst, tag int, data []byte) {}

type kv struct {
	k string
	v int
}

// The audited mutant of cmd/formatdb printing per-extension byte counts in
// map order: nothing compares that output, so only this check sees it.
func badPrint(m map[string]int) {
	for k, v := range m { // want "writes output via fmt.Printf"
		fmt.Printf("%s=%d\n", k, v)
	}
}

func badSend(c conn, m map[int][]byte) {
	for k, v := range m { // want "sends a message"
		c.Send(k, 0, v)
	}
}

func badChannel(m map[string]int, ch chan string) {
	for k := range m { // want "sends on a channel"
		ch <- k
	}
}

func badEscape(m map[string]int) []string {
	var keys []string
	for k := range m { // want "appends to keys"
		keys = append(keys, k)
	}
	return keys
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want "writes output via WriteString"
		b.WriteString(k)
	}
	return b.String()
}

func badMarshal(m map[string]int) [][]byte {
	var out [][]byte
	for _, v := range m { // want "feeds serialization via Marshal"
		b, _ := json.Marshal(v)
		out = append(out, b)
	}
	return out
}

func badCodec(c *engine.Codec, m map[string]int64) {
	for _, v := range m { // want "feeds the wire codec via Codec.Int64"
		c.Int64(&v)
	}
}

func badBareJustification(m map[string]int) {
	//lint:sorted
	for k := range m { // want "needs a justification"
		fmt.Println(k)
	}
}

func goodCollectSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSortSlice(m map[string]int) []kv {
	var out []kv
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

func goodReduce(m map[string]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

func goodCopy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func goodLocalAppend(m map[string][]int) {
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		_ = local // the slice never outlives one iteration
	}
}

func goodJustified(m map[string]int) {
	//lint:sorted debug dump consumed order-insensitively by the test harness
	for k := range m {
		fmt.Println(k)
	}
}
