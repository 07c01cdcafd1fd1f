package prom

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse feeds Parse arbitrary bytes, as the router does with shard
// scrapes read off the network. Parse must never panic, and Family
// output must be a fixed point: parsed and written again, it comes back
// byte for byte. The seed corpus is the golden /metrics output of a
// shard and of the router, with masked values filled in.
func FuzzParse(f *testing.F) {
	goldens, err := filepath.Glob("../router/clustertest/testdata/*.golden")
	if err != nil || len(goldens) == 0 {
		f.Fatalf("golden expositions: %v (found %d)", err, len(goldens))
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.ReplaceAll(data, []byte("<masked>"), []byte("0.00125")))
	}
	f.Add([]byte("# HELP x h\ny 1\nx_sum 2\n# TYPE x histogram\n"))
	f.Add([]byte("a{b=\"c} 1\" d} 2\n#\n# TYPE\n# HELP a\nNaN +Inf\n a 0x1p-2 \n"))

	write := func(fams []Family) string {
		var b strings.Builder
		p := NewWriter(&b)
		for i := range fams {
			p.Family(&fams[i])
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // far below the line-length limit even after reformatting
		}
		fams, err := Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		once := write(fams)
		again, err := Parse(strings.NewReader(once))
		if err != nil {
			t.Fatalf("Parse of Family output: %v", err)
		}
		if twice := write(again); twice != once {
			t.Fatalf("Family output is not a fixed point:\nonce:\n%s\ntwice:\n%s", once, twice)
		}
	})
}
