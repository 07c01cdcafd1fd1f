package loadgen

import (
	"bytes"
	"testing"
)

func TestQuantileIndexRule(t *testing.T) {
	sorted := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int
	}{{0.01, 10}, {0.5, 50}, {0.9, 90}, {0.99, 90}, {1, 100}} {
		if got := Quantile(sorted, c.p); got != c.want {
			t.Errorf("Quantile(p=%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Quantile([]int(nil), 0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
}

// TestBodiesReplayAndOmitEmpty: a (mix, seed) pair always yields the
// same bytes; unset timeout and no-cache stay out of the body, set ones
// go in.
func TestBodiesReplayAndOmitEmpty(t *testing.T) {
	mix := Mix{Grammars: []string{"demo", "english"}, Backend: "serial", MaxLen: 7, ZipfS: 1.3, ZipfPool: 4}
	a, err := mix.Bodies(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mix.Bodies(32, 5)
	distinct := map[string]bool{}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between replays", i)
		}
		if bytes.Contains(a[i], []byte("timeout_ms")) || bytes.Contains(a[i], []byte("no_cache")) {
			t.Fatalf("unset fields serialized: %s", a[i])
		}
		distinct[string(a[i])] = true
	}
	if len(distinct) > mix.ZipfPool {
		t.Errorf("zipf mix sent %d distinct bodies from a pool of %d", len(distinct), mix.ZipfPool)
	}

	lat := Mix{Lattice: true, LatticeSlots: 5, LatticeAlts: 3, LatticeUtterances: 2, TimeoutMS: 50, NoCache: true}
	bodies, err := lat.Bodies(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Endpoint() != "/v1/lattice" || !bytes.Equal(bodies[0], bodies[2]) ||
		!bytes.Contains(bodies[1], []byte(`"utterance_id":"bench-utt-1"`)) ||
		!bytes.Contains(bodies[0], []byte(`"timeout_ms":50`)) || !bytes.Contains(bodies[0], []byte(`"no_cache":true`)) {
		t.Errorf("lattice bodies: %s", bytes.Join(bodies, []byte("\n")))
	}
}
