package main

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cdg"
	"repro/internal/grammars"
)

func TestGeneratorSameSeedSameSentences(t *testing.T) {
	draw := func(seed int64) [][]string {
		g := newGenerator(seed)
		var out [][]string
		for n := 3; n <= 10; n++ {
			for i := 0; i < 4; i++ {
				w, err := g.sentence(english, n)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, w)
			}
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 draw %d: %q then %q", i, a[i], b[i])
		}
	}
	if slices.EqualFunc(a, c, slices.Equal[[]string]) {
		t.Error("seeds 7 and 8 drew the same sentences")
	}
}

func TestGeneratorDistinctWithinRun(t *testing.T) {
	eng, err := grammars.ByName("english")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(1)
	seen := make(map[string]bool)
	for i := 0; i < 400; i++ {
		n := 6 + i%5
		w, err := g.sentence(english, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != n {
			t.Fatalf("asked for %d words, got %q", n, w)
		}
		k := sentenceKey("english", w)
		if seen[k] {
			t.Fatalf("draw %d repeats %q", i, w)
		}
		seen[k] = true
		if _, err := cdg.Resolve(eng, w, nil); err != nil {
			t.Fatalf("%q is not in the English lexicon: %v", w, err)
		}
	}
	// A class too small to give another distinct sentence is an error,
	// not a repeat: "program runs" has 4 nouns × 3 verbs = 12 variants.
	for i := 0; i < 12; i++ {
		if _, err := g.sentence(demo, 2); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
	}
	if w, err := g.sentence(demo, 2); err == nil {
		t.Fatalf("13th two-word demo sentence %q should not exist", w)
	}
}

func TestLengthCycleEvenMix(t *testing.T) {
	c := &lengthCycle{rng: rand.New(rand.NewSource(3)), lo: 6, hi: 10}
	count := make(map[int]int)
	for i := 0; i < 50; i++ {
		count[c.next()]++
		if (i+1)%5 == 0 {
			if len(c.block) != 0 {
				t.Fatalf("block not finished after %d draws", i+1)
			}
			for n := 6; n <= 10; n++ {
				if count[n] != (i+1)/5 {
					t.Fatalf("after %d draws length %d drawn %d times", i+1, n, count[n])
				}
			}
		}
	}
}
