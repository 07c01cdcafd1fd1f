package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

// family is a sentence template of one built-in grammar: base(n) is a
// sentence of n words, and each word may be replaced by any word of its
// class without changing the sentence's structure.
type family struct {
	grammar string
	base    func(n int) []string
	classes [][]string
}

// english draws from workload.EnglishSentence. Only the ambitransitive
// "verb" class substitutes for the verb: tverb and iverb would change
// which complements the sentence needs.
var english = family{
	grammar: "english",
	base:    workload.EnglishSentence,
	classes: [][]string{
		{"the", "a", "every"},
		{"big", "old", "red"},
		{"dog", "man", "telescope", "park", "cat", "ball"},
		{"saw", "walked", "liked", "chased"},
		{"with", "in", "of"},
	},
}

// demo draws from workload.DemoSentence over the paper's lexicon.
var demo = family{
	grammar: "demo",
	base:    workload.DemoSentence,
	classes: [][]string{
		{"the", "a", "this"},
		{"program", "compiler", "machine", "parser"},
		{"runs", "halts", "works"},
	},
}

func (f family) classOf(w string) []string {
	for _, c := range f.classes {
		for _, x := range c {
			if x == w {
				return c
			}
		}
	}
	return nil
}

// generator yields seeded sentences that never repeat within one
// generator, so neither gang dedup nor the result cache sees a repeat
// unless a workload repeats inputs on purpose. Not safe for concurrent
// use.
type generator struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
}

// sentence returns an n-word sentence of f not returned before.
func (g *generator) sentence(f family, n int) ([]string, error) {
	for try := 0; try < 1000; try++ {
		words := f.base(n)
		for i, w := range words {
			if c := f.classOf(w); c != nil {
				words[i] = c[g.rng.Intn(len(c))]
			}
		}
		key := sentenceKey(f.grammar, words)
		if !g.seen[key] {
			g.seen[key] = true
			return words, nil
		}
	}
	return nil, fmt.Errorf("generator: no unused %s sentence of length %d", f.grammar, n)
}

// lengthCycle draws sentence lengths from lo..hi in shuffled blocks:
// each block of hi-lo+1 draws is a seeded permutation of the range.
// Every length is equally represented up to one partial block, so a
// run's latency percentiles land in the same length group whatever the
// seed and however many requests the run completes.
type lengthCycle struct {
	rng    *rand.Rand
	lo, hi int
	block  []int
}

func (c *lengthCycle) next() int {
	if len(c.block) == 0 {
		c.block = c.rng.Perm(c.hi - c.lo + 1)
	}
	n := c.lo + c.block[0]
	c.block = c.block[1:]
	return n
}

func sentenceKey(grammar string, words []string) string {
	return grammar + "|" + strings.Join(words, " ")
}
