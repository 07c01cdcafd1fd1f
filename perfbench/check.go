package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/maspar"
	"repro/internal/server"
)

// oracle checks answers: the verdict and parse count must equal the
// serial reference engine's for the same sentence, and a MasPar
// answer's charged counters must equal core.PlanMasPar at its length
// and its reported filter rounds. It runs after the timed phase, so it
// costs neither set-up time nor throughput. Not safe for concurrent
// use.
type oracle struct {
	grammars map[string]*cdg.Grammar
	serial   map[string]server.ParseResult
}

func newOracle() *oracle {
	return &oracle{grammars: make(map[string]*cdg.Grammar), serial: make(map[string]server.ParseResult)}
}

func (o *oracle) grammar(name string) (*cdg.Grammar, error) {
	if g, ok := o.grammars[name]; ok {
		return g, nil
	}
	g, err := grammars.ByName(name)
	if err != nil {
		return nil, err
	}
	o.grammars[name] = g
	return g, nil
}

// reference returns the serial engine's answer for the sentence,
// rendered as the service renders it (default parse bound).
func (o *oracle) reference(grammar string, words []string) (server.ParseResult, *cdg.Grammar, error) {
	g, err := o.grammar(grammar)
	if err != nil {
		return server.ParseResult{}, nil, err
	}
	key := sentenceKey(grammar, words)
	if ref, ok := o.serial[key]; ok {
		return ref, g, nil
	}
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		return server.ParseResult{}, nil, err
	}
	res, err := core.NewParser(g, core.WithBackend(core.Serial)).ParseSentenceContext(context.Background(), sent)
	if err != nil {
		return server.ParseResult{}, nil, err
	}
	ref := server.NewResult(words, grammar, core.Serial.String(), res, 0)
	o.serial[key] = ref
	return ref, g, nil
}

// check returns an error describing the first way got is not a correct
// answer to words under grammar on the MasPar backend.
func (o *oracle) check(grammar string, words []string, got server.ParseResult) error {
	if got.Error != "" {
		return fmt.Errorf("%q: answered 200 with error %q", words, got.Error)
	}
	if !slices.Equal(got.Sentence, words) || got.Grammar != grammar || got.Backend != core.MasPar.String() {
		return fmt.Errorf("%q: answer is for %q (grammar %q, backend %q)", words, got.Sentence, got.Grammar, got.Backend)
	}
	ref, g, err := o.reference(grammar, words)
	if err != nil {
		return fmt.Errorf("%q: serial reference: %v", words, err)
	}
	if got.Accepted != ref.Accepted || got.NumParses != ref.NumParses {
		return fmt.Errorf("%q: accepted=%v parses=%d, serial says accepted=%v parses=%d",
			words, got.Accepted, got.NumParses, ref.Accepted, ref.NumParses)
	}
	c := got.Counters
	if c == nil {
		return fmt.Errorf("%q: no counters in a maspar answer", words)
	}
	plan := core.PlanMasPar(g, len(words), maspar.PhysicalPEs, maspar.DefaultCosts(), int(c.FilterIterations))
	if c.Cycles != plan.Cycles || c.ScanOps != plan.Scans || c.RouterOps != plan.Routers {
		return fmt.Errorf("%q: cycles=%d scans=%d routers=%d, plan at %d rounds says %d/%d/%d",
			words, c.Cycles, c.ScanOps, c.RouterOps, c.FilterIterations, plan.Cycles, plan.Scans, plan.Routers)
	}
	return nil
}
