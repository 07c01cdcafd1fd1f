package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cdg"
	"repro/internal/core"
	"repro/internal/server"
)

// masparAnswer answers a sentence the way the service does.
func masparAnswer(t *testing.T, o *oracle, grammar string, words []string) server.ParseResult {
	t.Helper()
	g, err := o.grammar(grammar)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := cdg.Resolve(g, words, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewParser(g).ParseSentenceContext(context.Background(), sent)
	if err != nil {
		t.Fatal(err)
	}
	return server.NewResult(words, grammar, core.MasPar.String(), res, 0)
}

func TestOracleRejectsCorruptAnswers(t *testing.T) {
	o := newOracle()
	for _, words := range [][]string{
		{"the", "program", "runs"},                    // accepted
		{"the", "program", "the", "compiler", "runs"}, // rejected
	} {
		good := masparAnswer(t, o, "demo", words)
		if err := o.check("demo", words, good); err != nil {
			t.Fatalf("%q: correct answer rejected: %v", words, err)
		}
		for _, tc := range []struct {
			name, want string
			corrupt    func(r *server.ParseResult)
		}{
			{"flipped verdict", "serial says", func(r *server.ParseResult) { r.Accepted = !r.Accepted }},
			{"parse count", "serial says", func(r *server.ParseResult) { r.NumParses++ }},
			{"cycles", "plan", func(r *server.ParseResult) { r.Counters.Cycles++ }},
			{"scan ops", "plan", func(r *server.ParseResult) { r.Counters.ScanOps-- }},
			{"router ops", "plan", func(r *server.ParseResult) { r.Counters.RouterOps++ }},
			{"filter rounds", "plan", func(r *server.ParseResult) { r.Counters.FilterIterations++ }},
			{"other sentence", "answer is for", func(r *server.ParseResult) { r.Sentence = []string{"program", "runs"} }},
			{"error", "error", func(r *server.ParseResult) { r.Error = "boom" }},
		} {
			bad := masparAnswer(t, o, "demo", words)
			tc.corrupt(&bad)
			err := o.check("demo", words, bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q with corrupt %s: check returned %v, want an error mentioning %q", words, tc.name, err, tc.want)
			}
		}
	}
}
