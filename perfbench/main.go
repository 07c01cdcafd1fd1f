// Command perfbench is the repository benchmark: it boots the serving
// stack in this process, drives it over loopback HTTP in closed loops,
// checks every answer against the serial engine and the MasPar cost
// plan, and prints the end-to-end metrics of one workload, or with
// -trace 1 the per-layer metrics of a separate traced run. See
// README.md for the workloads and the metric map.
//
//	bash perfbench/run.sh --workload parse-maspar --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A failed output check prints correct=false and exits 1; a run that
// cannot start exits 2 without a result line.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times an untraced run boots and warms a
// stack; setup_s is their median.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 10, "length of each timed phase, in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files")
	flag.Parse()
	code, err := run(*name, *seed, time.Duration(*secs)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, d time.Duration, trace bool, out string) (int, error) {
	if d <= 0 {
		return 2, errors.New("-seconds must be at least 1")
	}
	b, err := newBench(name, seed)
	if err != nil {
		return 2, err
	}
	host := fingerprint(".")
	hostJSON, _ := json.Marshal(host) // plain struct: cannot fail
	fmt.Printf("host %s\n", hostJSON)
	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", name, seed, d.Seconds(), trace)

	var rec *recorder
	setupN, pd := setupRepeats, d
	if trace {
		// The untraced and the traced phase split the run's time.
		rec, setupN, pd = newRecorder(), 1, d/2
	}
	if b.maxTimed > 0 && d > b.maxTimed {
		return 2, fmt.Errorf("%s: timed phases of %v exceed %v", name, d, b.maxTimed)
	}
	st, setupT, err := setup(b, setupN, rec)
	if err != nil {
		return 2, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	seen := make(map[string]bool)
	for _, r := range b.warmed {
		for _, w := range r.sents {
			seen[sentenceKey(r.grammar, w)] = true
		}
	}

	p, err := st.drive(b.clients, pd, 0, nil)
	if err != nil {
		return 2, err
	}
	as, err := decode(p.samples)
	if err != nil {
		return 2, err
	}
	s := summarize(p, as, seen)
	items := checkItems(as)
	m := newMetrics()
	res := result{Attempted: s.attempted, Failed: s.failed}
	repeats, sent := s.repeats, s.sent
	var checked, distinct int
	var cerr error
	if !trace {
		endToEnd(m, p, s, setupT)
		checked, cerr = checkAnswers(newOracle(), items)
		distinct = len(items)
		// Drop what the benchmark itself holds (the per-request records,
		// the decoded answers, the sets of sentences sent and the
		// generators), so the heap reading does not grow with the
		// sentences answered. It still holds the layouts the check's own
		// grammar instances left in core's process-wide plan cache.
		p, as, s, items, seen, b = nil, nil, summary{}, nil, nil, nil
		m.set("heap_live_mb", heapInuseMB(), "MB", "HeapInuse after a forced GC at the end")
	} else {
		rec.on.Store(true)
		tp, err := st.drive(b.clients, pd, 0, rec)
		rec.on.Store(false)
		if err != nil {
			return 2, err
		}
		tas, err := decode(tp.samples)
		if err != nil {
			return 2, err
		}
		ts := summarize(tp, tas, seen)
		items = append(items, checkItems(tas)...)
		res.Attempted += ts.attempted
		res.Failed += ts.failed
		repeats, sent = ts.repeats, ts.sent
		spans := rec.snapshot()
		traceLayers(m, tp, tas, spans, rec)
		m.set("trace.sents_per_s_untraced", s.sentsPerS, "sents/s", "same stack, recording off")
		m.set("trace.sents_per_s_traced", ts.sentsPerS, "sents/s", "")
		m.set("trace.overhead_share", 1-ratio(ts.sentsPerS, s.sentsPerS), "ratio", "1 - traced/untraced sents_per_s")
		sents, batches := pickReplays(tas)
		if len(sents) == 0 {
			return 2, errors.New("traced phase answered no sentence to replay")
		}
		if err := replayLayers(m, newOracle(), sents, batches); err != nil {
			return 2, fmt.Errorf("replay: %w", err)
		}
		path, err := writeSpans(out, name, seed, host, spans)
		if err != nil {
			return 2, err
		}
		fmt.Printf("spans %d written to %s\n", len(spans), path)
		checked, cerr = checkAnswers(newOracle(), items)
		distinct = len(items)
	}
	m.set("input.repeat_share", ratio(float64(repeats), float64(sent)), "ratio",
		fmt.Sprintf("%d of %d sentences seen earlier in the run", repeats, sent))

	res.Correct = cerr == nil
	if cerr != nil {
		fmt.Printf("check FAILED after %d sentences: %v\n", checked, cerr)
	} else {
		fmt.Printf("check ok: %d distinct answers (%d sentences) match the serial engine and core.PlanMasPar\n", distinct, checked)
	}

	res.Metrics = make(map[string]metric)
	for _, k := range m.names {
		v := m.values[k]
		fmt.Printf("%-32s %14.6g %-8s %s\n", k, v.Value, v.Unit, m.notes[k])
		if k == "input.repeat_share" && !trace {
			continue // printed for reference; per-layer metrics are for the traced run
		}
		res.Metrics[k] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if cerr != nil {
		return 1, nil
	}
	return 0, nil
}

// writeSpans writes the host fingerprint and then one span per line.
func writeSpans(dir, name string, seed int64, host hostInfo, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"host": host, "workload": name, "seed": seed})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
