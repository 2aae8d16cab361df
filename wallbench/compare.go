package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// output is one saved wallbench run: its environment stamp and result.
type output struct {
	stamp  envStamp
	result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
}

// readOutput parses a saved run: the stamp line and the last line.
func readOutput(path string) (*output, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out output
	var last string
	stamped := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, stampPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &out.stamp); err != nil {
				return nil, fmt.Errorf("%s: environment stamp: %w", path, err)
			}
			stamped = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !stamped {
		return nil, fmt.Errorf("%s: no environment stamp", path)
	}
	if err := json.Unmarshal([]byte(last), &out.result); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return &out, nil
}

// stampDiffs lists the stamp fields on which a and b differ.
func stampDiffs(a, b envStamp) []string {
	var d []string
	check := func(name string, x, y any) {
		if x != y {
			d = append(d, fmt.Sprintf("%s %v vs %v", name, x, y))
		}
	}
	check("workload", a.Workload, b.Workload)
	check("seed", a.Seed, b.Seed)
	check("trace", a.Trace, b.Trace)
	check("nproc", a.NProc, b.NProc)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("blas_workers", a.BLASWorkers, b.BLASWorkers)
	check("go_version", a.GoVersion, b.GoVersion)
	check("cpu", a.CPU, b.CPU)
	return d
}

// compareOutputs prints every metric of two saved runs side by side with
// b's change relative to a, and warns when their stamps differ.
func compareOutputs(w io.Writer, pathA, pathB string) error {
	a, err := readOutput(pathA)
	if err != nil {
		return err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return err
	}
	for _, d := range stampDiffs(a.stamp, b.stamp) {
		fmt.Fprintf(w, "WARNING: environment stamps differ: %s\n", d)
	}
	fmt.Fprintf(w, "%-28s %14s %14s %9s\n", "metric", "a", "b", "b/a-1")
	for _, name := range sortedKeys(a.result.Metrics) {
		ma := a.result.Metrics[name]
		mb, ok := b.result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-28s %14.6g %14s\n", name, ma.Value, "missing")
			continue
		}
		rel := "n/a"
		if ma.Value != 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(mb.Value/ma.Value-1))
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %9s %s\n", name, ma.Value, mb.Value, rel, ma.Unit)
	}
	fmt.Fprintf(w, "correct: %v vs %v; failed/attempted: %d/%d vs %d/%d\n",
		a.result.Correct, b.result.Correct, a.result.Failed, a.result.Attempted,
		b.result.Failed, b.result.Attempted)
	return nil
}
