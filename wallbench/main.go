// Command wallbench is gridqr's wall-clock benchmark. It runs real
// data-mode factorizations through the public entry points —
// core.Factorize, sched.Server.Submit and sched.Server.SubmitStream — on
// the goroutine engine, checks every result against a sequential
// reference and the exact perfmodel message counts, and prints one JSON
// result line.
//
// Usage:
//
//	wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	wallbench --compare <out-a> <out-b>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload again with kernel metrics on and splits each op
// into per-layer self times (README.md explains every metric). The last
// line of standard output is always the JSON result; the lines before it
// are the human-readable report and an environment stamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridqr/internal/blas"
)

// metric is one named, unit-carrying reading of a run.
type metric struct {
	name, unit string
	value      float64
}

// report is what a workload run produces: the op tally, the metrics for
// the JSON line and free-form notes for the human-readable part.
type report struct {
	tally
	metrics []metric
	notes   []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runCfg is what every workload receives: the input seed and the
// measurement window.
type runCfg struct {
	seed    int64
	seconds float64
}

// workload is one benchmark scenario: an untraced run reporting the
// end-to-end metrics and a traced run reporting the per-layer ones.
type workload struct {
	name  string
	run   func(runCfg) *report
	trace func(runCfg) *report
}

var workloads = []workload{
	{name: "tsqr-leaf", run: leafWorkload.run, trace: leafWorkload.trace},
	{name: "tsqr-site", run: siteWorkload.run, trace: siteWorkload.trace},
	{name: "serve-tsqr", run: runServe, trace: traceServe},
	{name: "stream-ingest", run: runStream, trace: traceStream},
}

// setupReps is how many times each run builds its fixture (inputs,
// sequential references, world or server); setup_s is the median, so
// one slow build does not move it.
const setupReps = 5

// envStamp identifies the machine and configuration a result was
// measured on; compare warns when two outputs' stamps differ.
type envStamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       int    `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	BLASWorkers int    `json:"blas_workers"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu"`
}

const stampPrefix = "# env "

func main() {
	name := flag.String("workload", "", "workload: tsqr-leaf, tsqr-site, serve-tsqr or stream-ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end run")
	compare := flag.Bool("compare", false, "compare two saved outputs given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("--compare needs two output files")
		}
		if err := compareOutputs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal("unknown workload %q", *name)
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fatal("need --seconds > 0 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	stamp := envStamp{
		Workload: *name, Seed: *seed, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		BLASWorkers: blas.Workers(), GoVersion: runtime.Version(), CPU: cpuModel(),
	}
	cfg := runCfg{seed: *seed, seconds: *seconds}
	var rep *report
	steal0, total0 := hostCPU()
	if *trace == 1 {
		rep = wl.trace(cfg)
	} else {
		rss := startRSSSampler()
		rep = wl.run(cfg)
		rep.add("peak_rss_mb", "MB", rss.stop())
	}
	if steal1, total1 := hostCPU(); total1 > total0 {
		rep.note("host: %.1f%% of CPU time was stolen by the hypervisor during the run", 100*(steal1-steal0)/(total1-total0))
	}
	printReport(os.Stdout, stamp, rep)
}

// printReport writes the human-readable lines, the environment stamp and
// the JSON result line, in that order.
func printReport(w io.Writer, stamp envStamp, rep *report) {
	fmt.Fprintf(w, "wallbench %s seed %d trace %d: %d ops attempted, %d failed (fail_ratio %.4g)\n",
		stamp.Workload, stamp.Seed, stamp.Trace, rep.attempted, rep.failed,
		float64(rep.failed)/math.Max(1, float64(rep.attempted)))
	for _, e := range rep.firstErrs {
		fmt.Fprintf(w, "  FAIL: %s\n", e)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	correct := rep.failed == 0 && rep.attempted > 0
	metrics := map[string]map[string]any{}
	for _, m := range rep.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "  FAIL: metric %s is not finite\n", m.name)
			correct, v = false, 0
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, v, m.unit)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	sb, _ := json.Marshal(stamp) // plain struct of strings and ints: cannot fail
	fmt.Fprintf(w, "%s%s\n", stampPrefix, sb)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": metrics,
	})
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// rssSampler records the process's resident set every rssPeriod.
type rssSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64 // MB; written by the sampler, read after stop
}

const rssPeriod = 50 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak resident set: the 99th
// percentile of the samples, so one sample caught just before a garbage
// collection does not set it. Without samples (no /proc) it falls back
// to the kernel's high-water mark.
func (s *rssSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	if len(s.samples) == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return math.NaN()
		}
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return quantile(s.samples, 0.99)
}

// residentMB reads the process's current resident set from procfs.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostCPU returns the machine's cumulative steal and total CPU ticks
// from /proc/stat (zeros where it is unreadable). Steal — time the
// hypervisor gave this machine's CPUs to other guests — is the main
// source of run-to-run spread on a shared host, so every run reports it.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user … steal; guest time is already in user
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// cpuModel reads the processor name for the environment stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// deadline returns the end of a measurement window starting now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// medianSetup runs build setupReps times, keeping the last fixture and
// closing the others, and returns it with the median build time.
func medianSetup[T any](build func() T, closeFn func(T)) (T, float64) {
	var times []float64
	var fx T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(fx)
			runtime.GC()
		}
		t0 := time.Now()
		fx = build()
		times = append(times, time.Since(t0).Seconds())
	}
	return fx, median(times)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wallbench: "+format+"\n", args...)
	os.Exit(2)
}
