// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON benchmark record, preserving a baseline across runs so the
// file carries before/after numbers. Repeated names (a -count=N run) are
// collapsed to per-metric medians, so recorded cells resist scheduler
// noise.
//
// Usage:
//
//	go test -run NONE -bench E15 -benchmem . | benchjson -o BENCH_netd.json
//
// On the first run the parsed results are stored as both "baseline" and
// "current". On later runs an existing file's baseline is preserved and
// only "current" is replaced — so the committed artifact records the
// pre-change numbers next to the latest ones. Pass -rebaseline to promote
// the new run to the baseline as well.
//
// Each run also records the host it ran on (CPU count, GOMAXPROCS, CPU
// model, Go version, git commit) as "host"; "baseline_host" keeps the
// host of the preserved baseline, or is absent when that baseline
// predates host recording — so numbers from different machines are
// labelled rather than silently compared.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Host describes the machine and build a run came from.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

// File is the on-disk schema.
type File struct {
	Experiment   string   `json:"experiment"`
	Note         string   `json:"note,omitempty"`
	Host         *Host    `json:"host,omitempty"`
	BaselineHost *Host    `json:"baseline_host,omitempty"`
	Baseline     []Result `json:"baseline"`
	Current      []Result `json:"current"`
}

var (
	out        = flag.String("o", "", "output JSON file (default stdout)")
	experiment = flag.String("experiment", "E15 netd pipelined throughput (loopback TCP)", "experiment label")
	note       = flag.String("note", "", "free-form note stored in the file")
	rebaseline = flag.Bool("rebaseline", false, "promote this run to the baseline too")
)

// benchLine matches e.g.
//
//	BenchmarkE15_Throughput_P64_0B-8   12345   9876 ns/op   512 B/op   4 allocs/op   101234 calls/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parse(lines []string) []Result {
	var results []Result
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iters: iters, Metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	return aggregate(results)
}

// aggregate collapses repeated benchmark names (a -count=N run) into one
// result per name carrying the per-metric median, so the recorded cells
// are stable against scheduler noise instead of whichever run came last.
// Order of first appearance is preserved. Iters is the median too
// (rounded), purely informational.
func aggregate(results []Result) []Result {
	byName := map[string][]Result{}
	var order []string
	for _, r := range results {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		runs := byName[name]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		agg := Result{Name: name, Metrics: map[string]float64{}}
		var iters []float64
		keys := map[string]struct{}{}
		for _, r := range runs {
			iters = append(iters, float64(r.Iters))
			for k := range r.Metrics {
				keys[k] = struct{}{}
			}
		}
		agg.Iters = int64(median(iters))
		for k := range keys {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.Metrics[k]; ok {
					vals = append(vals, v)
				}
			}
			agg.Metrics[k] = median(vals)
		}
		out = append(out, agg)
	}
	return out
}

// benchProcs matches the -N GOMAXPROCS suffix go test appends to
// benchmark names.
var benchProcs = regexp.MustCompile(`^Benchmark\S+-(\d+)\s`)

// hostOf describes the host from the go test output — its "cpu:" header
// (CPU stays empty without one) and the -N suffix of the benchmark
// names, which say what the benchmarks themselves saw — falling back to
// this process's view for the rest.
func hostOf(lines []string) *Host {
	h := &Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
	}
	procsSeen := false
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			h.CPU = strings.TrimSpace(cpu)
		} else if m := benchProcs.FindStringSubmatch(line); m != nil && !procsSeen {
			if n, err := strconv.Atoi(m[1]); err == nil {
				h.GOMAXPROCS, procsSeen = n, true
			}
		}
	}
	return h
}

// gitCommit names the checked-out commit, suffixed "-dirty" when the
// tree has uncommitted changes ("" outside a git checkout).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		commit += "-dirty"
	}
	return commit
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

func main() {
	flag.Parse()
	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	current := parse(lines)
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	host := hostOf(lines)
	f := File{Experiment: *experiment, Note: *note, Host: host, BaselineHost: host, Baseline: current, Current: current}
	if *out != "" && !*rebaseline {
		if prev, err := os.ReadFile(*out); err == nil {
			var old File
			if json.Unmarshal(prev, &old) == nil && len(old.Baseline) > 0 {
				f.Baseline = old.Baseline
				f.BaselineHost = old.BaselineHost
				if f.Note == "" {
					f.Note = old.Note
				}
			}
		}
	}
	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(current), *out)
}
