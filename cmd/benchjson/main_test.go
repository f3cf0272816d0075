package main

import (
	"runtime"
	"testing"
)

func TestHostOfReadsBenchHeader(t *testing.T) {
	lines := []string{
		"goos: linux",
		"goarch: amd64",
		"pkg: repro",
		"cpu: Example CPU @ 2.00GHz",
		"BenchmarkE19_DurableWrite_P1_B256-4   \t    1694\t   1350910 ns/op",
		"BenchmarkE19_DurableWrite_P64_B1-8   \t   12744\t    178985 ns/op",
	}
	h := hostOf(lines)
	if h.CPU != "Example CPU @ 2.00GHz" {
		t.Errorf("cpu = %q, want the go test header's", h.CPU)
	}
	if h.GOMAXPROCS != 4 {
		t.Errorf("gomaxprocs = %d, want 4 from the first benchmark's -N suffix", h.GOMAXPROCS)
	}
	if h.NProc != runtime.NumCPU() || h.GoVersion != runtime.Version() {
		t.Errorf("nproc/go version = %d/%q, want this process's %d/%q", h.NProc, h.GoVersion, runtime.NumCPU(), runtime.Version())
	}

	bare := hostOf([]string{"BenchmarkX \t 10 \t 5 ns/op"})
	if bare.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("without a -N suffix gomaxprocs = %d, want this process's %d", bare.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if bare.CPU != "" {
		t.Errorf("without a cpu: header cpu = %q, want empty", bare.CPU)
	}
}
