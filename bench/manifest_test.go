package main

import (
	"bytes"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root is generated from this
// program's tables (`go run -C bench . -manifest`); the two must not
// drift.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from `go run -C bench . -manifest`; regenerate it")
	}
}
