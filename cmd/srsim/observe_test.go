package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestObserveGolden pins the scripted scenario at its default flags byte for
// byte: the stdout of srsim -trace -metrics, and the JSONL file srsim -trace
// -export writes. A change that means to move either updates the hash here
// and says why.
func TestObserveGolden(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "srsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

	stdout, err := exec.Command(bin, "-trace", "-metrics").Output()
	if err != nil {
		t.Fatal(err)
	}
	// Control transactions flush one batch per participant as phase one, no
	// per-copy write and no prepare round: 155 wire messages became 148
	// (site 1: 3 write + 3 prepare became 3 batch; site 2: 4 + 4 became 4).
	if got, want := sum(stdout), "39ad48a009afb36ada7db9e11be4d42c8d5601787af5af1fc3111f0cb650f086"; got != want {
		t.Errorf("srsim -trace -metrics stdout: sha256 %s, want %s", got, want)
	}

	path := filepath.Join(dir, "trace.jsonl")
	if err := exec.Command(bin, "-trace", "-export", path).Run(); err != nil {
		t.Fatal(err)
	}
	exported, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum(exported), "6f69855ce9bd84b4cb6bc1dfdd329805c56b4011547f4926f074443f942f6db2"; got != want {
		t.Errorf("srsim -trace -export file: sha256 %s, want %s", got, want)
	}
}
