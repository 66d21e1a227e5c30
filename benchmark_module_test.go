package mmdb

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles and vets the benchmark/ module, which
// is a module of its own that ./... never descends into: it imports the
// internal packages, so a changed or deleted signature there would
// otherwise pass every root test while the benchmark stops building.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go vet")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
