package scioto_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkHarnessBuilds compiles the repository benchmark against
// this tree. benchmark/ is a nested module (replace scioto => ../) that
// `go test ./...` from the root never reaches, yet it is what every PR is
// judged by and it calls into the runtime's packages directly; this keeps
// an API change next to the ones it uses from breaking it unnoticed. The
// environment is the offline one benchmark/run.sh builds with.
func TestBenchmarkHarnessBuilds(t *testing.T) {
	cmd := exec.Command("go", "build", "-o", t.TempDir()+"/", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./... in benchmark/: %v\n%s", err, out)
	}
}
