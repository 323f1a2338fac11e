package scenarios

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/failures"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/diagnoses.golden from this run")

const diagnosesGolden = "testdata/diagnoses.golden"

// renderDiagnosis is one golden line: the change list with its rounds and
// iterations, or the failure's kind and message.
func renderDiagnosis(name string, res *core.Result, err error) string {
	if err != nil {
		if de, ok := err.(*core.DiagnosisError); ok {
			return fmt.Sprintf("%s: fail kind=%q detail=%q error=%q", name, de.Kind, de.Detail, de.Error())
		}
		return fmt.Sprintf("%s: error %q", name, err)
	}
	changes := make([]string, len(res.Changes))
	for i, c := range res.Changes {
		changes[i] = c.String()
	}
	rounds := make([]string, len(res.Rounds))
	for i, r := range res.Rounds {
		rounds[i] = fmt.Sprint(len(r.Changes))
	}
	return fmt.Sprintf("%s: changes=[%s] rounds=[%s] iterations=%d",
		name, strings.Join(changes, "; "), strings.Join(rounds, ","), res.Iterations)
}

// TestDiagnosisGolden pins every diagnosis the repository ships — each
// scenario through Diagnose and AutoDiagnose, each failures case, and the
// unsuitable-reference queries — to testdata/diagnoses.golden, byte for
// byte: the change list, rounds and iterations of a success, or the kind
// and message of a failure. Regenerate with `go test -run
// TestDiagnosisGolden -update ./internal/scenarios`.
func TestDiagnosisGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every scenario twice")
	}
	ctx := context.Background()
	var lines []string
	all, err := All(Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		res, err := s.Diagnose()
		lines = append(lines, renderDiagnosis("diagnose "+s.Name, res, err))
	}
	for _, name := range Names() {
		// A fresh build: AutoDiagnose must not see the world the plain
		// diagnosis above left behind.
		s, err := Build(name, Small)
		if err != nil {
			t.Fatal(err)
		}
		res, ref, err := core.AutoDiagnose(ctx, s.Bad, s.World, core.Options{})
		line := renderDiagnosis("autodiagnose "+name, res, err)
		if ref != nil {
			line += " reference=" + ref.Vertex.Label()
		}
		lines = append(lines, line)
	}
	cases, err := failures.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		res, err := c.Diagnose()
		lines = append(lines, renderDiagnosis("failures "+c.Class.String(), res, err))
	}
	checks, err := RandomReferenceChecks(Small, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		lines = append(lines, fmt.Sprintf("refcheck %s %s: kind=%q message=%q", c.Scenario, c.Reference, c.Kind, c.Message))
	}
	got := []byte(strings.Join(lines, "\n") + "\n")

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(diagnosesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(diagnosesGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(diagnosesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
