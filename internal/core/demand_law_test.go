package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenarios"
)

// TestDemandTrialReadsAreTheFullTrials: on every replayable scenario, every
// read core makes of a diagnosis's demand trials — the world's answers, and
// the appearances it looks up in the trial's graph — is answered as the full
// trial of the same change list answers it, and no trial widens.
func TestDemandTrialReadsAreTheFullTrials(t *testing.T) {
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.BadSession == nil {
			continue // the imperative MapReduce variants re-run jobs
		}
		iso, err := s.Isolated()
		if err != nil {
			t.Fatal(err)
		}
		reads := 0
		iso.World = core.CheckedDemandReads(iso.World, func(m string) { t.Errorf("%s: %s", name, m) }, &reads)
		if _, err := iso.Diagnose(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reads == 0 {
			t.Errorf("%s: no read of a demand trial compared", name)
		}
		if n := iso.BadSession.Stats.DemandWidenings; n != 0 {
			t.Errorf("%s: %d demand trials widened, want none", name, n)
		}
		t.Logf("%s: %d reads compared", name, reads)
	}
}
