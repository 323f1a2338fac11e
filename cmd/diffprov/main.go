// Command diffprov is the debugger front-end: it runs the paper's
// diagnostic scenarios, prints provenance trees, and reports differential
// provenance diagnoses.
//
// Usage:
//
//	diffprov scenarios                 list the case studies
//	diffprov run <scenario>            diagnose a scenario (e.g. SDN1)
//	diffprov tree <scenario> good|bad  print a provenance tree
//	diffprov stanford [flags]          run the §6.7 complex-network case
//	diffprov refcheck                  run the unsuitable-reference checks
//	diffprov vet [file.ndlog ...]      statically check NDlog programs
//	diffprov slice <file> <table>      print the demand a seed of the table induces
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/evaluation"
	"repro/internal/failures"
	"repro/internal/scenarios"
	"repro/internal/treediff"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "scenarios":
		err = listScenarios()
	case "run":
		err = runScenario(os.Args[2:])
	case "tree":
		err = printTree(os.Args[2:])
	case "stanford":
		err = runStanford(os.Args[2:])
	case "refcheck":
		err = runRefCheck()
	case "autoref":
		err = runAutoRef(os.Args[2:])
	case "dot":
		err = printDOT(os.Args[2:])
	case "explain":
		err = explainTree(os.Args[2:])
	case "failures":
		err = runFailures()
	case "vet":
		err = runVet(os.Args[2:])
	case "slice":
		err = runSlice(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "diffprov: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffprov: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  diffprov scenarios                 list the case studies
  diffprov run <scenario>            diagnose a scenario (e.g. SDN1)
  diffprov tree <scenario> good|bad  print a provenance tree
  diffprov stanford [flags]          run the complex-network case study
  diffprov refcheck                  run the unsuitable-reference checks
  diffprov autoref <scenario>        diagnose without a reference (mined, §4.9)
  diffprov dot <scenario> good|bad   render a provenance tree in Graphviz DOT
  diffprov explain <scenario> good|bad  narrate a tree's trigger chain
  diffprov failures                  diagnose the §2.3 failure taxonomy
  diffprov vet [-strict] [file...]   check NDlog programs (built-ins when no files)
  diffprov slice <file> <table>      print the demand a seed of the table induces
`)
}

func listScenarios() error {
	for _, name := range scenarios.Names() {
		s, err := scenarios.Build(name, scenarios.Small)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %s\n", s.Name, s.Description)
	}
	return nil
}

func runScenario(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: diffprov run <scenario>")
	}
	s, err := scenarios.Build(args[0], scenarios.Small)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %s\n  %s\n\n", s.Name, s.Description)
	fmt.Printf("good tree: %d vertexes\n", s.Good.Size())
	fmt.Printf("bad tree:  %d vertexes\n", s.Bad.Size())
	fmt.Printf("plain diff (§2.5 strawman): %d vertexes\n\n", treediff.PlainDiff(s.Good, s.Bad))

	res, err := s.Diagnose()
	if err != nil {
		return fmt.Errorf("diagnosis failed: %v", err)
	}
	fmt.Printf("differential provenance Δ(B→G) — the estimated root cause:\n")
	for _, c := range res.Changes {
		fmt.Printf("  %s\n", c)
	}
	fmt.Printf("\nrounds: %d, iterations: %d\n", len(res.Rounds), res.Iterations)
	fmt.Printf("reasoning: seed %v, divergence %v, make-appear %v; tree updates %v\n",
		res.Timings.FindSeed, res.Timings.Divergence, res.Timings.MakeAppear, res.Timings.UpdateTree)
	if s.Check != nil {
		if err := s.Check(res); err != nil {
			return fmt.Errorf("root-cause check failed: %v", err)
		}
		fmt.Println("root cause verified against the known fault ✓")
	}
	return nil
}

func printTree(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: diffprov tree <scenario> good|bad")
	}
	s, err := scenarios.Build(args[0], scenarios.Small)
	if err != nil {
		return err
	}
	switch strings.ToLower(args[1]) {
	case "good":
		fmt.Print(s.Good.String())
	case "bad":
		fmt.Print(s.Bad.String())
	default:
		return fmt.Errorf("want good or bad, got %q", args[1])
	}
	return nil
}

func explainTree(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: diffprov explain <scenario> good|bad")
	}
	s, err := scenarios.Build(args[0], scenarios.Small)
	if err != nil {
		return err
	}
	tree := s.Good
	if strings.ToLower(args[1]) == "bad" {
		tree = s.Bad
	}
	fmt.Print(tree.Explain())
	return nil
}

func printDOT(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: diffprov dot <scenario> good|bad")
	}
	s, err := scenarios.Build(args[0], scenarios.Small)
	if err != nil {
		return err
	}
	tree := s.Good
	if strings.ToLower(args[1]) == "bad" {
		tree = s.Bad
	}
	return tree.WriteDOT(os.Stdout, s.Name+"-"+args[1])
}

func runStanford(args []string) error {
	fs := flag.NewFlagSet("stanford", flag.ContinueOnError)
	entries := fs.Int("entries", 2000, "generated forwarding entries (paper: 757000)")
	acls := fs.Int("acls", 100, "generated ACL rules (paper: 1500)")
	faults := fs.Int("faults", 20, "extra injected faults")
	background := fs.Int("background", 300, "background packets")
	seed := fs.Int64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := evaluation.Stanford(evaluation.StanfordConfig{
		Seed:              *seed,
		ForwardingEntries: *entries,
		ACLRules:          *acls,
		ExtraFaults:       *faults,
		BackgroundPackets: *background,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Stanford backbone (§6.7): %d forwarding entries, %d ACLs, %d extra faults\n",
		*entries, *acls, *faults)
	fmt.Printf("trees: good %d, bad %d vertexes; plain diff %d (paper: 67/75, diff 108)\n",
		res.GoodTree, res.BadTree, res.PlainDiff)
	fmt.Printf("Δ = %d change(s); misconfigured entry found: %v; turnaround %v\n",
		res.Changes, res.FoundFault, res.Turnaround)
	return nil
}

func runAutoRef(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: diffprov autoref <scenario>")
	}
	s, err := scenarios.Build(args[0], scenarios.Small)
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %s (reference withheld; mining candidates from the execution)\n\n", s.Name)
	res, ref, err := core.AutoDiagnose(context.Background(), s.Bad, s.World, core.Options{})
	if err != nil {
		return err
	}
	refSeed, _ := ref.FindSeed()
	fmt.Printf("mined reference: %s (seed %s)\n", ref.Vertex.Tuple, refSeed.Vertex.Tuple)
	fmt.Println("diagnosis:")
	for _, c := range res.Changes {
		fmt.Printf("  %s\n", c)
	}
	return nil
}

func runFailures() error {
	cases, err := failures.All()
	if err != nil {
		return err
	}
	fmt.Println("the survey's failure classes (§2.3-2.4), each diagnosed:")
	for _, c := range cases {
		res, err := c.Diagnose()
		if err != nil {
			return fmt.Errorf("%s: %v", c.Class, err)
		}
		fmt.Printf("\n%-12s %s\n", c.Class.String()+":", c.Description)
		for _, ch := range res.Changes {
			fmt.Printf("  root cause: %s\n", ch)
		}
	}
	return nil
}

func runRefCheck() error {
	checks, err := scenarios.RandomReferenceChecks(scenarios.Small, 5)
	if err != nil {
		return err
	}
	fmt.Printf("unsuitable-reference queries (§6.3): %d issued, all must fail\n\n", len(checks))
	for _, c := range checks {
		fmt.Printf("%-6s ref=%-60s -> %s\n", c.Scenario, c.Reference, c.Kind)
	}
	return nil
}
