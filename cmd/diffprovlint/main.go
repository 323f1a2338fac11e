// Command diffprovlint runs the repo's custom lints (internal/lint; -list
// prints them) over Go package patterns and exits nonzero on any finding;
// docnames runs when the patterns include the module root, as ./... does.
//
// Usage:
//
//	diffprovlint [-list] [packages]
//
// With no patterns it checks ./... . It is self-contained (stdlib-only
// type checking), so CI can run it without fetching anything.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: diffprovlint [-list] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffprovlint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffprovlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
