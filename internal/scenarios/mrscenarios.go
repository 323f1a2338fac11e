package scenarios

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/ndlog"
)

// corpusFor generates a deterministic text corpus; the Paper scale
// produces trees of the same order as the paper's MR trees (~1000
// vertexes for the declarative variant).
func corpusFor(scale Scale) *mapreduce.InputFile {
	lines := 12
	if scale == Paper {
		lines = 60
	}
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
		"a", "stream", "of", "words", "flows", "into", "reducers"}
	f := &mapreduce.InputFile{Name: "wikipedia-sample.txt"}
	state := uint64(1234567)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < lines; i++ {
		n := 5 + int(next()%5)
		line := make([]string, n)
		line[0] = "the" // every line starts with "the": MR2's victim word
		for j := 1; j < n; j++ {
			line[j] = words[int(next()%uint64(len(words)))]
		}
		f.Lines = append(f.Lines, line)
	}
	return f
}

// diagWord picks the most frequent word whose final count moved between
// reducers (a frequent word gives trees of the paper's size).
func diagWord(good, bad *mapreduce.Cluster, f *mapreduce.InputFile) (string, error) {
	counts := f.ExpectedCounts()
	best, bestCount := "", 0
	for _, w := range f.Vocabulary() {
		gr, _, err1 := good.CountTuple("goodjob", w)
		br, _, err2 := bad.CountTuple("badjob", w)
		if err1 == nil && err2 == nil && gr != br && counts[w] > bestCount {
			best, bestCount = w, counts[w]
		}
	}
	if best == "" {
		return "", fmt.Errorf("scenarios: no word moved between reducers")
	}
	return best, nil
}

func checkConfigChange(r *core.Result) error {
	if len(r.Changes) != 1 {
		return fmt.Errorf("Δ = %v, want 1 change", r.Changes)
	}
	c := r.Changes[0]
	if c.Tuple.Table != "jobConfig" || c.Tuple.Args[0] != ndlog.Str(mapreduce.ConfigReduces) {
		return fmt.Errorf("change = %v, want %s", c, mapreduce.ConfigReduces)
	}
	if c.Tuple.Args[1] != ndlog.Int(4) {
		return fmt.Errorf("change = %v, want the reference value 4", c)
	}
	return nil
}

func checkCodeChange(r *core.Result) error {
	if len(r.Changes) != 1 {
		return fmt.Errorf("Δ = %v, want 1 change", r.Changes)
	}
	c := r.Changes[0]
	if c.Tuple.Table != "mapperCode" {
		return fmt.Errorf("change = %v, want the mapper code version", c)
	}
	if c.Tuple.Args[1] != mapreduce.GoodMapper {
		return fmt.Errorf("change = %v, want the reference bytecode checksum", c)
	}
	return nil
}

// MR1D is the configuration-change scenario on the declarative runtime:
// mapreduce.job.reduces silently changed from 4 to 2.
func MR1D(scale Scale) (*Scenario, error) { return mr1D(corpusFor(scale)) }

// mr1D builds MR1-D over the corpus f.
func mr1D(f *mapreduce.InputFile) (*Scenario, error) {
	good, err := mapreduce.NewCluster(2, 4, mapreduce.GoodMapper)
	if err != nil {
		return nil, err
	}
	if err := good.RunJob("goodjob", f); err != nil {
		return nil, err
	}
	bad, err := mapreduce.NewCluster(2, 2, mapreduce.GoodMapper)
	if err != nil {
		return nil, err
	}
	if err := bad.RunJob("badjob", f); err != nil {
		return nil, err
	}
	word, err := diagWord(good, bad, f)
	if err != nil {
		return nil, err
	}
	gt, err := good.CountTree("goodjob", word)
	if err != nil {
		return nil, err
	}
	bt, err := bad.CountTree("badjob", word)
	if err != nil {
		return nil, err
	}
	world, err := core.NewWorld(bad.Session())
	if err != nil {
		return nil, err
	}
	// The good cluster is dropped when this returns; its tree is detached so
	// it does not keep the good run's slab chunks alive (likewise below).
	return &Scenario{
		Name:        "MR1-D",
		Description: "Configuration change (declarative): the number of reducers changed, so words land on different reducers",
		Good:        gt.Detach(), Bad: bt, World: world, BadSession: bad.Session(),
		WantRounds: 2, // the reference tick is refined in a second round
		Check:      checkConfigChange,
	}, nil
}

// MR2D is the code-change scenario on the declarative runtime: the new
// mapper version omits the first word of each line.
func MR2D(scale Scale) (*Scenario, error) {
	f := corpusFor(scale)
	good, err := mapreduce.NewCluster(2, 4, mapreduce.GoodMapper)
	if err != nil {
		return nil, err
	}
	if err := good.RunJob("goodjob", f); err != nil {
		return nil, err
	}
	bad, err := mapreduce.NewCluster(2, 4, mapreduce.BuggyMapper)
	if err != nil {
		return nil, err
	}
	if err := bad.RunJob("badjob", f); err != nil {
		return nil, err
	}
	gt, err := good.CountTree("goodjob", "the")
	if err != nil {
		return nil, err
	}
	bt, err := bad.CountTree("badjob", "the")
	if err != nil {
		return nil, err
	}
	world, err := core.NewWorld(bad.Session())
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        "MR2-D",
		Description: "Code change (declarative): the new mapper omits the first word of each line",
		Good:        gt.Detach(), Bad: bt, World: world, BadSession: bad.Session(),
		WantRounds: 1,
		Check:      checkCodeChange,
	}, nil
}

// MR1I is the configuration-change scenario on the instrumented
// imperative pipeline.
func MR1I(scale Scale) (*Scenario, error) {
	f := corpusFor(scale)
	goodEx, err := mapreduce.NewJob("goodjob", f, 2, 4, mapreduce.GoodMapper).Run()
	if err != nil {
		return nil, err
	}
	badEx, err := mapreduce.NewJob("badjob", f, 2, 2, mapreduce.GoodMapper).Run()
	if err != nil {
		return nil, err
	}
	counts := f.ExpectedCounts()
	word, bestCount := "", 0
	for _, w := range f.Vocabulary() {
		ga, ok1 := goodEx.CountAt(w)
		ba, ok2 := badEx.CountAt(w)
		if ok1 && ok2 && ga.Node != ba.Node && counts[w] > bestCount {
			word, bestCount = w, counts[w]
		}
	}
	if word == "" {
		return nil, fmt.Errorf("scenarios: no word moved between reducers")
	}
	gt, err := goodEx.CountTree(word)
	if err != nil {
		return nil, err
	}
	bt, err := badEx.CountTree(word)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        "MR1-I",
		Description: "Configuration change (instrumented Hadoop): provenance reported at key-value granularity",
		Good:        gt.Detach(), Bad: bt, World: badEx.World(),
		WantRounds: 1,
		Check:      checkConfigChange,
	}, nil
}

// MR2I is the code-change scenario on the instrumented imperative
// pipeline; DiffProv pinpoints the bytecode checksum.
func MR2I(scale Scale) (*Scenario, error) {
	f := corpusFor(scale)
	goodEx, err := mapreduce.NewJob("goodjob", f, 2, 4, mapreduce.GoodMapper).Run()
	if err != nil {
		return nil, err
	}
	badEx, err := mapreduce.NewJob("badjob", f, 2, 4, mapreduce.BuggyMapper).Run()
	if err != nil {
		return nil, err
	}
	gt, err := goodEx.CountTree("the")
	if err != nil {
		return nil, err
	}
	bt, err := badEx.CountTree("the")
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        "MR2-I",
		Description: "Code change (instrumented Hadoop): the root cause is the mapper's bytecode checksum",
		Good:        gt.Detach(), Bad: bt, World: badEx.World(),
		WantRounds: 1,
		Check:      checkCodeChange,
	}, nil
}
