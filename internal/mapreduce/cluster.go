package mapreduce

import (
	"fmt"
	"sort"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/replay"
)

// Cluster is the declarative MapReduce variant: the WordCount dataflow
// runs as NDlog rules on the engine, with provenance inferred directly
// (the paper's MR1-D / MR2-D re-implementation in RapidNet).
type Cluster struct {
	sess       *replay.Session
	numMappers int
	tick       int64
}

// NewCluster creates a cluster with the given number of mapper nodes,
// the full 235-entry configuration (reduces controls the partitioner),
// and the given active mapper version.
func NewCluster(numMappers int, reduces int64, mapper ndlog.ID) (*Cluster, error) {
	if numMappers < 1 {
		return nil, fmt.Errorf("mapreduce: need at least one mapper")
	}
	c := &Cluster{sess: replay.NewSession(Program()), numMappers: numMappers}
	cfg := DefaultConfig(reduces)
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := ndlog.NewTuple("jobConfig", ndlog.Str(k), cfg[k])
		if err := c.sess.Insert("master", t, c.step()); err != nil {
			return nil, err
		}
	}
	t := ndlog.NewTuple("mapperCode", ndlog.Str(MapperSlot), mapper)
	if err := c.sess.Insert("master", t, c.step()); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Cluster) step() int64 {
	c.tick++
	return c.tick
}

// Session exposes the underlying replay session.
func (c *Cluster) Session() *replay.Session { return c.sess }

// RunJob feeds the file's records to the mappers (round-robin by line,
// the split behaviour of the record reader) and processes the job to
// completion. Job submission leaves a small gap after configuration and
// code loading, as in a real cluster where jobs start well after setup.
func (c *Cluster) RunJob(jobID string, f *InputFile) error {
	c.tick += 10
	fileID := f.Checksum()
	for lineNo, words := range f.Lines {
		mapper := MapperName(lineNo % c.numMappers)
		for pos, w := range words {
			rec := ndlog.NewTuple("inputRecord",
				ndlog.Str(jobID), fileID, ndlog.Int(int64(lineNo)), ndlog.Int(int64(pos)), ndlog.Str(w))
			if err := c.sess.Insert(mapper, rec, c.step()); err != nil {
				return err
			}
		}
	}
	return c.sess.Run()
}

// Counts returns the final word counts of a job, per reducer.
func (c *Cluster) Counts(jobID string) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	e := c.sess.Live()
	for _, node := range e.Nodes() {
		for _, t := range e.LiveTuples(node, "wordcount") {
			if t.Args[0] != ndlog.Str(jobID) {
				continue
			}
			if out[node] == nil {
				out[node] = map[string]int64{}
			}
			out[node][string(t.Args[1].(ndlog.Str))] = int64(t.Args[2].(ndlog.Int))
		}
	}
	return out
}

// CountTuple locates the final wordcount tuple of a word in a job,
// returning the reducer node and the tuple.
func (c *Cluster) CountTuple(jobID, word string) (string, ndlog.Tuple, error) {
	e := c.sess.Live()
	for _, node := range e.Nodes() {
		for _, t := range e.LiveTuples(node, "wordcount") {
			if t.Args[0] == ndlog.Str(jobID) && t.Args[1] == ndlog.Str(word) {
				return node, t, nil
			}
		}
	}
	return "", ndlog.Tuple{}, fmt.Errorf("mapreduce: no wordcount for %q in job %s", word, jobID)
}

// CountTree returns the provenance tree of the final count of a word.
func (c *Cluster) CountTree(jobID, word string) (*provenance.Tree, error) {
	node, tuple, err := c.CountTuple(jobID, word)
	if err != nil {
		return nil, err
	}
	_, g, err := c.sess.Graph()
	if err != nil {
		return nil, err
	}
	ap := g.LastAppear(node, tuple)
	if ap == nil {
		return nil, fmt.Errorf("mapreduce: no provenance for %s at %s", tuple, node)
	}
	return g.Tree(ap.ID), nil
}
