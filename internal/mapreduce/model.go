// Package mapreduce simulates the paper's Hadoop MapReduce substrate
// (§6.1-6.2): a WordCount job over tokenized input files, with a
// 235-entry job configuration, versioned mapper code identified by
// bytecode checksums, a hash partitioner, and reducers.
//
// Two variants mirror the paper's MR*-D and MR*-I scenarios:
//
//   - Declarative (Cluster): the job runs as NDlog rules on the engine,
//     and provenance is inferred directly from the rules.
//   - Imperative (Job): a plain Go pipeline — the "instrumented Hadoop"
//     — that reports its dependencies to a provenance.Builder at the
//     granularity of individual key-value pairs, input files, bytecode
//     signatures, and configuration entries (§5).
package mapreduce

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ndlog"
)

// ModelSource is the declarative WordCount model shared by both variants
// (the imperative variant uses it as the external specification its
// reported derivations refer to).
const ModelSource = `
// External inputs.
table inputRecord/5 event base;     // (job, fileID, line, pos, word), at a mapper
table mapperCode/2 base mutable key(0);   // (slot, version-checksum), at the master (the job jar)
table jobConfig/2 base mutable key(0);    // (key, value), at the master

// Dataflow.
table kv/4 event;                   // (job, word, line, pos), at a mapper
table kvAt/4 event;                 // (job, word, line, pos), at a reducer
table wordcount/3;                  // (job, word, count), at a reducer

// Map: apply the (versioned) mapper to each input record. Whether the
// mapper emits a record is part of the code version's behaviour, modeled
// by the mapperEmits builtin over the version checksum.
rule m1 kv(@M, J, W, L, P) :-
    inputRecord(@M, J, F, L, P, W),
    mapperCode(@master, S, V),
    mapperEmits(V, P).

// Shuffle: route each pair to the reducer chosen by the partitioner,
// hash(word) mod mapreduce.job.reduces.
rule s1 kvAt(@R, J, W, L, P) :-
    kv(@M, J, W, L, P),
    jobConfig(@master, "mapreduce.job.reduces", N),
    R := reducer(hashmod(W, N)).

// Reduce: count occurrences per (job, word) group.
rule r1 wordcount(@R, J, W, C) :-
    kvAt(@R, J, W, L, P),
    C := count().
`

// ConfigReduces is the configuration key controlling the number of
// reducers — the root cause of the MR1 scenarios.
const ConfigReduces = "mapreduce.job.reduces"

// MapperSlot is the key under which the active mapper version is stored.
const MapperSlot = "wordcount-mapper"

// Program parses the MapReduce model.
func Program() *ndlog.Program { return ndlog.MustParse(ModelSource) }

// ReducerName returns the node name of reducer i.
func ReducerName(i int64) string { return fmt.Sprintf("reducer%d", i) }

// reducerNodes holds the node names of the first reducers as the values
// the reducer builtin returns: the shuffle rule calls it once per key-value
// pair, and formatting and boxing the name each time was three allocations.
// Filled once, read-only afterwards.
var reducerNodes = func() (t [64]ndlog.Value) {
	for i := range t {
		t[i] = ndlog.Str(ReducerName(int64(i)))
	}
	return t
}()

// MapperName returns the node name of mapper i.
func MapperName(i int) string { return fmt.Sprintf("mapper%d", i) }

// mapperBehaviors maps a mapper version checksum to its emission
// behaviour: given the word's position in its line, does this version
// emit it? The buggy version of MR2 drops position 0 (the first word of
// each line). This registry is the "external specification" of code the
// provenance system cannot look inside.
var (
	behaviorMu      sync.RWMutex
	mapperBehaviors = map[ndlog.ID]func(pos int64) bool{}
)

// RegisterMapperVersion registers a mapper version's emission behaviour
// and returns its checksum identity.
func RegisterMapperVersion(name string, emits func(pos int64) bool) ndlog.ID {
	id := ndlog.ID(ndlog.Hash64(ndlog.Str("mapper-bytecode:" + name)))
	behaviorMu.Lock()
	mapperBehaviors[id] = emits
	behaviorMu.Unlock()
	return id
}

// MapperEmits reports whether the given mapper version emits the word at
// the given position; unknown versions emit everything.
func MapperEmits(version ndlog.ID, pos int64) bool {
	behaviorMu.RLock()
	f := mapperBehaviors[version]
	behaviorMu.RUnlock()
	if f == nil {
		return true
	}
	return f(pos)
}

// GoodMapper is the correct WordCount mapper: emits every word.
var GoodMapper = RegisterMapperVersion("wordcount-v1", func(int64) bool { return true })

// BuggyMapper is the MR2 fault: a new mapper version that omits the
// first word of each line.
var BuggyMapper = RegisterMapperVersion("wordcount-v2-buggy", func(pos int64) bool { return pos != 0 })

func init() {
	ndlog.RegisterBuiltin("mapperEmits", 2, func(args []ndlog.Value) (ndlog.Value, error) {
		v, ok1 := args[0].(ndlog.ID)
		p, ok2 := args[1].(ndlog.Int)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("mapreduce: mapperEmits(version, pos), got %s, %s", args[0].Kind(), args[1].Kind())
		}
		return ndlog.Bool(MapperEmits(v, int64(p))), nil
	})
	ndlog.RegisterBuiltin("reducer", 1, func(args []ndlog.Value) (ndlog.Value, error) {
		i, ok := args[0].(ndlog.Int)
		if !ok {
			return nil, fmt.Errorf("mapreduce: reducer(int), got %s", args[0].Kind())
		}
		if i >= 0 && int(i) < len(reducerNodes) {
			return reducerNodes[i], nil
		}
		return ndlog.Str(ReducerName(int64(i))), nil
	})
	ndlog.SetBuiltinKinds("mapperEmits", ndlog.KindBool, ndlog.KindID, ndlog.KindInt)
	ndlog.SetBuiltinKinds("reducer", ndlog.KindStr, ndlog.KindInt)
}

// InputFile is a tokenized text input ("the RecordReader's output"): each
// line is a sequence of words. Files are identified by a content
// checksum, as the paper's logging engine records them.
type InputFile struct {
	Name  string
	Lines [][]string
}

// ParseInput tokenizes a text corpus into an input file.
func ParseInput(name, text string) *InputFile {
	f := &InputFile{Name: name}
	for _, line := range strings.Split(text, "\n") {
		words := strings.Fields(line)
		if len(words) > 0 {
			f.Lines = append(f.Lines, words)
		}
	}
	return f
}

// Checksum returns the file's content identity.
func (f *InputFile) Checksum() ndlog.ID {
	h := ndlog.Hash64(ndlog.Str(f.Name))
	for _, line := range f.Lines {
		h ^= 0x9e3779b97f4a7c15
		h *= 1099511628211
		h ^= ndlog.Hash64(ndlog.Str(strings.Join(line, " ")))
	}
	return ndlog.ID(h)
}

// Words returns the total number of words in the file.
func (f *InputFile) Words() int {
	n := 0
	for _, l := range f.Lines {
		n += len(l)
	}
	return n
}

// ExpectedCounts computes the reference word counts (all words emitted).
func (f *InputFile) ExpectedCounts() map[string]int {
	out := map[string]int{}
	for _, l := range f.Lines {
		for _, w := range l {
			out[w]++
		}
	}
	return out
}

// Vocabulary returns the distinct words, sorted.
func (f *InputFile) Vocabulary() []string {
	seen := map[string]bool{}
	for _, l := range f.Lines {
		for _, w := range l {
			seen[w] = true
		}
	}
	words := make([]string, 0, len(seen))
	for w := range seen {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

// DefaultConfig generates the simulated Hadoop configuration: 235 entries
// as in the paper's instrumentation, with mapreduce.job.reduces set to
// the given value.
func DefaultConfig(reduces int64) map[string]ndlog.Value {
	cfg := map[string]ndlog.Value{}
	// A representative subset of real Hadoop 2.7.1 keys, padded with
	// generated io/shuffle/yarn tuning knobs to the paper's 235 entries.
	named := []struct {
		key string
		val ndlog.Value
	}{
		{ConfigReduces, ndlog.Int(reduces)},
		{"mapreduce.job.maps", ndlog.Int(2)},
		{"mapreduce.task.io.sort.mb", ndlog.Int(100)},
		{"mapreduce.task.io.sort.factor", ndlog.Int(10)},
		{"mapreduce.map.memory.mb", ndlog.Int(1024)},
		{"mapreduce.reduce.memory.mb", ndlog.Int(1024)},
		{"mapreduce.map.java.opts", ndlog.Str("-Xmx820m")},
		{"mapreduce.reduce.java.opts", ndlog.Str("-Xmx820m")},
		{"mapreduce.reduce.shuffle.parallelcopies", ndlog.Int(5)},
		{"mapreduce.map.sort.spill.percent", ndlog.Str("0.80")},
		{"mapreduce.jobtracker.address", ndlog.Str("local")},
		{"mapreduce.framework.name", ndlog.Str("yarn")},
		{"mapreduce.job.counters.max", ndlog.Int(120)},
		{"mapreduce.input.fileinputformat.split.minsize", ndlog.Int(0)},
		{"mapreduce.output.fileoutputformat.compress", ndlog.Bool(false)},
		{"mapreduce.map.speculative", ndlog.Bool(true)},
		{"mapreduce.reduce.speculative", ndlog.Bool(true)},
		{"mapreduce.job.jvm.numtasks", ndlog.Int(1)},
		{"mapreduce.task.timeout", ndlog.Int(600000)},
		{"mapreduce.client.submit.file.replication", ndlog.Int(10)},
	}
	for _, e := range named {
		cfg[e.key] = e.val
	}
	for i := len(cfg); i < 235; i++ {
		cfg[fmt.Sprintf("mapreduce.generated.tuning.param%03d", i)] = ndlog.Int(int64(i))
	}
	return cfg
}
