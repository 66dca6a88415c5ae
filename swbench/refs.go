package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The reference hashes: the FNV-64 of the final state of one segment,
// per workload and input set, recorded from the code the benchmark was
// defined on. A run with seed s uses input set s mod refSets, so every
// seed is checked against a recorded hash. Input set heldOutSet is held
// out: no change is tuned on it, so a claim can be re-checked there.
const (
	refSets    = 64
	heldOutSet = 63
)

//go:embed refs.json
var refsJSON []byte

// refFile is the recorded table.
type refFile struct {
	Config string              `json:"config"`
	Hashes map[string][]string `json:"hashes"` // workload -> hex FNV-64 per input set
}

// configKey names everything that decides a result: compare mode
// refuses to diff runs whose keys differ, and a reference table
// recorded under another key is refused as stale.
func configKey() string {
	return fmt.Sprintf("ne%d nlev%d qsize%d ranks%d overlap dynworkers1 physworkers1 physevery%d cycle%dsteps segment%dcycles warmup%d amp%g flips:%s sets%d",
		cfgNe, cfgNlev, cfgQsize, cfgRanks, physEvery, stepsPerCycle, cyclesPerSegment, warmupCycles,
		perturbAmp, strings.Join(flipKinds, "+"), refSets)
}

// inputSet maps a seed onto the recorded input sets.
func inputSet(seed int64) int64 {
	s := seed % refSets
	if s < 0 {
		s += refSets
	}
	return s
}

// referenceHash returns the recorded hash of workload w on input set
// set.
func referenceHash(w string, set int64) (uint64, error) {
	var rf refFile
	if err := json.Unmarshal(refsJSON, &rf); err != nil {
		return 0, fmt.Errorf("reference table: %w", err)
	}
	if rf.Config != configKey() {
		return 0, fmt.Errorf("reference table was recorded for %q, the benchmark runs %q", rf.Config, configKey())
	}
	hs := rf.Hashes[w]
	if set < 0 || int64(len(hs)) <= set {
		return 0, fmt.Errorf("reference table holds no hash for %s input set %d", w, set)
	}
	return strconv.ParseUint(hs[set], 16, 64)
}

// recordRefs runs one segment of every workload on every input set and
// writes the table to path.
func recordRefs(path string) error {
	rf := refFile{Config: configKey(), Hashes: map[string][]string{}}
	for _, w := range workloads {
		for set := int64(0); set < refSets; set++ {
			h, err := segmentHash(w, set)
			if err != nil {
				return fmt.Errorf("%s input set %d: %w", w.name, set, err)
			}
			rf.Hashes[w.name] = append(rf.Hashes[w.name], fmt.Sprintf("%016x", h))
		}
		fmt.Fprintf(os.Stderr, "recorded %s\n", w.name)
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// segmentHash runs one checked segment of w from a fresh driver.
func segmentHash(w workload, seed int64) (uint64, error) {
	r, err := newRunner(w, seed)
	if err != nil {
		return 0, err
	}
	m := timedLoop(r, 0, 1, nil, nil)
	if m.failed > 0 {
		return 0, fmt.Errorf("%v", m.failures)
	}
	return m.hashes[0], nil
}
