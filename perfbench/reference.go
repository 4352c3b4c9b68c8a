package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/runner"
	"repro/internal/wire"
)

// referenceJSON holds the simulated outputs recorded for a range of seeds:
// the 100k cell's runner.RunScenario outputs and per-type traffic, and
// the sweep family's runner.RunSweeps report digest. A run whose seed is
// recorded must reproduce it exactly; any other seed is checked against
// a live runner.RunScenario call (xl) or its own repetitions (sweep).
//
//go:embed reference.json
var referenceJSON []byte

type referenceFile struct {
	Note  string                    `json:"note"`
	XL    map[string]xlReference    `json:"xl100k"`
	Sweep map[string]sweepReference `json:"sweep_default"`
}

type xlReference struct {
	Outputs   map[string]float64 `json:"outputs"`
	Sent      map[string]int64   `json:"sent"`
	Delivered map[string]int64   `json:"delivered"`
	Dropped   map[string]int64   `json:"dropped"`
}

type sweepReference struct {
	Digest string  `json:"digest"`
	Events float64 `json:"events"`
}

func loadReference() (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("perfbench: reference.json: %w", err)
	}
	return ref, nil
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

func typeCounts(c *[wire.TypeCount]int64) map[string]int64 {
	m := map[string]int64{}
	for ty := 1; ty < wire.TypeCount; ty++ {
		if c[ty] != 0 {
			m[wire.Type(ty).String()] = c[ty]
		}
	}
	return m
}

// diffReference compares a driven trial with a recorded reference.
func diffReference(r *trialResult, ref xlReference) []string {
	diffs := diffOutputs(r.out, ref.Outputs)
	for _, c := range []struct {
		what      string
		got, want map[string]int64
	}{
		{"sent", typeCounts(&r.sent), ref.Sent},
		{"delivered", typeCounts(&r.deliv), ref.Delivered},
		{"dropped", typeCounts(&r.drop), ref.Dropped},
	} {
		for ty := 1; ty < wire.TypeCount; ty++ {
			name := wire.Type(ty).String()
			if c.got[name] != c.want[name] {
				diffs = append(diffs, fmt.Sprintf("%s %s packets: got %d want %d", name, c.what, c.got[name], c.want[name]))
			}
		}
	}
	return diffs
}

// recordReference computes the reference entries for seeds [from, to] and
// writes them to path. Each xl entry is runner.RunScenario's output,
// with the per-type traffic of a driven trial that reproduced it.
func recordReference(from, to uint64, path string) error {
	ref := referenceFile{
		Note:  "Simulated outputs per seed: xl100k is runner.RunScenario on exp.ScaleSweepXL's 100k row plus per-type packets; sweep_default is the sha256 of runner.RunSweeps' JSON report (1 trial, DefaultSweep+WorkloadSweep+AdaptiveSweep). Regenerate with: go run . -record 0-31",
		XL:    map[string]xlReference{},
		Sweep: map[string]sweepReference{},
	}
	sc, err := xlScenario(1)
	if err != nil {
		return err
	}
	for seed := from; seed <= to; seed++ {
		want, err := runner.RunScenario(sc, seed)
		if err != nil {
			return err
		}
		got, err := runXLTrial(sc, seed, false)
		if err != nil {
			return err
		}
		if d := diffOutputs(got.out, want); len(d) > 0 {
			return fmt.Errorf("perfbench: seed %d: driven trial differs from RunScenario: %v", seed, d)
		}
		out := map[string]float64{}
		for _, k := range checkedKeys {
			out[k] = want[k]
		}
		ref.XL[seedKey(seed)] = xlReference{Outputs: out,
			Sent: typeCounts(&got.sent), Delivered: typeCounts(&got.deliv), Dropped: typeCounts(&got.drop)}

		rep, err := runner.RunSweeps(sweepOptions(seed), standingSweeps()...)
		if err != nil {
			return err
		}
		digest, err := reportDigest(rep)
		if err != nil {
			return err
		}
		ref.Sweep[seedKey(seed)] = sweepReference{Digest: digest, Events: reportEvents(rep)}
		fmt.Fprintf(os.Stderr, "recorded seed %d\n", seed)
	}
	blob, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
