package bench

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The projection study (§3.4): duplicate elimination by Sort Scan vs
// Hashing over single-column relations. Results: hashing wins everywhere;
// duplicates make hashing faster (discarded on arrival) while sorting
// still sorts the whole list.

func projectList(values []int64) *storage.TempList {
	tuples := buildRelation("p", values)
	list := storage.MustTempList(storage.Descriptor{
		Sources: []string{"p"},
		Cols:    []storage.ColRef{{Source: 0, Field: 0, Name: "val"}},
	})
	for _, tp := range tuples {
		list.Append(storage.Row{tp})
	}
	return list
}

// Graph11ProjectCardinality reproduces Project Test 1: vary |R| with no
// duplicates.
func Graph11ProjectCardinality(env Env) []Series {
	s := Series{
		ID:     "graph11",
		Title:  "Project Test 1 — Vary Cardinality (0% duplicates)",
		XLabel: "|R|",
		YLabel: "seconds",
		Names:  []string{"Sort Scan", "Hash"},
	}
	rng := env.Rng()
	for _, frac := range []float64{0.125, 0.25, 0.5, 0.75, 1.0} {
		n := env.N(int(30000 * frac))
		col, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: 0}, rng)
		if err != nil {
			panic(err)
		}
		list := projectList(col.Values)
		sortScan := timeBest(func() { exec.ProjectSortScan(list, nil) })
		hash := timeBest(func() { exec.ProjectHash(list, nil) })
		s.Add(fmt.Sprintf("%d", n), sortScan, hash)
	}
	s.Notes = append(s.Notes,
		"expected: hash linear (table always |R|/2 slots); sort scan O(|R| log |R|) and above hash everywhere")
	return []Series{s}
}

// Graph12ProjectDuplicates reproduces Project Test 2: |R| = 30,000 with a
// varying duplicate percentage (the distribution does not matter, §3.4).
func Graph12ProjectDuplicates(env Env) []Series {
	s := Series{
		ID:     "graph12",
		Title:  "Project Test 2 — Vary Duplicate Percentage (|R|=30k)",
		XLabel: "duplicate %",
		YLabel: "seconds",
		Names:  []string{"Sort Scan", "Hash"},
	}
	rng := env.Rng()
	n := env.N(30000)
	for _, dup := range []float64{0, 25, 50, 75, 100} {
		col, err := workload.Build(workload.Spec{Cardinality: n, DuplicatePct: dup, Sigma: workload.NearUniform}, rng)
		if err != nil {
			panic(err)
		}
		list := projectList(col.Values)
		sortScan := timeBest(func() { exec.ProjectSortScan(list, nil) })
		hash := timeBest(func() { exec.ProjectHash(list, nil) })
		s.Add(fmt.Sprintf("%.0f%%", dup), sortScan, hash)
	}
	s.Notes = append(s.Notes,
		"expected: hash gets faster as duplicates rise (shorter chains); sort scan stays roughly flat,",
		"easing only slightly (insertion sort does less work on equal runs)")
	return []Series{s}
}
