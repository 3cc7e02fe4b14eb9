package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs every workload n times, each in its own process,
// alternating the workload order from round to round and cycling through
// seeds, then prints each metric's median, quartiles and spread (the
// interquartile distance as a share of the median).
func runSteady(n int, seedList string, secs, trace int) error {
	var seeds []int64
	for _, f := range strings.Split(seedList, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", f, err)
		}
		seeds = append(seeds, s)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	failedShare := make(map[string][]float64)
	for round := 0; round < n; round++ {
		order := make([]string, len(workloads))
		for i, w := range workloads {
			order[i] = w.name
		}
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		seed := seeds[round%len(seeds)]
		for _, name := range order {
			res, err := runChild(self, name, seed, secs, trace)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			fmt.Fprintf(os.Stderr, "round %d %s seed %d: correct=%v attempted=%d failed=%d\n",
				round, name, seed, res.Correct, res.Attempted, res.Failed)
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
				units[m] = v.Unit
			}
			failedShare[name] = append(failedShare[name], float64(res.Failed)/float64(res.Attempted))
		}
	}
	fmt.Printf("%-11s %-26s %-6s %14s %14s %14s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread")
	for _, w := range workloads {
		names := make([]string, 0, len(values[w.name]))
		for m := range values[w.name] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			xs := values[w.name][m]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("%-11s %-26s %-6s %14.6g %14.6g %14.6g %7.1f%%\n", w.name, m, units[m], med, q1, q3, 100*spread)
		}
		fmt.Printf("%-11s %-26s %-6s %14.6g\n", w.name, "failed/attempted", "", median(failedShare[w.name]))
	}
	return nil
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, name string, seed int64, secs, trace int) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(secs), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return &res, nil
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}
