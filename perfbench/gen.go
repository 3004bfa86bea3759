package main

import (
	"math/rand"

	"repro/internal/workloads"
)

// Every input the benchmark feeds the program comes from here, derived
// from the --seed argument and the paper's application catalog alone: the
// same seed yields the same fleet assignment, the same renewal sequence,
// the same call streams and the same session scripts. The program under
// test sees only the generated requests. README.md lists where each
// parameter comes from.

// mix is the splitmix64 finalizer: a stateless, well-spread hash used to
// derive op i of a worker's sequence.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// catalogApp is one application of the paper's catalog (Table 4/5, as
// internal/workloads re-implements it): the license its checks name, its
// developer-annotated key functions, and its license checks per run.
type catalogApp struct {
	name    string
	license string
	funcs   []string
	checks  int
}

func catalog() []catalogApp {
	var out []catalogApp
	for _, s := range workloads.All() {
		out = append(out, catalogApp{name: s.Name, license: s.License, funcs: s.KeyFunctions, checks: s.ChecksPerRun})
	}
	return out
}

// appsPerMachine is how many of the catalog's applications one machine
// runs, and so how many of its licenses one SLID holds. The workload's
// design calls for "several" per SLID and no source fixes the number; 3
// of the catalog's 11 licenses gives each license hundreds of holders in a
// fleet of 2048.
const appsPerMachine = 3

// installed returns the catalog indexes of the apps machine i runs:
// consecutive ones from i, so the apps' machine counts differ by at most
// appsPerMachine.
func installed(i, apps int) []int {
	out := make([]int, appsPerMachine)
	for j := range out {
		out[j] = (i + j) % apps
	}
	return out
}

// fleetGen generates renew_fleet's renewals. SLID i holds the licenses of
// the apps it runs plus a seat of the perpetual license, and renews each
// of its holdings equally often, so one renewal in appsPerMachine+1 is of
// the perpetual license.
type fleetGen struct {
	seed     uint64
	slids    int
	licenses int // count licenses; index == licenses names the perpetual one
}

// holds returns the license indexes SLID i renews.
func (g fleetGen) holds(i int) []int {
	return append(installed(i, g.licenses), g.licenses)
}

// op returns renewal i of worker w's sequence as (SLID index, license
// index).
func (g fleetGen) op(w int, i uint64) (int, int) {
	h := mix(g.seed ^ mix(uint64(w)<<40|i))
	slid := int(h % uint64(g.slids))
	hs := g.holds(slid)
	return slid, hs[(h>>32)%uint64(len(hs))]
}

// warmup returns every (SLID, license) pair once, in seeded order.
func (g fleetGen) warmup() [][2]int {
	var pairs [][2]int
	for i := 0; i < g.slids; i++ {
		for _, l := range g.holds(i) {
			pairs = append(pairs, [2]int{i, l})
		}
	}
	r := rand.New(rand.NewSource(int64(g.seed)))
	r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	return pairs
}

// callStreamLen is the length of each app_exec caller's precomputed call
// stream; a caller cycles through it.
const callStreamLen = 1 << 18

// callStream returns one app_exec caller's calls as indexes into funcs.
// An app is picked with probability proportional to its checks per run
// (the catalog's skew: the FaaS apps check 2–50× more often than the
// rest), and one of its key functions uniformly. It is drawn before
// timing, so the timed op does no generator work.
func callStream(seed int64, worker int, apps []catalogApp) []uint16 {
	var cum []int // cumulative weight per function
	total := 0
	for _, a := range apps {
		for range a.funcs {
			total += a.checks / len(a.funcs)
			cum = append(cum, total)
		}
	}
	r := rand.New(rand.NewSource(seed*7919 + int64(worker) + 1))
	out := make([]uint16, callStreamLen)
	for i := range out {
		x := r.Intn(total)
		lo, hi := 0, len(cum)-1
		for lo < hi {
			if mid := (lo + hi) / 2; cum[mid] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i] = uint16(lo)
	}
	return out
}

// crashProb is a session_churn machine's chance that a session ends in a
// crash. The machines take, in turn, the four client profiles of the
// repository's fleet experiment (slbench -exp fleet: health 0.99, 0.95,
// 0.5 and 0.7, crash probability 1 − health per epoch), one session being
// one epoch; on average 21.5% of sessions crash.
func crashProb(machine int) float64 {
	health := [...]float64{0.99, 0.95, 0.5, 0.7}
	return 1 - health[machine%len(health)]
}

// session is one scripted SL-Local lifecycle of session_churn.
type session struct {
	machine  int   // index into the worker's machines
	licenses []int // one RequestToken per entry
	crash    bool  // end with Crash instead of Shutdown
}

// churnGen generates one session_churn worker's sessions. The worker owns
// the machines whose index is congruent to it modulo the worker count.
type churnGen struct {
	r        *rand.Rand
	worker   int
	workers  int
	machines int // the worker's
	licenses int
}

func newChurnGen(seed int64, worker, workers, machines, licenses int) *churnGen {
	return &churnGen{
		r:        rand.New(rand.NewSource(seed*104729 + int64(worker) + 1)),
		worker:   worker,
		workers:  workers,
		machines: machines,
		licenses: licenses,
	}
}

// next picks one of the worker's machines; the session runs every app the
// machine has installed, one RequestToken each, and crashes with the
// machine's crash probability.
func (g *churnGen) next() session {
	s := session{machine: g.r.Intn(g.machines)}
	global := s.machine*g.workers + g.worker
	s.licenses = installed(global, g.licenses)
	s.crash = g.r.Float64() < crashProb(global)
	return s
}
