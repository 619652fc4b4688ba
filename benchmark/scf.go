package main

import (
	"fmt"
	"math"
	"time"

	"scioto"
	"scioto/internal/coll"
	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/tcp"
	"scioto/internal/scf"
)

var scfTCP = &workload{name: "scf-tcp", tail: 0.75, world: scfWorld}

func init() {
	scfTCP.setup = func(e *env) {
		// A set-up cycle ends with one Fock build of a 12-atom system: the
		// world has then built every collective structure and produced a
		// result. (It also keeps the ranks alive past the tcp launcher's
		// rendezvous bookkeeping, which loses a race against ranks that
		// exit within a millisecond of connecting.)
		e.launch(scfWorld(e), plain, func(p pgas.Proc, _ *recorder, _ func(*window)) {
			if _, err := scf.Run(p, scfRound(12, 12)); err != nil {
				panic(err)
			}
		})
	}
	scfTCP.run = func(e *env, m mode, d time.Duration) *window {
		systems := shuffled(scfSystemSeeds, e.seed)
		atoms := 48
		if e.quick {
			atoms = 12
		}
		return e.launch(scfWorld(e), m, func(p pgas.Proc, rec *recorder, report func(*window)) {
			scfWindow(p, rec, atoms, systems, d, report)
		})
	}
}

func scfWorld(e *env) scioto.Config {
	return scioto.Config{Procs: 2, Transport: scioto.TransportTCP, Seed: e.seed}
}

// scfRefIntegralsPerS is the reference host's speed on this workload's
// baseline: one SCFSerial iteration of a 48-atom system on both vCPUs at
// once of an otherwise idle 2.1 GHz Xeon guest (go1.24), the fastest
// twentieth of 440 rounds.
const scfRefIntegralsPerS = 6.3e6

// scfRound is one round's scf.Run configuration.
func scfRound(atoms int, system int64) scf.RunConfig {
	return scf.RunConfig{
		Sys:         scf.SystemConfig{NAtoms: atoms, BlockSize: 4, Seed: system},
		Method:      scf.MethodScioto,
		MaxIter:     1,
		PerIntegral: time.Nanosecond,
		TC:          core.Config{ChunkSize: 2},
	}
}

// scfWindow is the SPMD body of an SCF window: each round is one
// scf.Run call — density scatter, one Scioto-balanced Fock build of
// (atoms/4)² block tasks, gather, one DIIS step — on a fresh system from
// the vetted table, preceded on every rank by the serial run of the same
// system that is both the speedup baseline and the expected energy.
func scfWindow(p pgas.Proc, rec *recorder, atoms int, systems []int64, d time.Duration, report func(*window)) {
	comm := coll.New(p, 16)
	round := func(i int) scf.RunConfig { return scfRound(atoms, systems[i%len(systems)]) }
	var mine core.Stats // this rank's task-collection counters, summed over rounds
	var fock, post, phaseOutside time.Duration
	var integrals int64
	var frames0, writes0 int64
	var want scf.SCFResult
	var res scf.Result
	var err error
	win := wallRounds(p, rec, comm, 1, d, roundFns{
		warmedUp: func() {
			mine, phaseOutside = core.Stats{}, 0
			frames0, writes0 = tcp.WireStats()
		},
		serial: func(i int) { want = scf.NewSystem(round(i).Sys).SCFSerial(1, 0) },
		parallel: func(i int) {
			rec.span("scf.run", func() { res, err = scf.Run(p, round(i)) })
			addStats(&mine, res.TaskStats)
			phaseOutside += res.FockTime - res.TaskStats.WorkTime
		},
		check: func(i int) (int64, float64, error) {
			if err != nil {
				return 0, 0, err
			}
			if math.Abs(res.SCF.Energy-want.Energy) > 1e-9 || res.SCF.Integrals != want.Integrals {
				return 0, 0, fmt.Errorf("system %d: E=%.12f over %d integrals, want %.12f over %d",
					round(i).Sys.Seed, res.SCF.Energy, res.SCF.Integrals, want.Energy, want.Integrals)
			}
			fock += res.FockTime
			post += res.Elapsed - res.FockTime
			integrals += res.SCF.Integrals
			nb := int64((atoms + 3) / 4)
			return nb * nb, float64(want.Integrals) / scfRefIntegralsPerS * 1e3, nil
		},
	})
	// Sum the ranks' counters: each scf.Run owns its collection, so the
	// reduction is the benchmark's.
	vec := []int64{mine.InlineExecs, mine.StealAttempts, mine.StealsOK, mine.TasksStolen, mine.Releases,
		mine.Reacquires, mine.WavesSeen, mine.Votes, int64(mine.IdleTime), int64(mine.WorkTime), int64(phaseOutside)}
	comm.AllReduce(vec, coll.Sum)
	if p.Rank() != 0 {
		return
	}
	g := core.Stats{InlineExecs: vec[0], StealAttempts: vec[1], StealsOK: vec[2], TasksStolen: vec[3], Releases: vec[4],
		Reacquires: vec[5], WavesSeen: vec[6], Votes: vec[7], IdleTime: time.Duration(vec[8]), WorkTime: time.Duration(vec[9])}
	coreLayer(win.Layer, g, float64(p.NProcs())*win.roundS())
	if n := float64(len(win.RoundMs)); n > 0 {
		win.Layer["core.self_ns_per_task"] = float64(vec[10]) / float64(win.Tasks)
		win.Layer["scf.fock_s"] = fock.Seconds() / n
		win.Layer["scf.post_ms"] = post.Seconds() * 1e3 / n
		win.Layer["scf.serial_s"] = sum(win.SerialMs) / 1e3 / n
		win.Layer["scf.integrals"] = float64(integrals) / n
	}
	if frames, writes := tcp.WireStats(); writes > writes0 {
		win.Layer["pgas.tcp.frames_per_write"] = float64(frames-frames0) / float64(writes-writes0)
	}
	win.Layer["proc.peak_rss_mb"] = peakRSSMB()
	report(win)
}
